// The crash-resume contract: an engine restored from a checkpoint taken
// mid-trace and fed the remainder must reach a final Snapshot() identical
// to an uninterrupted run's - exact tallies and sketch-backed views alike,
// because state is serialized bit-for-bit. A damaged checkpoint must throw,
// never half-restore.
#include "stream/checkpoint.h"

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "stream/engine.h"
#include "test_support.h"

namespace ddos::stream {
namespace {

const data::Dataset& Trace() { return ::ddos::testing::SmallDataset(); }

void ExpectSnapshotsIdentical(const StreamSnapshot& a, const StreamSnapshot& b) {
  EXPECT_EQ(a.attacks, b.attacks);
  EXPECT_EQ(a.first_start, b.first_start);
  EXPECT_EQ(a.last_start, b.last_start);
  EXPECT_EQ(a.family_attacks, b.family_attacks);
  EXPECT_EQ(a.countries, b.countries);

  ASSERT_EQ(a.protocols.size(), b.protocols.size());
  for (std::size_t i = 0; i < a.protocols.size(); ++i) {
    EXPECT_EQ(a.protocols[i].protocol, b.protocols[i].protocol);
    EXPECT_EQ(a.protocols[i].attacks, b.protocols[i].attacks);
  }

  EXPECT_EQ(a.intervals.summary.count, b.intervals.summary.count);
  EXPECT_EQ(a.intervals.summary.mean, b.intervals.summary.mean);
  EXPECT_EQ(a.intervals.summary.stddev, b.intervals.summary.stddev);
  EXPECT_EQ(a.intervals.summary.median, b.intervals.summary.median);
  EXPECT_EQ(a.intervals.p80_seconds, b.intervals.p80_seconds);
  EXPECT_EQ(a.intervals.fraction_concurrent, b.intervals.fraction_concurrent);
  EXPECT_EQ(a.durations.summary.count, b.durations.summary.count);
  EXPECT_EQ(a.durations.summary.mean, b.durations.summary.mean);
  EXPECT_EQ(a.durations.summary.median, b.durations.summary.median);
  EXPECT_EQ(a.durations.p80_seconds, b.durations.p80_seconds);
  EXPECT_EQ(a.durations.fraction_under_4h, b.durations.fraction_under_4h);

  EXPECT_EQ(a.distinct_targets, b.distinct_targets);
  EXPECT_EQ(a.distinct_botnets, b.distinct_botnets);
  ASSERT_EQ(a.top_targets.size(), b.top_targets.size());
  for (std::size_t i = 0; i < a.top_targets.size(); ++i) {
    EXPECT_EQ(a.top_targets[i].label, b.top_targets[i].label);
    EXPECT_EQ(a.top_targets[i].count, b.top_targets[i].count);
  }

  EXPECT_EQ(a.collab.events, b.collab.events);
  EXPECT_EQ(a.collab.intra_family_events, b.collab.intra_family_events);
  EXPECT_EQ(a.collab.inter_family_events, b.collab.inter_family_events);
  for (std::size_t f = 0; f < data::kFamilyCount; ++f) {
    EXPECT_EQ(a.collab.table.intra[f], b.collab.table.intra[f]) << f;
    EXPECT_EQ(a.collab.table.inter[f], b.collab.table.inter[f]) << f;
  }
  EXPECT_EQ(a.attacks_in_window, b.attacks_in_window);
}

CheckpointMeta MetaWithRecords(std::uint64_t records) {
  CheckpointMeta meta;
  meta.records = records;
  return meta;
}

std::string SerializeToCheckpoint(const StreamEngine& engine,
                                  const CheckpointMeta& meta) {
  std::ostringstream out;
  WriteCheckpoint(out, engine, meta);
  return out.str();
}

TEST(Checkpoint, RoundTripPreservesSnapshotAndMeta) {
  StreamEngine engine;
  for (const data::AttackRecord& a : Trace().attacks()) engine.Push(a);

  CheckpointMeta meta;
  meta.records = engine.attacks_seen();
  meta.source_line = engine.attacks_seen() + 1;
  meta.errors.Add(data::IngestErrorKind::kBadFieldCount);
  meta.errors.Add(data::IngestErrorKind::kDuplicateId);
  meta.errors.Add(data::IngestErrorKind::kDuplicateId);

  std::istringstream in(SerializeToCheckpoint(engine, meta));
  CheckpointMeta restored_meta;
  StreamEngine restored = ReadCheckpoint(in, &restored_meta);

  EXPECT_EQ(restored_meta.records, meta.records);
  EXPECT_EQ(restored_meta.source_line, meta.source_line);
  EXPECT_EQ(restored_meta.errors.count(data::IngestErrorKind::kDuplicateId), 2u);
  EXPECT_EQ(restored_meta.errors.total(), 3u);

  engine.Finish();
  restored.Finish();
  ExpectSnapshotsIdentical(engine.Snapshot(), restored.Snapshot());
}

TEST(Checkpoint, CrashResumeEquivalenceOnAttackPath) {
  // Uninterrupted run.
  StreamEngine uninterrupted;
  for (const data::AttackRecord& a : Trace().attacks()) uninterrupted.Push(a);
  uninterrupted.Finish();

  // Interrupted run: checkpoint mid-trace, "crash", restore, finish.
  const std::size_t cut = Trace().attacks().size() / 3;
  StreamEngine first_half;
  for (std::size_t i = 0; i < cut; ++i) first_half.Push(Trace().attacks()[i]);
  const std::string checkpoint =
      SerializeToCheckpoint(first_half, MetaWithRecords(cut));

  std::istringstream in(checkpoint);
  CheckpointMeta meta;
  StreamEngine resumed = ReadCheckpoint(in, &meta);
  ASSERT_EQ(meta.records, cut);
  for (std::size_t i = cut; i < Trace().attacks().size(); ++i) {
    resumed.Push(Trace().attacks()[i]);
  }
  resumed.Finish();

  ExpectSnapshotsIdentical(uninterrupted.Snapshot(), resumed.Snapshot());
}

TEST(Checkpoint, CrashResumeEquivalenceOnObservationPath) {
  // The sessionizer's open runs and the collab detector's pending groups
  // must survive the round trip: cut mid-stream with runs still open.
  auto push_all = [](StreamEngine& engine, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const data::AttackRecord& a = Trace().attacks()[i];
      core::Observation obs;
      obs.botnet_id = a.botnet_id;
      obs.family = a.family;
      obs.protocol = a.category;
      obs.target_ip = a.target_ip;
      obs.start = a.start_time;
      obs.end = a.end_time;
      obs.sources = a.magnitude;
      engine.PushObservation(obs);
    }
  };
  const std::size_t n = Trace().attacks().size();

  StreamEngine uninterrupted;
  push_all(uninterrupted, 0, n);
  uninterrupted.Finish();

  StreamEngine first_half;
  push_all(first_half, 0, n / 2);
  std::istringstream in(
      SerializeToCheckpoint(first_half, MetaWithRecords(n / 2)));
  StreamEngine resumed = ReadCheckpoint(in, nullptr);
  push_all(resumed, n / 2, n);
  resumed.Finish();

  ExpectSnapshotsIdentical(uninterrupted.Snapshot(), resumed.Snapshot());
}

TEST(Checkpoint, NonDefaultConfigSurvivesTheRoundTrip) {
  StreamEngineConfig config;
  config.quantile_epsilon = 0.02;
  config.topk_capacity = 64;
  config.distinct_k = 256;
  config.rolling_window_s = 6 * kSecondsPerHour;
  StreamEngine engine(config);
  for (const data::AttackRecord& a : Trace().attacks()) engine.Push(a);

  std::istringstream in(SerializeToCheckpoint(engine, CheckpointMeta{}));
  StreamEngine restored = ReadCheckpoint(in, nullptr);
  EXPECT_EQ(restored.config().topk_capacity, 64u);
  EXPECT_EQ(restored.config().distinct_k, 256u);
  EXPECT_EQ(restored.config().rolling_window_s, 6 * kSecondsPerHour);
  ExpectSnapshotsIdentical(engine.Snapshot(), restored.Snapshot());
}

TEST(Checkpoint, CorruptionIsDetectedNotHalfRestored) {
  StreamEngine engine;
  for (const data::AttackRecord& a : Trace().attacks()) engine.Push(a);
  const std::string good = SerializeToCheckpoint(engine, CheckpointMeta{});

  {  // flipped payload byte -> checksum mismatch
    std::string bad = good;
    bad[bad.size() / 2] ^= 0x01;
    std::istringstream in(bad);
    EXPECT_THROW(ReadCheckpoint(in, nullptr), std::runtime_error);
  }
  {  // wrong magic
    std::string bad = good;
    bad[0] = 'X';
    std::istringstream in(bad);
    EXPECT_THROW(ReadCheckpoint(in, nullptr), std::runtime_error);
  }
  // Unsupported version (bytes 8..11): 1 and 2 are the pre-release
  // layouts without a source offset, no longer read.
  for (const char version : {'\x01', '\x02', '\x7f'}) {
    std::string bad = good;
    bad[8] = version;
    std::istringstream in(bad);
    EXPECT_THROW(ReadCheckpoint(in, nullptr), std::runtime_error)
        << "version " << int{version};
  }
  {  // truncated file
    std::istringstream in(good.substr(0, good.size() / 2));
    EXPECT_THROW(ReadCheckpoint(in, nullptr), std::runtime_error);
  }
  {  // empty file
    std::istringstream in{std::string()};
    EXPECT_THROW(ReadCheckpoint(in, nullptr), std::runtime_error);
  }
}

TEST(Checkpoint, FileWriterStagesAndRenamesAtomically) {
  const std::string path = ::ddos::testing::TestTempPath("ddoscope_ckpt_test.bin");
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());

  StreamEngine engine;
  for (const data::AttackRecord& a : Trace().attacks()) engine.Push(a);
  WriteCheckpoint(path, engine, MetaWithRecords(engine.attacks_seen()));

  // The staging file must be gone and the real file readable.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  CheckpointMeta meta;
  StreamEngine restored = ReadCheckpoint(path, &meta);
  EXPECT_EQ(meta.records, engine.attacks_seen());
  engine.Finish();
  restored.Finish();
  ExpectSnapshotsIdentical(engine.Snapshot(), restored.Snapshot());

  // Overwriting an existing checkpoint also goes through the staging path.
  WriteCheckpoint(path, restored, MetaWithRecords(1));
  StreamEngine again = ReadCheckpoint(path, &meta);
  EXPECT_EQ(meta.records, 1u);
  std::remove(path.c_str());

  EXPECT_THROW(ReadCheckpoint(path, nullptr), std::runtime_error);
}

TEST(Checkpoint, FailedRenameLeavesNoStageFileBehind) {
  // Renaming over a non-empty directory fails, standing in for any
  // publish-time failure: the writer must throw AND clean up its .tmp so
  // repeated failures cannot accumulate debris.
  const std::string path = ::ddos::testing::TestTempPath("ddoscope_ckpt_blocked");
  const std::string tmp = path + ".tmp";
  std::remove(tmp.c_str());
  ASSERT_EQ(::mkdir(path.c_str(), 0755), 0);
  const std::string blocker = path + "/occupied";
  { std::ofstream(blocker) << "x"; }

  StreamEngine engine;
  for (const data::AttackRecord& a : Trace().attacks()) engine.Push(a);
  EXPECT_THROW(WriteCheckpoint(path, engine, MetaWithRecords(1)),
               std::runtime_error);
  EXPECT_FALSE(std::ifstream(tmp).good())
      << "failed rename must delete the stage file";

  std::remove(blocker.c_str());
  ::rmdir(path.c_str());
}

}  // namespace
}  // namespace ddos::stream
