// Merge-equivalence property tests for the sharded engine: a K-shard
// ShardedStreamEngine fed the trace must agree with one StreamEngine fed
// the same trace - bit-identically on every exact (integer-backed) field,
// and within the merged rank-error bound on the sketch-backed quantiles -
// for K in {1, 2, 8} and several simulation seeds. Plus checkpoint/resume
// of the sharded engine, including resuming into a different shard count,
// and the worker park/wake handoff (idle trickle, stalled shard, full ring,
// shutdown).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <numeric>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "botsim/simulator.h"
#include "obs/metrics.h"
#include "stream/checkpoint.h"
#include "stream/engine.h"
#include "stream/sharded.h"
#include "test_support.h"

namespace ddos::stream {
namespace {

std::vector<data::AttackRecord> TraceWithSeed(std::uint64_t seed) {
  sim::SimConfig config = ::ddos::testing::SmallSimConfig();
  config.seed = seed;
  config.scale = 0.03;
  config.days = 45;
  sim::TraceSimulator simulator(::ddos::testing::TestGeoDb(),
                                sim::DefaultProfiles(), config);
  const data::Dataset dataset = simulator.Generate();
  return std::vector<data::AttackRecord>(dataset.attacks().begin(),
                                         dataset.attacks().end());
}

StreamSnapshot SingleEngineSnapshot(std::span<const data::AttackRecord> attacks) {
  StreamEngine engine;
  for (const data::AttackRecord& a : attacks) engine.Push(a);
  engine.Finish();
  return engine.Snapshot();
}

StreamSnapshot ShardedSnapshot(std::span<const data::AttackRecord> attacks,
                               std::size_t shards) {
  ShardedStreamEngineConfig config;
  config.shards = shards;
  ShardedStreamEngine engine(config);
  for (const data::AttackRecord& a : attacks) engine.Push(a);
  engine.Finish();
  return engine.Snapshot();
}

void ExpectRankWithinBound(std::vector<double> sorted, double estimate,
                           double q, double epsilon) {
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(sorted.size());
  const double bound = epsilon * n + 1.0;
  const double rank_lo = static_cast<double>(
      std::lower_bound(sorted.begin(), sorted.end(), estimate) -
      sorted.begin());
  const double rank_hi = static_cast<double>(
      std::upper_bound(sorted.begin(), sorted.end(), estimate) -
      sorted.begin());
  EXPECT_LE(rank_lo - bound, q * n) << "q=" << q << " estimate=" << estimate;
  EXPECT_GE(rank_hi + bound, q * n) << "q=" << q << " estimate=" << estimate;
}

// Every integer-backed snapshot field must match bit-for-bit; these are the
// "exact" columns of the characterization (counts, protocol mix, country
// set, concurrency/duration bands, collaboration tallies).
void ExpectExactFieldsIdentical(const StreamSnapshot& sharded,
                                const StreamSnapshot& single) {
  EXPECT_EQ(sharded.attacks, single.attacks);
  EXPECT_EQ(sharded.first_start, single.first_start);
  EXPECT_EQ(sharded.last_start, single.last_start);
  EXPECT_EQ(sharded.family_attacks, single.family_attacks);
  EXPECT_EQ(sharded.countries, single.countries);
  ASSERT_EQ(sharded.protocols.size(), single.protocols.size());
  for (std::size_t i = 0; i < sharded.protocols.size(); ++i) {
    EXPECT_EQ(sharded.protocols[i].protocol, single.protocols[i].protocol);
    EXPECT_EQ(sharded.protocols[i].attacks, single.protocols[i].attacks);
  }
  // Interval statistics: the router computes every gap against the global
  // previous start, so even these distribute bit-identically.
  EXPECT_EQ(sharded.intervals.summary.count, single.intervals.summary.count);
  EXPECT_DOUBLE_EQ(sharded.intervals.fraction_concurrent,
                   single.intervals.fraction_concurrent);
  EXPECT_DOUBLE_EQ(sharded.intervals.fraction_1k_10k,
                   single.intervals.fraction_1k_10k);
  EXPECT_EQ(sharded.durations.summary.count, single.durations.summary.count);
  EXPECT_DOUBLE_EQ(sharded.durations.fraction_100_10000,
                   single.durations.fraction_100_10000);
  EXPECT_DOUBLE_EQ(sharded.durations.fraction_under_4h,
                   single.durations.fraction_under_4h);
  // Collaborations: target-routed observations keep each target's feed in
  // global order on one shard, so the final tallies are exact.
  EXPECT_EQ(sharded.collab.events, single.collab.events);
  EXPECT_EQ(sharded.collab.intra_family_events,
            single.collab.intra_family_events);
  EXPECT_EQ(sharded.collab.inter_family_events,
            single.collab.inter_family_events);
  EXPECT_EQ(sharded.collab.total_participants,
            single.collab.total_participants);
  EXPECT_EQ(sharded.attacks_in_window, single.attacks_in_window);
  // KMV merges losslessly, so even the distinct estimates are identical.
  EXPECT_DOUBLE_EQ(sharded.distinct_targets, single.distinct_targets);
  EXPECT_DOUBLE_EQ(sharded.distinct_botnets, single.distinct_botnets);
}

TEST(ShardedStreamEngine, MergeEquivalenceAcrossShardCountsAndSeeds) {
  for (const std::uint64_t seed : {1234ull, 99ull, 2026ull}) {
    const std::vector<data::AttackRecord> attacks = TraceWithSeed(seed);
    ASSERT_GT(attacks.size(), 100u) << seed;
    const StreamSnapshot single = SingleEngineSnapshot(attacks);

    std::vector<double> durations;
    std::vector<double> intervals;
    durations.reserve(attacks.size());
    for (std::size_t i = 0; i < attacks.size(); ++i) {
      durations.push_back(static_cast<double>(attacks[i].duration_seconds()));
      if (i > 0) {
        intervals.push_back(std::max<double>(
            0.0, static_cast<double>(attacks[i].start_time -
                                     attacks[i - 1].start_time)));
      }
    }

    for (const std::size_t shards : {1u, 2u, 8u}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " shards=" + std::to_string(shards));
      const StreamSnapshot sharded = ShardedSnapshot(attacks, shards);
      ExpectExactFieldsIdentical(sharded, single);
      // Sketch-backed fields: within the requested rank-error contract.
      // Per-shard sketches run at epsilon/2, so the merged bound is the
      // configured 0.005 even at 8 shards; test the safe summed bound.
      const double epsilon =
          shards == 1 ? 0.005 : 0.0025 * static_cast<double>(shards);
      ExpectRankWithinBound(durations, sharded.durations.summary.median, 0.5,
                            epsilon);
      ExpectRankWithinBound(durations, sharded.durations.p80_seconds, 0.8,
                            epsilon);
      ExpectRankWithinBound(intervals, sharded.intervals.summary.median, 0.5,
                            epsilon);
      ExpectRankWithinBound(intervals, sharded.intervals.p80_seconds, 0.8,
                            epsilon);
      // Welford moments merge algebraically; allow float reassociation.
      EXPECT_NEAR(sharded.durations.summary.mean, single.durations.summary.mean,
                  1e-6 * (1.0 + single.durations.summary.mean));
      EXPECT_NEAR(sharded.intervals.summary.mean, single.intervals.summary.mean,
                  1e-6 * (1.0 + single.intervals.summary.mean));
      EXPECT_DOUBLE_EQ(sharded.durations.summary.min,
                       single.durations.summary.min);
      EXPECT_DOUBLE_EQ(sharded.durations.summary.max,
                       single.durations.summary.max);
    }
  }
}

TEST(ShardedStreamEngine, MidStreamSnapshotMatchesSingleEngineExactTallies) {
  const auto& attacks = ::ddos::testing::SmallDataset().attacks();
  const std::size_t half = attacks.size() / 2;

  StreamEngine single;
  ShardedStreamEngineConfig config;
  config.shards = 4;
  ShardedStreamEngine sharded(config);
  for (std::size_t i = 0; i < half; ++i) {
    single.Push(attacks[i]);
    sharded.Push(attacks[i]);
  }
  const StreamSnapshot live = sharded.Snapshot();
  const StreamSnapshot reference = single.Snapshot();
  // Collaboration sweeps run on each shard's local cadence mid-stream, so
  // only the non-collab exact fields are compared here (they converge at
  // Finish; see MergeEquivalenceAcrossShardCountsAndSeeds).
  EXPECT_EQ(live.attacks, reference.attacks);
  EXPECT_EQ(live.family_attacks, reference.family_attacks);
  EXPECT_EQ(live.countries, reference.countries);
  EXPECT_EQ(live.intervals.summary.count, reference.intervals.summary.count);
  EXPECT_DOUBLE_EQ(live.intervals.fraction_concurrent,
                   reference.intervals.fraction_concurrent);
  EXPECT_EQ(live.attacks_in_window, reference.attacks_in_window);
  EXPECT_DOUBLE_EQ(live.distinct_targets, reference.distinct_targets);

  // The engine keeps accepting pushes after a live snapshot.
  for (std::size_t i = half; i < attacks.size(); ++i) sharded.Push(attacks[i]);
  sharded.Finish();
  EXPECT_EQ(sharded.merged().attacks_seen(), attacks.size());
}

TEST(ShardedStreamEngine, CheckpointResumeSameShardCountIsBitIdentical) {
  const auto& attacks = ::ddos::testing::SmallDataset().attacks();
  const std::size_t cut = attacks.size() / 3;

  ShardedStreamEngineConfig config;
  config.shards = 4;

  // Uninterrupted run.
  ShardedStreamEngine uninterrupted(config);
  for (const data::AttackRecord& a : attacks) uninterrupted.Push(a);
  uninterrupted.Finish();

  // Interrupted run: checkpoint at `cut`, restore, feed the tail.
  std::stringstream file;
  {
    ShardedStreamEngine first(config);
    for (std::size_t i = 0; i < cut; ++i) first.Push(attacks[i]);
    CheckpointMeta meta;
    meta.records = cut;
    first.SaveCheckpoint(file, meta);
    first.Finish();  // join workers; the checkpoint is already on "disk"
  }
  const ShardedCheckpointState state = ReadShardedCheckpoint(file);
  EXPECT_EQ(state.meta.records, cut);
  EXPECT_EQ(state.engines.size(), 4u);
  EXPECT_EQ(state.router_attacks, cut);

  ShardedStreamEngine resumed(config);
  resumed.RestoreFrom(state);
  for (std::size_t i = cut; i < attacks.size(); ++i) resumed.Push(attacks[i]);
  resumed.Finish();

  // Same shard count => every section returned to its own shard and the
  // resumed run is indistinguishable, sketches included.
  const StreamSnapshot a = resumed.Snapshot();
  const StreamSnapshot b = uninterrupted.Snapshot();
  ExpectExactFieldsIdentical(a, b);
  EXPECT_DOUBLE_EQ(a.durations.summary.median, b.durations.summary.median);
  EXPECT_DOUBLE_EQ(a.durations.p80_seconds, b.durations.p80_seconds);
  EXPECT_DOUBLE_EQ(a.intervals.summary.median, b.intervals.summary.median);
  EXPECT_DOUBLE_EQ(a.intervals.p80_seconds, b.intervals.p80_seconds);
  EXPECT_DOUBLE_EQ(a.durations.summary.mean, b.durations.summary.mean);
  EXPECT_DOUBLE_EQ(a.intervals.summary.stddev, b.intervals.summary.stddev);
  ASSERT_EQ(a.top_targets.size(), b.top_targets.size());
  for (std::size_t i = 0; i < a.top_targets.size(); ++i) {
    EXPECT_EQ(a.top_targets[i].label, b.top_targets[i].label);
    EXPECT_EQ(a.top_targets[i].count, b.top_targets[i].count);
  }
}

TEST(ShardedStreamEngine, CheckpointRestoresIntoDifferentShardCount) {
  const auto& attacks = ::ddos::testing::SmallDataset().attacks();
  const std::size_t cut = attacks.size() / 2;

  const StreamSnapshot single = SingleEngineSnapshot(attacks);

  std::stringstream file;
  {
    ShardedStreamEngineConfig config;
    config.shards = 4;
    ShardedStreamEngine first(config);
    for (std::size_t i = 0; i < cut; ++i) first.Push(attacks[i]);
    CheckpointMeta meta;
    meta.records = cut;
    first.SaveCheckpoint(file, meta);
    first.Finish();
  }

  ShardedStreamEngineConfig narrow;
  narrow.shards = 2;
  ShardedStreamEngine resumed(narrow);
  resumed.RestoreFrom(ReadShardedCheckpoint(file));
  for (std::size_t i = cut; i < attacks.size(); ++i) resumed.Push(attacks[i]);
  resumed.Finish();

  // Re-partitioning only moves pending collaboration targets between
  // shards; every additive tally still lands exactly.
  const StreamSnapshot resumed_snap = resumed.Snapshot();
  EXPECT_EQ(resumed_snap.attacks, single.attacks);
  EXPECT_EQ(resumed_snap.family_attacks, single.family_attacks);
  EXPECT_EQ(resumed_snap.countries, single.countries);
  EXPECT_EQ(resumed_snap.intervals.summary.count,
            single.intervals.summary.count);
  EXPECT_DOUBLE_EQ(resumed_snap.intervals.fraction_concurrent,
                   single.intervals.fraction_concurrent);
  EXPECT_DOUBLE_EQ(resumed_snap.durations.fraction_under_4h,
                   single.durations.fraction_under_4h);
  EXPECT_DOUBLE_EQ(resumed_snap.distinct_targets, single.distinct_targets);
  EXPECT_DOUBLE_EQ(resumed_snap.distinct_botnets, single.distinct_botnets);
}

TEST(ShardedStreamEngine, ReadCheckpointFoldsShardedFileIntoOneEngine) {
  const auto& attacks = ::ddos::testing::SmallDataset().attacks();
  std::stringstream file;
  {
    ShardedStreamEngineConfig config;
    config.shards = 3;
    ShardedStreamEngine engine(config);
    for (const data::AttackRecord& a : attacks) engine.Push(a);
    CheckpointMeta meta;
    meta.records = attacks.size();
    engine.SaveCheckpoint(file, meta);
    engine.Finish();
  }
  CheckpointMeta meta;
  StreamEngine merged = ReadCheckpoint(file, &meta);
  EXPECT_EQ(meta.records, attacks.size());
  EXPECT_EQ(merged.attacks_seen(), attacks.size());
  merged.Finish();
  const StreamSnapshot folded = merged.Snapshot();
  const StreamSnapshot single = SingleEngineSnapshot(attacks);
  EXPECT_EQ(folded.attacks, single.attacks);
  EXPECT_EQ(folded.family_attacks, single.family_attacks);
  EXPECT_EQ(folded.collab.events, single.collab.events);
}

TEST(ShardedStreamEngine, PushAfterFinishThrows) {
  ShardedStreamEngine engine;
  const auto& attacks = ::ddos::testing::SmallDataset().attacks();
  engine.Push(attacks.front());
  engine.Finish();
  EXPECT_THROW(engine.Push(attacks.front()), std::logic_error);
  EXPECT_EQ(engine.merged().attacks_seen(), 1u);
}

TEST(ShardedStreamEngine, RestoreOnUsedEngineThrows) {
  const auto& attacks = ::ddos::testing::SmallDataset().attacks();
  std::stringstream file;
  {
    ShardedStreamEngine writer;
    writer.Push(attacks.front());
    writer.SaveCheckpoint(file, CheckpointMeta{});
    writer.Finish();
  }
  const ShardedCheckpointState state = ReadShardedCheckpoint(file);
  ShardedStreamEngine used;
  used.Push(attacks.front());
  EXPECT_THROW(used.RestoreFrom(state), std::logic_error);
  used.Finish();
}

using std::chrono::milliseconds;
using std::chrono::steady_clock;

std::uint64_t TotalProcessed(const ShardedStreamEngine& engine) {
  const std::vector<std::uint64_t> counts = engine.ProcessedCounts();
  return std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
}

// Fewer records than one worker batch never trip the router's wake rule;
// the parked workers must still pick them up on their own - no barrier.
TEST(ShardedStreamEngine, IdleEngineAppliesPartialBatchWithoutBarrier) {
  const auto& attacks = ::ddos::testing::SmallDataset().attacks();
  ShardedStreamEngine engine;  // 2 shards
  std::this_thread::sleep_for(milliseconds(20));  // let the workers park
  constexpr std::size_t kRecords = 50;  // 100 tasks, < one batch per shard
  ASSERT_GE(attacks.size(), kRecords);
  for (std::size_t i = 0; i < kRecords; ++i) engine.Push(attacks[i]);

  // Each record is two tasks: the record on its botnet's shard and the
  // collaboration observation on its target's.
  const steady_clock::time_point deadline = steady_clock::now() + milliseconds(1000);
  while (TotalProcessed(engine) < 2 * kRecords &&
         steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_EQ(TotalProcessed(engine), 2 * kRecords);
  engine.Finish();
  EXPECT_EQ(engine.merged().attacks_seen(), kRecords);
}

// A barrier applies what a stalled worker left in its ring itself. The
// helper un-stalls the shard after 2 s at the latest, so an engine whose
// barrier waits for the worker fails on elapsed time instead of hanging.
TEST(ShardedStreamEngine, SnapshotDrainsStalledShardInline) {
  const auto& attacks = ::ddos::testing::SmallDataset().attacks();
  const std::size_t n = std::min<std::size_t>(attacks.size(), 400);
  StreamEngine single;
  ShardedStreamEngine sharded;  // 2 shards
  sharded.ChaosStallShard(0, true);
  std::this_thread::sleep_for(milliseconds(20));  // worker reaches the stall
  for (std::size_t i = 0; i < n; ++i) {
    single.Push(attacks[i]);
    sharded.Push(attacks[i]);
  }
  ASSERT_GT(sharded.QueueDepths()[0], 0u);

  std::promise<void> snapshot_done;
  std::thread unstaller([&sharded, done = snapshot_done.get_future()] {
    done.wait_for(std::chrono::seconds(2));
    sharded.ChaosStallShard(0, false);
  });
  const steady_clock::time_point start = steady_clock::now();
  const StreamSnapshot live = sharded.Snapshot();
  const auto elapsed = steady_clock::now() - start;
  snapshot_done.set_value();
  unstaller.join();

  EXPECT_LT(elapsed, milliseconds(1000));
  EXPECT_EQ(sharded.QueueDepths()[0], 0u);
  const StreamSnapshot reference = single.Snapshot();
  EXPECT_EQ(live.attacks, reference.attacks);
  EXPECT_EQ(live.family_attacks, reference.family_attacks);
  EXPECT_EQ(live.countries, reference.countries);
  EXPECT_EQ(live.intervals.summary.count, reference.intervals.summary.count);
  sharded.Finish();
  EXPECT_EQ(sharded.merged().attacks_seen(), n);
}

// A full ring parks the router until the worker frees space; nothing is
// lost and both the failed attempt and the park are counted.
TEST(ShardedStreamEngine, RingFullParksRouterUntilWorkerFreesSpace) {
  const auto& attacks = ::ddos::testing::SmallDataset().attacks();
  obs::MetricsRegistry metrics;
  ShardedStreamEngineConfig config;
  config.shards = 2;
  config.queue_capacity = 4;
  config.metrics = &metrics;
  ShardedStreamEngine sharded(config);
  sharded.ChaosStallShard(0, true);
  std::this_thread::sleep_for(milliseconds(20));  // worker reaches the stall
  std::thread unstaller([&sharded] {
    std::this_thread::sleep_for(milliseconds(50));
    sharded.ChaosStallShard(0, false);
  });
  for (const data::AttackRecord& a : attacks) sharded.Push(a);
  unstaller.join();
  sharded.Finish();

  ExpectExactFieldsIdentical(sharded.Snapshot(), SingleEngineSnapshot(attacks));
  const obs::MetricsSnapshot snap = metrics.Snapshot();
  const obs::Labels shard0{{"shard", "0"}};
  EXPECT_GE(snap.CounterValue("ddoscope_sharded_push_retries_total", shard0), 1u);
  EXPECT_GE(snap.CounterValue("ddoscope_sharded_backpressure_sleeps_total", shard0),
            1u);
}

TEST(ShardedStreamEngine, FinishJoinsParkedWorkersPromptly) {
  ShardedStreamEngineConfig config;
  config.shards = 4;
  ShardedStreamEngine engine(config);
  std::this_thread::sleep_for(milliseconds(20));  // every worker parks
  const steady_clock::time_point start = steady_clock::now();
  engine.Finish();
  EXPECT_LT(steady_clock::now() - start, milliseconds(500));
  EXPECT_EQ(engine.merged().attacks_seen(), 0u);
}

}  // namespace
}  // namespace ddos::stream
