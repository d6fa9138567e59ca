// Graceful drain and resume: a drain mid-feed final-ACKs the client
// (`ACK <n> drain`, its durable high-water mark), writes a checkpoint, and
// a `--resume` daemon fed the unacked tail reproduces an uninterrupted
// same-shard-count run bit-for-bit - sketches included, per the sharded
// engine's resume contract.
#include "netd/server.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "netd/client.h"
#include "stream/sharded.h"
#include "test_support.h"

namespace ddos::netd {
namespace {

NetdConfig DrainConfig(const std::string& checkpoint) {
  NetdConfig config;
  config.shards = 2;
  config.limits.ack_every = 8;
  config.checkpoint_path = checkpoint;
  return config;
}

TEST(NetdDrain, DrainCheckpointResumeEqualsUninterruptedRun) {
  const auto& attacks = ::ddos::testing::SmallDataset().attacks();
  ASSERT_GE(attacks.size(), 30u);
  const std::size_t cut = attacks.size() * 2 / 3;

  const std::string checkpoint =
      ::ddos::testing::TestTempPath("netd_drain_ckpt.bin");
  std::remove(checkpoint.c_str());

  // First daemon: drained mid-feed, after `cut` records.
  std::uint64_t acked = 0;
  {
    IngestServer server(DrainConfig(checkpoint));
    server.Bind();
    std::thread loop([&server] { server.Run(); });

    FeedClient client("127.0.0.1", server.ingest_port());
    for (std::size_t i = 0; i < cut; ++i) client.SendRecord(attacks[i]);
    // PING syncs the feed into the engine, then the drain fires while the
    // connection is still open mid-feed (no END was sent).
    ASSERT_EQ(client.Ping(), cut);
    server.RequestDrain();
    // The final `ACK <n> drain` is the durable high-water mark.
    while (!client.ReadLine().empty()) {
    }
    acked = client.last_acked();
    loop.join();

    EXPECT_EQ(acked, cut);
    EXPECT_EQ(server.accepted_records(), cut);
    EXPECT_EQ(server.FinishAndSnapshot().attacks, cut);
    ASSERT_TRUE(std::ifstream(checkpoint).good())
        << "drain must leave a final checkpoint";
  }

  // Second daemon: --resume, fed the unacked tail [acked, N).
  NetdConfig resume_config = DrainConfig(checkpoint);
  resume_config.resume = true;
  IngestServer resumed(resume_config);
  resumed.Bind();
  EXPECT_EQ(resumed.accepted_records(), cut) << "resume restores the count";
  std::thread loop([&resumed] { resumed.Run(); });

  FeedClient tail("127.0.0.1", resumed.ingest_port());
  for (std::size_t i = acked; i < attacks.size(); ++i) {
    tail.SendRecord(attacks[i]);
  }
  EXPECT_EQ(tail.End(), attacks.size() - acked);
  resumed.RequestDrain();
  loop.join();
  EXPECT_EQ(resumed.accepted_records(), attacks.size());

  // Reference: one uninterrupted sharded run over the whole trace with the
  // same shard count.
  stream::ShardedStreamEngineConfig reference_config;
  reference_config.shards = 2;
  stream::ShardedStreamEngine reference(reference_config);
  for (const data::AttackRecord& a : attacks) reference.Push(a);
  reference.Finish();

  const stream::StreamSnapshot a = resumed.FinishAndSnapshot();
  const stream::StreamSnapshot b = reference.Snapshot();
  EXPECT_EQ(a.attacks, b.attacks);
  EXPECT_EQ(a.first_start, b.first_start);
  EXPECT_EQ(a.last_start, b.last_start);
  EXPECT_EQ(a.family_attacks, b.family_attacks);
  EXPECT_EQ(a.countries, b.countries);
  EXPECT_EQ(a.intervals.summary.count, b.intervals.summary.count);
  EXPECT_DOUBLE_EQ(a.intervals.fraction_concurrent,
                   b.intervals.fraction_concurrent);
  EXPECT_EQ(a.durations.summary.count, b.durations.summary.count);
  EXPECT_DOUBLE_EQ(a.durations.fraction_under_4h, b.durations.fraction_under_4h);
  EXPECT_EQ(a.collab.events, b.collab.events);
  EXPECT_EQ(a.collab.total_participants, b.collab.total_participants);
  EXPECT_EQ(a.attacks_in_window, b.attacks_in_window);
  EXPECT_DOUBLE_EQ(a.distinct_targets, b.distinct_targets);
  EXPECT_DOUBLE_EQ(a.distinct_botnets, b.distinct_botnets);
  // Same shard count: the resumed sketches are indistinguishable too.
  EXPECT_DOUBLE_EQ(a.durations.summary.median, b.durations.summary.median);
  EXPECT_DOUBLE_EQ(a.durations.p80_seconds, b.durations.p80_seconds);
  EXPECT_DOUBLE_EQ(a.intervals.summary.median, b.intervals.summary.median);
  EXPECT_DOUBLE_EQ(a.intervals.summary.mean, b.intervals.summary.mean);
  EXPECT_DOUBLE_EQ(a.durations.summary.stddev, b.durations.summary.stddev);

  std::remove(checkpoint.c_str());
}

TEST(NetdDrain, HealthzReports503WhileDraining) {
  // A drain with no clients completes immediately; this only checks that
  // the drain leaves the server cleanly even with zero connections.
  NetdConfig config;
  IngestServer server(config);
  server.Bind();
  std::thread loop([&server] { server.Run(); });
  server.RequestDrain();
  loop.join();
  EXPECT_EQ(server.accepted_records(), 0u);
  EXPECT_EQ(server.FinishAndSnapshot().attacks, 0u);
}

TEST(NetdDrain, PeriodicCheckpointWrittenDuringFeed) {
  const auto& attacks = ::ddos::testing::SmallDataset().attacks();
  const std::string checkpoint =
      ::ddos::testing::TestTempPath("netd_periodic_ckpt.bin");
  std::remove(checkpoint.c_str());

  NetdConfig config = DrainConfig(checkpoint);
  config.checkpoint_every = 10;  // every 10 accepted records
  IngestServer server(config);
  server.Bind();
  std::thread loop([&server] { server.Run(); });

  FeedClient client("127.0.0.1", server.ingest_port());
  for (std::size_t i = 0; i < 25; ++i) client.SendRecord(attacks[i]);
  ASSERT_EQ(client.Ping(), 25u);
  // The loop writes periodic checkpoints after dispatching replies, so the
  // first PONG can race the write; a second round trip cannot - the prior
  // iteration completed (checkpoint included) before this PING was read.
  ASSERT_EQ(client.Ping(), 25u);
  EXPECT_TRUE(std::ifstream(checkpoint).good());
  client.End();
  server.RequestDrain();
  loop.join();
  EXPECT_EQ(server.accepted_records(), 25u);
  server.FinishAndSnapshot();
  std::remove(checkpoint.c_str());
}

}  // namespace
}  // namespace ddos::netd
