// Loopback end-to-end test of ddoscoped: three concurrent clients (one with
// a bad token, one that trips its record quota), live HTTP scrapes while a
// feed is connected, a /metrics round trip through ParsePrometheusText, and
// the replay-equivalence contract - the daemon's journal fed through one
// sequential StreamEngine reproduces the merged engine's exact fields
// bit-for-bit.
//
// Threading: the server's poll loop owns the engine (single-router SPSC
// contract); test threads touch only their own sockets, so the test is
// TSan-clean by construction.
#include "netd/server.h"

#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/csv.h"
#include "netd/client.h"
#include "netd/journal.h"
#include "obs/export.h"
#include "stream/engine.h"
#include "stream/sharded.h"
#include "test_support.h"

namespace ddos::netd {
namespace {

// The exact (integer-backed) snapshot columns must agree bit-for-bit; the
// same contract tests/stream/sharded_test.cpp holds the sharded engine to.
// Collaboration tallies are compared only when `include_collab`: their sweep
// cadence is shard-local, which single-vs-sharded equivalence only pins
// down for globally time-ordered feeds - and a multi-client daemon ingest
// interleaves client streams out of global time order by design.
void ExpectExactFieldsIdentical(const stream::StreamSnapshot& merged,
                                const stream::StreamSnapshot& replayed,
                                bool include_collab) {
  EXPECT_EQ(merged.attacks, replayed.attacks);
  EXPECT_EQ(merged.first_start, replayed.first_start);
  EXPECT_EQ(merged.last_start, replayed.last_start);
  EXPECT_EQ(merged.family_attacks, replayed.family_attacks);
  EXPECT_EQ(merged.countries, replayed.countries);
  ASSERT_EQ(merged.protocols.size(), replayed.protocols.size());
  for (std::size_t i = 0; i < merged.protocols.size(); ++i) {
    EXPECT_EQ(merged.protocols[i].protocol, replayed.protocols[i].protocol);
    EXPECT_EQ(merged.protocols[i].attacks, replayed.protocols[i].attacks);
  }
  EXPECT_EQ(merged.intervals.summary.count, replayed.intervals.summary.count);
  EXPECT_DOUBLE_EQ(merged.intervals.fraction_concurrent,
                   replayed.intervals.fraction_concurrent);
  EXPECT_DOUBLE_EQ(merged.intervals.fraction_1k_10k,
                   replayed.intervals.fraction_1k_10k);
  EXPECT_EQ(merged.durations.summary.count, replayed.durations.summary.count);
  EXPECT_DOUBLE_EQ(merged.durations.fraction_100_10000,
                   replayed.durations.fraction_100_10000);
  EXPECT_DOUBLE_EQ(merged.durations.fraction_under_4h,
                   replayed.durations.fraction_under_4h);
  if (include_collab) {
    EXPECT_EQ(merged.collab.events, replayed.collab.events);
    EXPECT_EQ(merged.collab.intra_family_events,
              replayed.collab.intra_family_events);
    EXPECT_EQ(merged.collab.inter_family_events,
              replayed.collab.inter_family_events);
    EXPECT_EQ(merged.collab.total_participants,
              replayed.collab.total_participants);
  }
  EXPECT_EQ(merged.attacks_in_window, replayed.attacks_in_window);
  EXPECT_DOUBLE_EQ(merged.distinct_targets, replayed.distinct_targets);
  EXPECT_DOUBLE_EQ(merged.distinct_botnets, replayed.distinct_botnets);
}

TEST(NetdServerE2E, ThreeClientsQuotaAuthScrapeAndReplayEquivalence) {
  const auto& attacks = ::ddos::testing::SmallDataset().attacks();
  ASSERT_GE(attacks.size(), 90u);

  const std::string journal =
      ::ddos::testing::TestTempPath("netd_e2e_journal.csv");
  std::remove(journal.c_str());

  constexpr std::uint64_t kQuota = 40;
  NetdConfig config;
  config.shards = 2;
  config.limits.ack_every = 16;
  config.auth =
      AuthTable::FromSpecList("alpha-token:alpha,gamma-token:gamma:40");
  config.journal_path = journal;

  IngestServer server(config);
  server.Bind();
  ASSERT_NE(server.ingest_port(), 0);
  ASSERT_NE(server.http_port(), 0);
  std::thread loop([&server] { server.Run(); });

  // Client B: unknown token is refused and the connection closed.
  {
    FeedClient bad("127.0.0.1", server.ingest_port());
    EXPECT_THROW(bad.Auth("wrong-token"), std::runtime_error);
  }

  // Clients A and C split the trace: A takes the even indices, C the odd
  // ones. They feed concurrently from their own threads; the daemon's
  // journal records the interleaving it actually ingested.
  std::vector<data::AttackRecord> evens, odds;
  for (std::size_t i = 0; i < attacks.size(); ++i) {
    (i % 2 == 0 ? evens : odds).push_back(attacks[i]);
  }

  FeedClient alpha("127.0.0.1", server.ingest_port());
  EXPECT_EQ(alpha.Auth("alpha-token"), "OK alpha");

  ASSERT_GT(odds.size(), kQuota);
  std::uint64_t gamma_acked = 0;
  std::string gamma_error;
  std::thread gamma_thread([&] {
    FeedClient gamma("127.0.0.1", server.ingest_port());
    gamma.Auth("gamma-token");
    // Row kQuota+1 trips the limit: the server accepts exactly kQuota
    // records, answers `ERR quota-exceeded after 40 records`, and closes.
    // The client then reads to EOF without sending again, so the verdict
    // can never be lost to a reset.
    for (std::size_t i = 0; i <= kQuota; ++i) gamma.SendRecord(odds[i]);
    while (!gamma.ReadLine().empty()) {
    }
    gamma_acked = gamma.last_acked();
    gamma_error = gamma.last_error();
  });

  for (const data::AttackRecord& a : evens) alpha.SendRecord(a);
  // PING syncs: once PONG reports every row, the engine has them all.
  EXPECT_EQ(alpha.Ping(), evens.size());
  gamma_thread.join();

  EXPECT_NE(gamma_error.find("quota-exceeded after 40 records"),
            std::string::npos)
      << gamma_error;
  // ack_every=16, so the quota client's last periodic ACK was at 32; the
  // true accepted count (40) travels in the ERR verdict.
  EXPECT_EQ(gamma_acked, 32u);

  const std::uint64_t expected = evens.size() + kQuota;

  // HTTP surface, scraped while client A is still connected.
  int status = 0;
  EXPECT_EQ(HttpGet("127.0.0.1", server.http_port(), "/healthz", &status),
            "ok\n");
  EXPECT_EQ(status, 200);

  const std::string json =
      HttpGet("127.0.0.1", server.http_port(), "/status", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(json.find("\"alpha\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"shards\""), std::string::npos);
  EXPECT_NE(json.find("\"draining\":false"), std::string::npos);

  HttpGet("127.0.0.1", server.http_port(), "/nope", &status);
  EXPECT_EQ(status, 404);

  // The /metrics text must round-trip through the repo's own parser with
  // the daemon counters intact.
  const std::string prom =
      HttpGet("127.0.0.1", server.http_port(), "/metrics", &status);
  EXPECT_EQ(status, 200);
  std::istringstream prom_in(prom);
  const obs::MetricsSnapshot scraped = obs::ParsePrometheusText(prom_in);
  EXPECT_EQ(scraped.CounterValue("ddoscope_netd_records_total"), expected);
  EXPECT_EQ(scraped.CounterValue("ddoscope_netd_auth_failures_total"), 1u);
  EXPECT_EQ(scraped.CounterValue("ddoscope_netd_quota_rejections_total"), 1u);

  EXPECT_EQ(alpha.End(), evens.size());

  server.RequestDrain();
  loop.join();

  EXPECT_EQ(server.accepted_records(), expected);
  EXPECT_GE(server.connections_seen(), 3u);  // alpha, bad, gamma (+ http)
  EXPECT_EQ(server.error_report().total(), 0u);

  // Replay equivalence. The journal holds the exact ingest order, so a
  // single-threaded replay through a same-shard-count engine retraces the
  // daemon's routing, sweep cadence, and sketches - every field must be
  // bit-identical. A plain single StreamEngine replay must agree on every
  // order-insensitive exact field too (collaboration sweeps excepted; the
  // interleaved feed is not globally time-ordered).
  const netd::JournalContents contents = netd::ReadJournal(journal);
  std::vector<data::AttackRecord> journaled;
  journaled.reserve(contents.entries.size());
  for (const netd::JournalEntry& entry : contents.entries) {
    journaled.push_back(entry.record);
  }
  EXPECT_FALSE(contents.torn_tail);
  ASSERT_EQ(journaled.size(), expected);
  const stream::StreamSnapshot merged = server.FinishAndSnapshot();

  stream::ShardedStreamEngineConfig replay_config;
  replay_config.shards = 2;
  stream::ShardedStreamEngine sharded_replay(replay_config);
  for (const data::AttackRecord& a : journaled) sharded_replay.Push(a);
  sharded_replay.Finish();
  const stream::StreamSnapshot retraced = sharded_replay.Snapshot();
  ExpectExactFieldsIdentical(merged, retraced, /*include_collab=*/true);
  EXPECT_DOUBLE_EQ(merged.durations.summary.median,
                   retraced.durations.summary.median);
  EXPECT_DOUBLE_EQ(merged.intervals.summary.mean,
                   retraced.intervals.summary.mean);

  stream::StreamEngine replay;
  for (const data::AttackRecord& a : journaled) replay.Push(a);
  replay.Finish();
  ExpectExactFieldsIdentical(merged, replay.Snapshot(),
                             /*include_collab=*/false);

  std::remove(journal.c_str());
}

TEST(NetdServerE2E, AnonymousFeedWhenAuthDisabled) {
  const auto& attacks = ::ddos::testing::SmallDataset().attacks();
  NetdConfig config;  // empty AuthTable: the `nc` path

  IngestServer server(config);
  server.Bind();
  std::thread loop([&server] { server.Run(); });

  FeedClient client("127.0.0.1", server.ingest_port());
  // No AUTH line: rows stream immediately, header tolerated.
  client.SendLine(data::AttackCsvHeader());
  for (std::size_t i = 0; i < 10; ++i) client.SendRecord(attacks[i]);
  EXPECT_EQ(client.End(), 10u);

  server.RequestDrain();
  loop.join();
  EXPECT_EQ(server.accepted_records(), 10u);
  EXPECT_EQ(server.FinishAndSnapshot().attacks, 10u);
}

TEST(NetdServerE2E, MalformedRowsCountedConnectionSurvives) {
  const auto& attacks = ::ddos::testing::SmallDataset().attacks();
  NetdConfig config;

  IngestServer server(config);
  server.Bind();
  std::thread loop([&server] { server.Run(); });

  FeedClient client("127.0.0.1", server.ingest_port());
  client.SendRecord(attacks[0]);
  client.SendLine("definitely,not,a,row");     // bad-field-count
  client.SendRecord(attacks[0]);               // duplicate ddos_id
  client.SendRecord(attacks[1]);
  EXPECT_EQ(client.End(), 2u);

  server.RequestDrain();
  loop.join();
  EXPECT_EQ(server.accepted_records(), 2u);
  EXPECT_EQ(server.error_report().count(data::IngestErrorKind::kBadFieldCount),
            1u);
  EXPECT_EQ(server.error_report().count(data::IngestErrorKind::kDuplicateId),
            1u);
  server.FinishAndSnapshot();
}

}  // namespace
}  // namespace ddos::netd
