// Chaos end-to-end: the crash/reconnect/exactly-once contract under real
// sockets plus injected faults.
//
//  * KillResumeExactlyOnce - a resilient feed survives a kill -9
//    equivalent (RequestHardStop: no drain, no final checkpoint, no
//    journal sync) plus injected resets/short I/O; after a same-port
//    restart with --resume the engine state is bit-identical to a clean
//    sequential replay of the journal, with zero lost and zero duplicated
//    records.
//  * WatchdogStuckShard - a stalled worker degrades /healthz and raises
//    the stuck-shards gauge; recovery clears both.
//  * Slow-loris and connection-cap hardening on the HTTP port.
//  * A permanently missing server exhausts retries into a clean throw.
//
// Threading: the server loop owns the engine; the feeder thread owns its
// client; cross-thread coordination is via std::atomic flags and the
// thread-safe metrics registry - TSan-clean by construction.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/chaos.h"
#include "netd/client.h"
#include "netd/journal.h"
#include "netd/resilient_client.h"
#include "netd/server.h"
#include "obs/metrics.h"
#include "stream/sharded.h"
#include "test_support.h"

namespace ddos::netd {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

// The exact integer-backed snapshot fields; same contract as
// server_e2e_test, including collaboration (the replay retraces the
// daemon's own journal order through the same shard count).
void ExpectSnapshotsIdentical(const stream::StreamSnapshot& a,
                              const stream::StreamSnapshot& b) {
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
  EXPECT_EQ(a.durations.summary.count, b.durations.summary.count);
  EXPECT_EQ(a.collab.events, b.collab.events);
  EXPECT_EQ(a.collab.total_participants, b.collab.total_participants);
  EXPECT_EQ(a.attacks_in_window, b.attacks_in_window);
  EXPECT_DOUBLE_EQ(a.distinct_targets, b.distinct_targets);
  EXPECT_DOUBLE_EQ(a.distinct_botnets, b.distinct_botnets);
  EXPECT_DOUBLE_EQ(a.durations.summary.median, b.durations.summary.median);
  EXPECT_DOUBLE_EQ(a.intervals.summary.mean, b.intervals.summary.mean);
}

int RawConnect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  timeval tv{};
  tv.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

std::string ReadToEof(int fd) {
  std::string out;
  char buf[1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

TEST(NetdChaosE2E, KillResumeExactlyOnce) {
  const auto& attacks = ::ddos::testing::SmallDataset().attacks();
  ASSERT_GE(attacks.size(), 90u);
  const std::string journal = ::ddos::testing::TestTempPath("chaos_e2e_journal.csv");
  std::remove(journal.c_str());

  NetdConfig config;
  config.shards = 2;
  config.limits.ack_every = 8;
  config.journal_path = journal;
  config.journal_fsync = FsyncPolicy::kOff;  // kill -9 must not need fsync

  auto server = std::make_unique<IngestServer>(config);
  server->Bind();
  const std::uint16_t ingest_port = server->ingest_port();
  const std::uint16_t http_port = server->http_port();
  std::thread loop([&server] { server->Run(); });

  // Socket-seam faults only: resets/EINTR/short I/O, which the resilient
  // client must absorb. Journal faults stay off here - CommitPending
  // answers those with a connection-scoped ERR, a different contract.
  chaos::FaultScheduleConfig faults;
  faults.seed = 20260808;
  faults.short_read_rate = 0.05;
  faults.short_write_rate = 0.05;
  faults.eintr_rate = 0.02;
  faults.conn_reset_rate = 0.02;
  faults.epipe_rate = 0.02;
  faults.connect_delay_rate = 0.05;
  faults.connect_delay_ms = 5;
  chaos::ScopedChaos chaos(faults);

  obs::MetricsRegistry client_metrics;
  std::atomic<bool> half_sent{false};
  std::atomic<bool> restarted{false};
  const std::size_t half = attacks.size() / 2;

  std::uint64_t feeder_acked = 0;
  std::uint64_t feeder_reconnects = 0;
  std::uint64_t feeder_resent = 0;
  std::string feeder_error;
  std::thread feeder([&] {
    try {
      ResilientFeedOptions options;
      options.client_id = "chaos-a";
      options.max_attempts = 200;
      options.backoff_initial_ms = 2;
      options.backoff_max_ms = 50;
      options.seed = 7;
      options.window_records = 32;
      options.metrics = &client_metrics;
      ResilientFeedClient client("127.0.0.1", ingest_port, options);
      for (std::size_t i = 0; i < half; ++i) client.SendRecord(attacks[i]);
      half_sent.store(true, std::memory_order_release);
      // Hold while the daemon is murdered and restarted; the unacked tail
      // of the window carries across.
      while (!restarted.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(milliseconds(1));
      }
      for (std::size_t i = half; i < attacks.size(); ++i) {
        client.SendRecord(attacks[i]);
      }
      feeder_acked = client.Finish();
      feeder_reconnects = client.reconnects();
      feeder_resent = client.records_resent();
      EXPECT_TRUE(client.last_error().empty()) << client.last_error();
    } catch (const std::exception& e) {
      feeder_error = e.what();
    }
  });

  while (!half_sent.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  // kill -9: stop the loop with no drain, no final ACKs, no sync. Whatever
  // write(2) put in the journal is the entire surviving state.
  server->RequestHardStop();
  loop.join();
  server.reset();

  NetdConfig resumed_config = config;
  resumed_config.ingest_port = ingest_port;
  resumed_config.http_port = http_port;
  resumed_config.resume = true;
  auto server2 = std::make_unique<IngestServer>(resumed_config);
  server2->Bind();
  ASSERT_EQ(server2->ingest_port(), ingest_port);
  std::thread loop2([&server2] { server2->Run(); });
  restarted.store(true, std::memory_order_release);

  feeder.join();
  ASSERT_TRUE(feeder_error.empty()) << feeder_error;

  // Exactly-once, client view: every row acked, at least one reconnect
  // (the kill forces it), and the client's own metrics agree.
  EXPECT_EQ(feeder_acked, attacks.size());
  EXPECT_GE(feeder_reconnects, 1u);
  EXPECT_EQ(client_metrics.Snapshot().CounterValue(
                "ddoscope_feed_reconnects_total"),
            feeder_reconnects);
  EXPECT_EQ(
      client_metrics.Snapshot().CounterValue("ddoscope_feed_resent_total"),
      feeder_resent);

  server2->RequestDrain();
  loop2.join();

  // Exactly-once, server view: replayed + fresh records add up to exactly
  // the dataset, and the journal holds each ddos_id exactly once.
  EXPECT_EQ(server2->accepted_records(), attacks.size());
  EXPECT_GT(server2->replayed_records(), 0u);
  const JournalContents contents = ReadJournal(journal);
  EXPECT_FALSE(contents.torn_tail);
  ASSERT_EQ(contents.entries.size(), attacks.size());
  std::unordered_set<std::uint64_t> ids;
  for (const JournalEntry& entry : contents.entries) {
    EXPECT_TRUE(ids.insert(entry.record.ddos_id).second)
        << "duplicate ddos_id " << entry.record.ddos_id;
  }
  ASSERT_EQ(contents.session_high.size(), 1u);
  EXPECT_EQ(contents.session_high.at("chaos-a"), attacks.size());

  // Bit-identical state: a clean sequential replay of the journal through
  // the same shard count must reproduce the post-crash engine exactly.
  const stream::StreamSnapshot merged = server2->FinishAndSnapshot();
  stream::ShardedStreamEngineConfig replay_config;
  replay_config.shards = 2;
  stream::ShardedStreamEngine replay(replay_config);
  for (const JournalEntry& entry : contents.entries) {
    replay.Push(entry.record);
  }
  replay.Finish();
  ExpectSnapshotsIdentical(merged, replay.Snapshot());
  std::remove(journal.c_str());
}

TEST(NetdChaosE2E, WatchdogStuckShardDegradesHealthAndRecovers) {
  const auto& attacks = ::ddos::testing::SmallDataset().attacks();
  NetdConfig config;
  config.shards = 2;
  config.watchdog_interval_ms = 20;
  config.stuck_after_ms = 60;

  IngestServer server(config);
  server.Bind();
  std::thread loop([&server] { server.Run(); });

  // Stall shard 0, then feed enough rows that some land on it. While
  // stalled, only /healthz is polled: /status takes a barrier, which
  // applies the stalled shard's ring inline and so would clear the very
  // "depth > 0, processed frozen" state the watchdog is meant to see.
  server.engine().ChaosStallShard(0, true);
  FeedClient client("127.0.0.1", server.ingest_port());
  for (std::size_t i = 0; i < 40; ++i) client.SendRecord(attacks[i]);

  int status = 0;
  std::string body;
  const steady_clock::time_point deadline =
      steady_clock::now() + milliseconds(5000);
  while (steady_clock::now() < deadline) {
    body = HttpGet("127.0.0.1", server.http_port(), "/healthz", &status);
    if (status == 503) break;
    std::this_thread::sleep_for(milliseconds(10));
  }
  EXPECT_EQ(status, 503);
  EXPECT_NE(body.find("degraded"), std::string::npos) << body;
  const obs::MetricValue* gauge =
      nullptr;
  const obs::MetricsSnapshot snap = server.metrics().Snapshot();
  gauge = snap.Find("ddoscope_netd_stuck_shards", {});
  ASSERT_NE(gauge, nullptr);
  EXPECT_GE(gauge->gauge, 1);

  // Unstall: the worker drains, the next watchdog tick clears the flag.
  server.engine().ChaosStallShard(0, false);
  while (steady_clock::now() < deadline) {
    body = HttpGet("127.0.0.1", server.http_port(), "/healthz", &status);
    if (status == 200) break;
    std::this_thread::sleep_for(milliseconds(10));
  }
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "ok\n");

  EXPECT_EQ(client.End(), 40u);
  server.RequestDrain();
  loop.join();
  EXPECT_EQ(server.accepted_records(), 40u);
  server.FinishAndSnapshot();
}

TEST(NetdChaosE2E, SlowLorisHeaderTimeoutGets408) {
  NetdConfig config;
  config.http_header_timeout_ms = 100;

  IngestServer server(config);
  server.Bind();
  std::thread loop([&server] { server.Run(); });

  // A partial request head, then silence: the server must not hold the fd
  // open past the deadline.
  const int fd = RawConnect(server.http_port());
  const char partial[] = "GET /healthz HT";
  ASSERT_EQ(::send(fd, partial, sizeof(partial) - 1, 0),
            static_cast<ssize_t>(sizeof(partial) - 1));
  const std::string reply = ReadToEof(fd);  // server closes after the 408
  ::close(fd);
  EXPECT_NE(reply.find("408"), std::string::npos) << reply;

  // A well-behaved request afterwards still works; the timeout counter
  // recorded exactly the one abuse.
  int status = 0;
  EXPECT_EQ(HttpGet("127.0.0.1", server.http_port(), "/healthz", &status),
            "ok\n");
  EXPECT_EQ(status, 200);
  EXPECT_EQ(server.metrics().Snapshot().CounterValue(
                "ddoscope_netd_http_timeouts_total"),
            1u);

  server.RequestDrain();
  loop.join();
  server.FinishAndSnapshot();
}

TEST(NetdChaosE2E, HttpConnectionCapShedsExcess) {
  NetdConfig config;
  config.max_http_connections = 1;
  config.http_header_timeout_ms = 10000;  // the cap, not the deadline

  IngestServer server(config);
  server.Bind();
  std::thread loop([&server] { server.Run(); });

  // One idle connection occupies the whole budget; the next accept is
  // shed (closed without a response) instead of crowding out ingest fds.
  const int occupier = RawConnect(server.http_port());
  const steady_clock::time_point deadline =
      steady_clock::now() + milliseconds(5000);
  std::string reply = "x";
  while (steady_clock::now() < deadline) {
    const int fd = RawConnect(server.http_port());
    const char req[] = "GET /healthz HTTP/1.1\r\n\r\n";
    ::send(fd, req, sizeof(req) - 1, 0);
    reply = ReadToEof(fd);
    ::close(fd);
    if (reply.empty()) break;  // shed: EOF with no bytes
    std::this_thread::sleep_for(milliseconds(10));
  }
  EXPECT_TRUE(reply.empty()) << reply;
  EXPECT_GE(server.metrics().Snapshot().CounterValue(
                "ddoscope_netd_http_sheds_total"),
            1u);

  // Releasing the occupier restores service.
  ::close(occupier);
  int status = 0;
  std::string body;
  while (steady_clock::now() < deadline) {
    try {
      body = HttpGet("127.0.0.1", server.http_port(), "/healthz", &status);
      if (status == 200) break;
    } catch (const std::exception&) {
    }
    std::this_thread::sleep_for(milliseconds(10));
  }
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "ok\n");

  server.RequestDrain();
  loop.join();
  server.FinishAndSnapshot();
}

TEST(NetdChaosE2E, ExhaustedRetriesThrowWithClearMessage) {
  // Reserve a port with nothing listening behind it.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const std::uint16_t dead_port = ntohs(addr.sin_port);
  ::close(probe);

  ResilientFeedOptions options;
  options.max_attempts = 3;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 4;
  try {
    ResilientFeedClient client("127.0.0.1", dead_port, options);
    FAIL() << "expected the constructor to give up";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gave up"), std::string::npos) << what;
    EXPECT_NE(what.find("unreachable after 3 attempts"), std::string::npos)
        << what;
  }
}

}  // namespace
}  // namespace ddos::netd
