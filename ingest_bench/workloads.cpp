#include "workloads.h"

#include <poll.h>
#include <sys/socket.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "botsim/family_profile.h"
#include "botsim/simulator.h"
#include "common/mmapio.h"
#include "core/collaboration.h"
#include "data/binrecords.h"
#include "data/csv.h"
#include "data/linescan.h"
#include "geo/geo_db.h"
#include "geo/mmdb.h"
#include "netd/journal.h"
#include "netd/server.h"
#include "netd/socket.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/checkpoint.h"
#include "stream/engine.h"
#include "stream/geo_enrich.h"
#include "stream/sharded.h"

namespace ddos::ingest_bench {
namespace {

// Every workload runs the program at two shards: with the router (or the
// daemon's poll thread) and the TCP load generator that is four threads,
// the nproc of the 4-vCPU hosts this benchmark is tuned on.
constexpr std::size_t kShards = 2;
// Generation dominates set-up and drifts with host speed, so set-up runs
// several times and its median is reported.
constexpr int kSetupRepeats = 3;
constexpr std::uint64_t kGeoSeed = 42;

// csv_watch: the defaults of `ddoscope watch F --shards 2 --checkpoint C`.
constexpr int kCsvPasses = 4;
constexpr std::uint64_t kCsvViewEvery = 5000;
constexpr std::uint64_t kCsvCheckpointEvery = 100000;
// tcp_ingest. The paced rate is a constant of the workload, never derived
// from a run: a fifth or less of the daemon's saturating rate on a 4-vCPU
// Xeon (100-230k rows/s over runs). At 50,000 rows/s the poll thread was
// 60% busy, and when neighbours on the shared host slowed it by a third the
// feed crossed the knee: median commit latency went from 0.5 ms to 10 ms.
constexpr double kPacedRowsPerSecond = 25000.0;
// Sizes the saturating phase's row count from --seconds; not a target.
constexpr double kFloodRowsPerSecond = 100000.0;
constexpr double kPacedShare = 0.6;  // of --seconds
// The saturating phase goes out in this many equal segments: eight of each
// kind in a traced run's ABBA order.
constexpr int kFloodSegments = 16;
constexpr std::size_t kConnections = 3;
constexpr std::uint64_t kAckEvery = 16;
constexpr auto kTick = std::chrono::microseconds(500);
constexpr auto kStatusEvery = std::chrono::milliseconds(40);
constexpr double kTcpDeadlineSeconds = 90.0;

// csv_watch: one push time-stamp every 64 records gives the commit
// (record-to-visible) latency samples.
constexpr std::uint64_t kCommitStampEvery = 64;
// Traced runs time one scan and one push call in 16, in line.
constexpr std::uint64_t kInlineSampleMask = 15;
// Isolated single-thread passes read at most this many input rows.
constexpr std::size_t kIsolatedRows = 200000;

volatile std::uint64_t g_sink = 0;

// Traced runs alternate untraced (A) and traced (B) passes or segments as
// A B B A A B B A ..., so a drift in host speed cancels out of the overhead.
bool TracedInAbba(int i) { return (i + 1) / 2 % 2 == 1; }

double NanosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

// ---------------------------------------------------------------------------
// Input: the paper-scale trace, lengthened by whole-window replays.

struct Trace {
  std::vector<data::AttackRecord> base;                     // one pass
  std::array<std::uint64_t, data::kFamilyCount> family{};   // per pass
  std::uint64_t collab_events = 0;                          // per pass
  std::int64_t offset_s = 0;     // time shift between passes
  std::uint64_t id_stride = 0;   // ddos_id shift between passes

  // Row i of the lengthened feed.
  data::AttackRecord Replica(std::uint64_t i) const {
    const std::uint64_t pass = i / base.size();
    data::AttackRecord r = base[i % base.size()];
    const auto shift = static_cast<std::int64_t>(pass) * offset_s;
    r.ddos_id += pass * id_stride;
    r.start_time = r.start_time + shift;
    r.end_time = r.end_time + shift;
    return r;
  }

  std::array<std::uint64_t, data::kFamilyCount> FamilyCounts(std::uint64_t rows) const {
    std::array<std::uint64_t, data::kFamilyCount> out{};
    const std::uint64_t passes = rows / base.size();
    for (std::size_t f = 0; f < out.size(); ++f) out[f] = family[f] * passes;
    for (std::uint64_t i = 0; i < rows % base.size(); ++i) {
      ++out[static_cast<std::size_t>(base[i].family)];
    }
    return out;
  }
};

// Generates the attack trace for `seed` through botsim. Hourly bot
// snapshots are switched off: no ingest path reads them, they cost about
// 80% of generation time, and the attack table is identical without them.
// *oracle_s is the time spent computing the expected tallies, which is the
// benchmark's own work and not set-up of the program.
Trace GenerateTrace(const geo::GeoDatabase& db, std::uint64_t seed,
                    double* generate_s, double* oracle_s) {
  std::vector<sim::FamilyProfile> profiles = sim::DefaultProfiles();
  for (sim::FamilyProfile& p : profiles) p.bots_per_snapshot_mean = 0;
  sim::SimConfig config;
  config.seed = seed;
  sim::TraceSimulator simulator(db, std::move(profiles), config);
  const Clock::time_point t0 = Clock::now();
  const data::Dataset dataset = simulator.Generate();
  const Clock::time_point t1 = Clock::now();
  *generate_s = SecondsBetween(t0, t1);

  Trace t;
  t.base.assign(dataset.attacks().begin(), dataset.attacks().end());
  if (t.base.empty()) throw std::runtime_error("the generator produced no attacks");
  std::uint64_t max_id = 0;
  for (const data::AttackRecord& a : t.base) {
    ++t.family[static_cast<std::size_t>(a.family)];
    max_id = std::max(max_id, a.ddos_id);
  }
  t.id_stride = max_id + 1;
  // A day more than the span from the first start to the last end: passes
  // never overlap, so no collaboration can form across a pass boundary.
  const std::int64_t span = dataset.window_end() - dataset.window_begin();
  t.offset_s = (span / kSecondsPerDay + 2) * kSecondsPerDay;
  t.collab_events = core::DetectConcurrentCollaborations(dataset).size();
  *oracle_s = SecondsBetween(t1, Clock::now());
  return t;
}

void StageCsv(const Trace& t, std::uint64_t rows, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << data::AttackCsvHeader() << '\n';
  for (std::uint64_t i = 0; i < rows; ++i) data::WriteAttackCsvRow(out, t.Replica(i));
  out.close();
  if (!out) throw std::runtime_error("short write to " + path);
}

std::string RenderCsv(const Trace& t, std::uint64_t rows) {
  std::ostringstream out;
  out << data::AttackCsvHeader() << '\n';
  for (std::uint64_t i = 0; i < rows; ++i) data::WriteAttackCsvRow(out, t.Replica(i));
  return out.str();
}

void CheckTallies(const stream::StreamSnapshot& snap, std::uint64_t records,
                  const std::array<std::uint64_t, data::kFamilyCount>& family,
                  std::uint64_t collab_events, const std::string& where,
                  std::vector<std::string>* problems) {
  if (snap.attacks != records) {
    problems->push_back(where + ": " + std::to_string(snap.attacks) +
                        " attacks in the final snapshot, expected " +
                        std::to_string(records));
  }
  for (std::size_t f = 0; f < family.size(); ++f) {
    if (snap.family_attacks[f] != family[f]) {
      problems->push_back(where + ": family " +
                          std::string(data::FamilyName(static_cast<data::Family>(f))) +
                          " has " + std::to_string(snap.family_attacks[f]) +
                          " attacks, expected " + std::to_string(family[f]));
    }
  }
  if (snap.collab.events != collab_events) {
    problems->push_back(where + ": " + std::to_string(snap.collab.events) +
                        " collaboration events, expected " +
                        std::to_string(collab_events));
  }
}

// ---------------------------------------------------------------------------
// Counters the program exports through ddos::obs.

std::uint64_t SumCounter(const obs::MetricsSnapshot& s, std::string_view name) {
  std::uint64_t total = 0;
  if (const obs::MetricFamily* f = s.FindFamily(name)) {
    for (const obs::MetricValue& v : f->values) total += v.counter;
  }
  return total;
}

struct StreamCounters {
  double push_retries_per_krec = 0, backpressure_sleeps_per_krec = 0;
  double idle_sleeps_per_krec = 0, queue_highwater_frac = 0, shard_skew = 0;
};

StreamCounters ReadStreamCounters(const obs::MetricsSnapshot& s, std::uint64_t records) {
  StreamCounters c;
  const double krec = std::max<double>(1.0, static_cast<double>(records) / 1000.0);
  c.push_retries_per_krec = static_cast<double>(SumCounter(s, "ddoscope_sharded_push_retries_total")) / krec;
  c.backpressure_sleeps_per_krec =
      static_cast<double>(SumCounter(s, "ddoscope_sharded_backpressure_sleeps_total")) / krec;
  c.idle_sleeps_per_krec =
      static_cast<double>(SumCounter(s, "ddoscope_sharded_worker_idle_sleeps_total")) / krec;
  const obs::MetricFamily* high = s.FindFamily("ddoscope_sharded_queue_highwater_slots");
  if (high != nullptr) {
    for (const obs::MetricValue& v : high->values) {
      const obs::MetricValue* cap = s.Find("ddoscope_sharded_queue_capacity_slots", v.labels);
      if (cap != nullptr && cap->gauge > 0) {
        c.queue_highwater_frac = std::max(
            c.queue_highwater_frac, static_cast<double>(v.gauge) / static_cast<double>(cap->gauge));
      }
    }
  }
  if (const obs::MetricFamily* f = s.FindFamily("ddoscope_stream_attacks_total")) {
    double sum = 0, max = 0;
    for (const obs::MetricValue& v : f->values) {
      sum += static_cast<double>(v.counter);
      max = std::max(max, static_cast<double>(v.counter));
    }
    if (sum > 0) c.shard_skew = max / (sum / static_cast<double>(f->values.size()));
  }
  return c;
}

obs::Histogram* MergeHistogram(obs::MetricsRegistry& registry) {
  // Same name, help and bounds as ShardedStreamEngine registers, so this
  // returns the engine's own cell.
  return registry.GetHistogram("ddoscope_sharded_merge_seconds",
                               "Latency of folding all shard engines into one merged view",
                               obs::ExponentialBounds(1e-5, 4.0, 12));
}

double RenderMs(const obs::MetricsRegistry& registry) {
  std::vector<double> ms;
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point t0 = Clock::now();
    g_sink = g_sink + obs::RenderPrometheusText(registry.Snapshot()).size();
    ms.push_back(MillisBetween(t0, Clock::now()));
  }
  return Median(ms);
}

// ---------------------------------------------------------------------------
// Isolated single-thread passes over the workload's own input.

struct Isolated {
  double scan_ns = 0, prescan_ns = 0, parse_ns = 0, bin_decode_ns = 0;
  double lookup_ns = 0, enrich_ns = 0, apply_ns = 0, route_ns = 0;
  double checkpoint_ms = 0, open_ms = 0, bind_ms = 0, single_rps = 0;
};

// The geo metrics compile a database into `dir` and open it here: no
// declared workload enriches, so none has a mapping of its own.
Isolated RunIsolated(const Trace& trace, std::uint64_t rows, const std::string& dir,
                     obs::TraceRecorder* recorder) {
  Isolated iso;
  const std::uint64_t n = std::min<std::uint64_t>(rows, kIsolatedRows);
  const std::string text = RenderCsv(trace, n);

  std::vector<std::string_view> lines;
  lines.reserve(n + 1);
  {
    obs::SpanTimer span(recorder, "iso_scan", "isolated");
    data::LineSpanScanner scanner(text);
    data::LineSpan s;
    const Clock::time_point t0 = Clock::now();
    while (scanner.Next(&s)) lines.push_back(s.text);
    iso.scan_ns = NanosBetween(t0, Clock::now()) / static_cast<double>(lines.size());
  }
  lines.erase(lines.begin());  // header
  data::IngestError err;
  {
    obs::SpanTimer span(recorder, "iso_prescan", "isolated");
    data::AttackLinePreScanner prescanner;
    data::AttackLinePreScan out;
    std::uint64_t ok = 0;
    const Clock::time_point t0 = Clock::now();
    for (std::string_view line : lines) ok += prescanner.Scan(line, &out, &err) ? 1 : 0;
    iso.prescan_ns = NanosBetween(t0, Clock::now()) / static_cast<double>(lines.size());
    if (ok != lines.size()) throw std::runtime_error("pre-scan rejected a generated row");
  }
  std::vector<data::AttackRecord> records(lines.size());
  {
    obs::SpanTimer span(recorder, "iso_parse", "isolated");
    data::AttackRecord scratch;
    std::uint64_t ok = 0;
    const Clock::time_point t0 = Clock::now();
    for (std::string_view line : lines) ok += data::TryParseAttackLine(line, &scratch, &err) ? 1 : 0;
    iso.parse_ns = NanosBetween(t0, Clock::now()) / static_cast<double>(lines.size());
    if (ok != lines.size()) throw std::runtime_error("parse rejected a generated row");
    for (std::size_t i = 0; i < lines.size(); ++i) {
      data::TryParseAttackLine(lines[i], &records[i], &err);
    }
  }
  {
    std::stringstream bin;
    {
      data::BinaryRecordWriter writer(bin);
      for (const data::AttackRecord& r : records) writer.Write(r);
      writer.Close();
    }
    obs::SpanTimer span(recorder, "iso_bin_decode", "isolated");
    data::BinaryRecordReader reader(bin);
    data::AttackRecord r;
    std::uint64_t count = 0;
    const Clock::time_point t0 = Clock::now();
    while (reader.Next(&r)) ++count;
    iso.bin_decode_ns = NanosBetween(t0, Clock::now()) / static_cast<double>(count);
  }

  geo::GeoMmdb mmdb;
  {
    const std::string path = dir + "/isolated_geo.mmdb";
    geo::CompileGeoDatabase(geo::GeoDatabase::MakeDefault(kGeoSeed), path);
    std::vector<double> open_ms;
    for (int i = 0; i < 3; ++i) {
      const Clock::time_point t0 = Clock::now();
      mmdb = geo::GeoMmdb::Open(path);
      open_ms.push_back(MillisBetween(t0, Clock::now()));
    }
    iso.open_ms = Median(open_ms);
  }
  {
    obs::SpanTimer span(recorder, "iso_geo_lookup", "isolated");
    std::uint64_t allocated = 0;
    const Clock::time_point t0 = Clock::now();
    for (const data::AttackRecord& r : records) {
      bool a = false;
      g_sink = g_sink + mmdb.Lookup(r.target_ip, &a).asn.value();
      allocated += a ? 1 : 0;
    }
    iso.lookup_ns = NanosBetween(t0, Clock::now()) / static_cast<double>(records.size());
    g_sink = g_sink + allocated;
  }
  {
    obs::SpanTimer span(recorder, "iso_geo_enrich", "isolated");
    stream::GeoEnricher enricher(&mmdb);
    const Clock::time_point t0 = Clock::now();
    for (const data::AttackRecord& r : records) enricher.Enrich(r);
    iso.enrich_ns = NanosBetween(t0, Clock::now()) / static_cast<double>(records.size());
    g_sink = g_sink + enricher.enriched();
  }
  {
    obs::SpanTimer span(recorder, "iso_apply", "isolated");
    stream::StreamEngine engine;
    const Clock::time_point t0 = Clock::now();
    for (const data::AttackRecord& r : records) engine.Push(r);
    iso.apply_ns = NanosBetween(t0, Clock::now()) / static_cast<double>(records.size());
    g_sink = g_sink + engine.attacks_seen();
  }
  {
    obs::SpanTimer span(recorder, "iso_route_checkpoint", "isolated");
    stream::ShardedStreamEngineConfig config;
    config.shards = kShards;
    stream::ShardedStreamEngine engine(config);
    const Clock::time_point t0 = Clock::now();
    for (const data::AttackRecord& r : records) engine.Push(r);
    iso.route_ns = NanosBetween(t0, Clock::now()) / static_cast<double>(records.size());
    stream::CheckpointMeta meta;
    meta.records = records.size();
    const Clock::time_point c0 = Clock::now();
    engine.SaveCheckpoint(dir + "/isolated.ckpt", meta);
    iso.checkpoint_ms = MillisBetween(c0, Clock::now());
    engine.Finish();
  }
  {
    // The same rows through AttackCsvReader into one StreamEngine.
    obs::SpanTimer span(recorder, "iso_single_thread", "isolated");
    std::istringstream in(text);
    data::AttackCsvReader reader(in);
    stream::StreamEngine engine;
    data::AttackRecord r;
    std::uint64_t count = 0;
    const Clock::time_point t0 = Clock::now();
    while (reader.Next(&r)) {
      engine.Push(r);
      ++count;
    }
    engine.Finish();
    iso.single_rps = static_cast<double>(count) / SecondsBetween(t0, Clock::now());
  }
  {
    netd::NetdConfig config;
    config.shards = kShards;
    const Clock::time_point t0 = Clock::now();
    netd::IngestServer server(config);
    server.Bind();
    iso.bind_ms = MillisBetween(t0, Clock::now());
  }
  return iso;
}

// With no daemon to feed, the generator metrics of csv_watch describe
// the open-loop scheduler alone, on an idle 1,200-tick schedule.
void ProbeScheduler(double* late_ms_p99, double* cpu_frac) {
  const int me = ThisThreadId();
  const Clock::time_point start = Clock::now();
  OpenLoopSchedule schedule(1.0, kTick, start);
  const double cpu0 = ThreadCpuSeconds(me);
  for (std::uint64_t k = 1; k <= 1200; ++k) {
    const auto due = schedule.TickTime(k).time_since_epoch();
    const auto secs = std::chrono::duration_cast<std::chrono::seconds>(due);
    timespec ts{};
    ts.tv_sec = secs.count();
    ts.tv_nsec = std::chrono::duration_cast<std::chrono::nanoseconds>(due - secs).count();
    ::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
    schedule.NoteWake(k, Clock::now());
  }
  *late_ms_p99 = Percentile(schedule.lateness_ms(), 0.99);
  *cpu_frac = (ThreadCpuSeconds(me) - cpu0) / SecondsBetween(start, Clock::now());
}

void AddIsolatedMetrics(const Isolated& iso, std::vector<Metric>* m) {
  m->push_back({"data.prescan_ns_per_line", iso.prescan_ns, "ns"});
  m->push_back({"data.parse_ns_per_line", iso.parse_ns, "ns"});
  m->push_back({"geo.lookup_ns", iso.lookup_ns, "ns"});
  m->push_back({"geo.enrich_ns_per_record", iso.enrich_ns, "ns"});
  m->push_back({"stream.apply_ns_per_record", iso.apply_ns, "ns"});
  m->push_back({"stream.single_thread_records_per_s", iso.single_rps, "1/s"});
}

void WriteTrace(const obs::TraceRecorder& recorder, const Options& o, Report* report) {
  const std::string path = o.work_dir + "/trace_" + o.workload + "_seed" +
                           std::to_string(o.seed) + ".json";
  recorder.WriteChromeTrace(path);
  report->notes.push_back("chrome trace: " + path + " (" +
                          std::to_string(recorder.recorded()) + " spans, " +
                          std::to_string(recorder.dropped()) + " dropped)");
}

// ---------------------------------------------------------------------------
// csv_watch: what `ddoscope watch F --shards 2 --checkpoint C` does.

struct RepPlan {
  std::uint64_t expected_records = 0;
  std::string checkpoint_path;
  bool traced = false;
  obs::TraceRecorder* recorder = nullptr;
  obs::Histogram* merge = nullptr;  // traced only
  std::vector<int> worker_tids;
};

// One pass over the staged input, first push until Finish() returns.
struct FileRep {
  std::uint64_t records = 0;
  double wall_s = 0, cpu_s = 0, rss_growth_mib = 0, finish_ms = 0;
  std::vector<double> view_ms, commit_ms, merge_ms, checkpoint_ms;
  double read_ns = 0, push_ns = 0;  // traced in-line samples
  std::uint64_t sampled = 0;
  double router_cpu_s = 0, worker_cpu_s = 0, busy_wall_s = 0;
  double timed_s = 0;  // router time inside timed calls other than read/push
  std::size_t state_bytes = 0;  // merged engine after Finish()
};

// Whether `reps` are enough to report from: three passes, and the 100 views
// a p90 needs.
bool Enough(const std::vector<FileRep>& reps) {
  std::size_t views = 0;
  for (const FileRep& r : reps) views += r.view_ms.size();
  return reps.size() >= 3 && SamplesBeyond(views, 0.9) >= 10;
}

// Resets the kernel's peak-RSS mark, so that peak_rss_growth_mib covers the
// measured region only and never set-up.
void ResetPeakRssOrThrow() {
  if (!ResetPeakRss()) {
    throw std::runtime_error("cannot reset the peak RSS mark through /proc/self/clear_refs");
  }
}

FileRep RunFileRep(std::string_view bytes, stream::ShardedStreamEngine& engine,
                   const RepPlan& plan) {
  FileRep rep;
  // The harness's own sample buffers are sized and touched up front, so the
  // memory growth measured below is the program's.
  const auto presize = [](auto& v, std::uint64_t n) {
    v.assign(n, {});
    v.clear();
  };
  std::vector<Clock::time_point> stamps;
  presize(stamps, kCsvViewEvery / kCommitStampEvery + 1);
  presize(rep.view_ms, plan.expected_records / kCsvViewEvery + 1);
  presize(rep.merge_ms, plan.expected_records / kCsvViewEvery + 1);
  presize(rep.commit_ms, plan.expected_records / kCommitStampEvery + 1);
  presize(rep.checkpoint_ms, plan.expected_records / kCsvCheckpointEvery + 1);
  const auto publish = [&](Clock::time_point visible) {
    for (const Clock::time_point s : stamps) rep.commit_ms.push_back(MillisBetween(s, visible));
    stamps.clear();
  };
  data::LineSpanScanner scanner(bytes);
  data::LineSpan span;
  scanner.Next(&span);  // header
  const int router = ThisThreadId();
  std::vector<double> worker0;
  for (int tid : plan.worker_tids) worker0.push_back(ThreadCpuSeconds(tid));
  const double router0 = ThreadCpuSeconds(router);
  ResetPeakRssOrThrow();
  const double rss0 = ReadRss().current;
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point t0 = Clock::now();
  std::uint64_t n = 0;
  for (;;) {
    const bool sample = plan.traced && (n & kInlineSampleMask) == kInlineSampleMask;
    Clock::time_point a{}, b{};
    if (sample) a = Clock::now();
    if (!scanner.Next(&span)) break;
    if (sample) b = Clock::now();
    engine.PushLine(span.text, span.line_no, span.saw_newline);
    if (sample) {
      const Clock::time_point c = Clock::now();
      rep.read_ns += NanosBetween(a, b);
      rep.push_ns += NanosBetween(b, c);
      ++rep.sampled;
    }
    ++n;
    if (n % kCommitStampEvery == 0) stamps.push_back(Clock::now());
    if (n % kCsvViewEvery == 0) {
      obs::SpanTimer timer(plan.recorder, "live_view", "bench");
      const double merge0 = plan.merge != nullptr ? plan.merge->Sum() : 0.0;
      const Clock::time_point v0 = Clock::now();
      const stream::StreamSnapshot snap = engine.Snapshot();
      const Clock::time_point v1 = Clock::now();
      g_sink = g_sink + snap.attacks;
      rep.view_ms.push_back(MillisBetween(v0, v1));
      if (plan.merge != nullptr) rep.merge_ms.push_back((plan.merge->Sum() - merge0) * 1e3);
      rep.timed_s += SecondsBetween(v0, v1);
      publish(v1);
    }
    if (n % kCsvCheckpointEvery == 0) {
      obs::SpanTimer timer(plan.recorder, "checkpoint", "bench");
      stream::CheckpointMeta meta;
      meta.records = n;
      meta.source_line = span.line_no;
      meta.source_offset = scanner.offset();
      const Clock::time_point c0 = Clock::now();
      engine.SaveCheckpoint(plan.checkpoint_path, meta);
      const Clock::time_point c1 = Clock::now();
      rep.checkpoint_ms.push_back(MillisBetween(c0, c1));
      rep.timed_s += SecondsBetween(c0, c1);
    }
  }
  // Workers exit inside Finish(), so their clocks are read before it.
  const Clock::time_point busy_end = Clock::now();
  for (std::size_t i = 0; i < plan.worker_tids.size(); ++i) {
    rep.worker_cpu_s += ThreadCpuSeconds(plan.worker_tids[i]) - worker0[i];
  }
  rep.router_cpu_s = ThreadCpuSeconds(router) - router0;
  rep.busy_wall_s = SecondsBetween(t0, busy_end);
  {
    obs::SpanTimer timer(plan.recorder, "finish", "bench");
    const Clock::time_point f0 = Clock::now();
    engine.Finish();
    const Clock::time_point f1 = Clock::now();
    rep.finish_ms = MillisBetween(f0, f1);
    rep.timed_s += SecondsBetween(f0, f1);
    publish(f1);
    rep.wall_s = SecondsBetween(t0, f1);
  }
  rep.cpu_s = ProcessCpuSeconds() - cpu0;
  rep.records = n;
  rep.rss_growth_mib = ReadRss().peak - rss0;
  return rep;
}

std::unique_ptr<stream::ShardedStreamEngine> MakeEngine(
    const stream::ShardedStreamEngineConfig& config, std::vector<int>* worker_tids) {
  const std::vector<int> before = ListThreadIds();
  auto engine = std::make_unique<stream::ShardedStreamEngine>(config);
  *worker_tids = NewThreadIds(before, ListThreadIds());
  return engine;
}

template <typename F>
std::vector<double> Collect(const std::vector<FileRep>& reps, F&& f) {
  std::vector<double> out;
  for (const FileRep& r : reps) f(r, &out);
  return out;
}

// Share of the machine's CPU time the hypervisor stole since `before`, as a
// note: a diagnostic of the host, like host.ref_ms, never used to leave
// samples out or rescale a metric.
std::string StealNote(const HostCpuTimes& before, const std::string& region) {
  char share[32];
  std::snprintf(share, sizeof share, "%.1f%%", StealShare(before, ReadHostCpuTimes()) * 100.0);
  return std::string("host steal during ") + region + ": " + share;
}

Report RunCsvWatch(const Options& o) {
  Report report;
  const std::string input = o.work_dir + "/input.csv";
  const std::string checkpoint_path = o.work_dir + "/watch.ckpt";

  std::vector<double> setup_s, generate_s, stage_s;
  Trace trace;
  std::uint64_t records = 0;
  io::MmapFile csv;
  stream::ShardedStreamEngineConfig config;
  config.shards = kShards;
  std::unique_ptr<stream::ShardedStreamEngine> engine;
  std::vector<int> worker_tids;
  for (int r = 0; r < kSetupRepeats; ++r) {
    engine.reset();
    const Clock::time_point t0 = Clock::now();
    double gen = 0, oracle = 0;
    trace = GenerateTrace(geo::GeoDatabase::MakeDefault(kGeoSeed), o.seed, &gen, &oracle);
    records = trace.base.size() * static_cast<std::uint64_t>(kCsvPasses);
    const Clock::time_point s0 = Clock::now();
    StageCsv(trace, records, input);
    const Clock::time_point s1 = Clock::now();
    // Fault the mapped input in once, so that no pass, the first included,
    // counts its pages as memory growth.
    csv = io::MmapFile::Open(input);
    for (std::size_t i = 0; i < csv.size(); i += 4096) g_sink = g_sink + csv.view()[i];
    engine = MakeEngine(config, &worker_tids);
    setup_s.push_back(SecondsBetween(t0, Clock::now()) - oracle);
    generate_s.push_back(gen);
    stage_s.push_back(SecondsBetween(s0, s1));
  }
  const auto family = trace.FamilyCounts(records);
  const std::uint64_t passes = records / trace.base.size();

  obs::MetricsRegistry registry;
  obs::TraceRecorder recorder(1 << 18);
  stream::ShardedStreamEngineConfig traced_config = config;
  traced_config.metrics = &registry;
  traced_config.trace = &recorder;

  // Passes repeat until --seconds have elapsed, at least three of each kind
  // (with --trace 1, untraced and traced in ABBA order).
  std::vector<FileRep> plain, traced;
  std::uint64_t traced_records = 0;
  const HostCpuTimes host0 = ReadHostCpuTimes();
  const Clock::time_point run_start = Clock::now();
  for (int i = 0;; ++i) {
    const bool traced_rep = o.trace && TracedInAbba(i);
    if (!engine) engine = MakeEngine(traced_rep ? traced_config : config, &worker_tids);
    RepPlan plan;
    plan.expected_records = records;
    plan.checkpoint_path = checkpoint_path;
    plan.traced = traced_rep;
    plan.recorder = traced_rep ? &recorder : nullptr;
    plan.merge = traced_rep ? MergeHistogram(registry) : nullptr;
    plan.worker_tids = worker_tids;
    FileRep rep = RunFileRep(csv.view(), *engine, plan);
    CheckTallies(engine->merged().Snapshot(), records, family,
                 trace.collab_events * passes, o.workload + " pass " + std::to_string(i),
                 &report.problems);
    if (engine->ApproxErrorTotal() != 0) {
      report.problems.push_back(std::to_string(engine->ApproxErrorTotal()) + " rows rejected");
    }
    report.attempted += records;
    report.failed += engine->ApproxErrorTotal() +
                     (rep.records > engine->merged().attacks_seen()
                          ? rep.records - engine->merged().attacks_seen()
                          : 0);
    rep.state_bytes = engine->merged().ApproxMemoryBytes();
    if (traced_rep) traced_records += rep.records;
    (traced_rep ? traced : plain).push_back(std::move(rep));
    engine.reset();
    const bool enough = Enough(plain) && (!o.trace || Enough(traced));
    if (enough && SecondsBetween(run_start, Clock::now()) >= o.seconds) break;
  }
  report.notes.push_back(StealNote(host0, "the passes"));

  const auto rps = [](const FileRep& r, std::vector<double>* v) {
    v->push_back(static_cast<double>(r.records) / r.wall_s);
  };
  std::vector<Metric>& m = report.metrics;
  if (!o.trace) {
    const std::vector<double> views = Collect(plain, [](const FileRep& r, std::vector<double>* v) {
      v->insert(v->end(), r.view_ms.begin(), r.view_ms.end());
    });
    const std::vector<double> commits = Collect(plain, [](const FileRep& r, std::vector<double>* v) {
      v->insert(v->end(), r.commit_ms.begin(), r.commit_ms.end());
    });
    m.push_back({"setup_s", Median(setup_s), "s"});
    m.push_back({"records_per_s", Median(Collect(plain, rps)), "1/s"});
    m.push_back({"cpu_us_per_record",
                 Median(Collect(plain, [](const FileRep& r, std::vector<double>* v) {
                   v->push_back(r.cpu_s * 1e6 / static_cast<double>(r.records));
                 })),
                 "us"});
    // The first pass allocates as a fresh `ddoscope watch` process does;
    // later passes reuse heap the allocator kept, and their growth drifted
    // from 1.09 to 0.70 MiB within one run while first passes read
    // 0.69-0.76 MiB over six seeds.
    m.push_back({"peak_rss_growth_mib", plain.front().rss_growth_mib, "MiB"});
    m.push_back({"view_ms_p50", Percentile(views, 0.50), "ms"});
    m.push_back({"view_ms_p90", Percentile(views, 0.90), "ms"});
    m.push_back({"commit_ms_p50", Percentile(commits, 0.50), "ms"});
    m.push_back({"commit_ms_p90", Percentile(commits, 0.90), "ms"});
    report.notes.push_back(std::to_string(plain.size()) + " passes of " + std::to_string(records) +
                           " records; " + std::to_string(views.size()) + " views, " +
                           std::to_string(commits.size()) + " commit samples");
    return report;
  }

  // --- traced run: per-layer metrics ---------------------------------------
  const double traced_rps = Median(Collect(traced, rps));
  const double plain_rps = Median(Collect(plain, rps));
  std::vector<double> merge_ms, wait_ms, checkpoint_ms, finish_ms, router_busy, worker_busy,
      unaccounted, read_ns, push_ns;
  for (const FileRep& r : traced) {
    for (std::size_t k = 0; k < r.view_ms.size(); ++k) {
      merge_ms.push_back(r.merge_ms[k]);
      wait_ms.push_back(r.view_ms[k] - r.merge_ms[k]);
    }
    checkpoint_ms.insert(checkpoint_ms.end(), r.checkpoint_ms.begin(), r.checkpoint_ms.end());
    finish_ms.push_back(r.finish_ms);
    router_busy.push_back(r.router_cpu_s / r.busy_wall_s);
    worker_busy.push_back(r.worker_cpu_s / static_cast<double>(kShards) / r.busy_wall_s);
    const double per_call = static_cast<double>(r.records) / static_cast<double>(r.sampled);
    const double inline_s = (r.read_ns + r.push_ns) * per_call * 1e-9;
    unaccounted.push_back(1.0 - (inline_s + r.timed_s) / r.wall_s);
    read_ns.push_back(r.read_ns / static_cast<double>(r.sampled));
    push_ns.push_back(r.push_ns / static_cast<double>(r.sampled));
  }
  const StreamCounters counters = ReadStreamCounters(registry.Snapshot(), traced_records);
  const Isolated iso = RunIsolated(trace, records, o.work_dir, &recorder);
  double late_p99 = 0, gen_cpu = 0;
  ProbeScheduler(&late_p99, &gen_cpu);

  m.push_back({"botsim.generate_s", Median(generate_s), "s"});
  m.push_back({"data.stage_s", Median(stage_s), "s"});
  m.push_back({"data.scan_ns_per_line", Median(read_ns), "ns"});
  m.push_back({"data.bin_decode_ns_per_record", iso.bin_decode_ns, "ns"});
  m.push_back({"geo.open_ms", iso.open_ms, "ms"});
  m.push_back({"stream.route_ns_per_record", Median(push_ns), "ns"});
  AddIsolatedMetrics(iso, &m);
  m.push_back({"stream.push_retries_per_krec", counters.push_retries_per_krec, "1/krec"});
  m.push_back({"stream.backpressure_sleeps_per_krec", counters.backpressure_sleeps_per_krec, "1/krec"});
  m.push_back({"stream.idle_sleeps_per_krec", counters.idle_sleeps_per_krec, "1/krec"});
  m.push_back({"stream.queue_highwater_frac", counters.queue_highwater_frac, "ratio"});
  m.push_back({"stream.shard_skew", counters.shard_skew, "ratio"});
  m.push_back({"stream.router_busy_frac", Median(router_busy), "ratio"});
  m.push_back({"stream.worker_busy_frac", Median(worker_busy), "ratio"});
  m.push_back({"stream.view_merge_ms_p50", Percentile(merge_ms, 0.5), "ms"});
  m.push_back({"stream.view_wait_ms_p50", Percentile(wait_ms, 0.5), "ms"});
  m.push_back({"stream.checkpoint_ms_p50", Median(checkpoint_ms), "ms"});
  m.push_back({"stream.finish_ms", Median(finish_ms), "ms"});
  m.push_back({"stream.state_kib", static_cast<double>(traced.back().state_bytes) / 1024.0, "KiB"});
  m.push_back({"stream.router_unaccounted_frac", Median(unaccounted), "ratio"});
  m.push_back({"netd.bind_ms", iso.bind_ms, "ms"});
  m.push_back({"netd.loop_busy_frac_paced", 0.0, "ratio"});
  m.push_back({"netd.loop_busy_frac_flood", 0.0, "ratio"});
  m.push_back({"netd.flood_records_per_s", 0.0, "1/s"});
  m.push_back({"netd.bytes_in_per_record", 0.0, "B/record"});
  m.push_back({"netd.journal_bytes_per_record", 0.0, "B/record"});
  m.push_back({"obs.render_ms", RenderMs(registry), "ms"});
  m.push_back({"obs.trace_overhead_pct", (plain_rps / traced_rps - 1.0) * 100.0, "%"});
  m.push_back({"gen.late_ms_p99", late_p99, "ms"});
  m.push_back({"gen.cpu_frac", gen_cpu, "ratio"});
  report.notes.push_back(std::to_string(plain.size()) + " untraced and " +
                         std::to_string(traced.size()) + " traced passes of " +
                         std::to_string(records) + " records");
  report.notes.push_back(std::string("isolated over the first ") +
                         std::to_string(std::min<std::uint64_t>(records, kIsolatedRows)) +
                         " rows: prescan, parse, bin decode, geo open/lookup/enrich, apply,"
                         " single-thread ingest, netd bind; netd.* loop and byte metrics are 0:"
                         " no daemon on this path; gen.* come from an idle scheduler probe");
  WriteTrace(recorder, o, &report);
  return report;
}

// ---------------------------------------------------------------------------
// tcp_ingest: in-process daemon, one open-loop generator thread.

struct FeedConn {
  netd::FdHandle fd;
  std::string bytes;               // pre-rendered rows, then "END\n"
  std::vector<std::size_t> ends;   // ends[k]: byte end of the (k+1)-th row
  std::size_t sent = 0;
  std::string in;                  // reply bytes not yet split into lines
  std::uint64_t acked = 0;
  bool end_acked = false;
  std::uint64_t end_value = 0;
  std::string error;
};

bool SendUpTo(FeedConn& c, std::size_t target) {
  while (c.sent < target) {
    const ssize_t n = ::send(c.fd.get(), c.bytes.data() + c.sent, target - c.sent,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      c.sent += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    }
  }
  return true;
}

template <typename OnAck>
void ReadReplies(FeedConn& c, OnAck&& on_ack) {
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(c.fd.get(), buf, sizeof buf, MSG_DONTWAIT);
    if (n > 0) {
      c.in.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;
  }
  std::size_t pos = 0;
  for (std::size_t nl; (nl = c.in.find('\n', pos)) != std::string::npos; pos = nl + 1) {
    const std::string_view line(c.in.data() + pos, nl - pos);
    if (line.starts_with("ACK ")) {
      std::uint64_t value = 0;
      std::from_chars(line.data() + 4, line.data() + line.size(), value);
      if (line.ends_with(" end")) {
        c.end_acked = true;
        c.end_value = value;
      } else if (!line.ends_with(" drain")) {
        c.acked = value;
        on_ack(value);
      }
    } else if (line.starts_with("ERR")) {
      c.error = std::string(line);
    }
  }
  c.in.erase(0, pos);
}

// One GET /status in flight on the HTTP connection; the daemon closes the
// connection after each response.
struct StatusProbe {
  netd::FdHandle fd;
  std::string response;
  Clock::time_point sent{};
  double merge0 = 0;
  bool active = false;
};

timespec Timespec(Clock::duration d) {
  if (d < Clock::duration::zero()) d = Clock::duration::zero();
  const auto secs = std::chrono::duration_cast<std::chrono::seconds>(d);
  timespec ts{};
  ts.tv_sec = secs.count();
  ts.tv_nsec = std::chrono::duration_cast<std::chrono::nanoseconds>(d - secs).count();
  return ts;
}

// Rows of the first `due` global rows that land on connection `c`.
std::uint64_t RowsOnConn(std::uint64_t due, std::size_t c) {
  return due > c ? (due - c + kConnections - 1) / kConnections : 0;
}

Report RunTcpIngest(const Options& o) {
  Report report;
  const std::string journal_path = o.work_dir + "/journal.csv";
  const std::uint64_t paced_rows =
      static_cast<std::uint64_t>(kPacedRowsPerSecond * kPacedShare * o.seconds);
  const std::uint64_t flood_rows =
      static_cast<std::uint64_t>(kFloodRowsPerSecond * (1.0 - kPacedShare) * o.seconds);
  const std::uint64_t total_rows = paced_rows + flood_rows;

  netd::NetdConfig config;
  config.shards = kShards;
  config.limits.ack_every = kAckEvery;
  config.journal_path = journal_path;
  // The journal lives in the checkout, which may sit on a virtual disk; with
  // fsync on, disk latency rather than the program would set the commit
  // tail. Journal writes themselves stay on the commit path.
  config.journal_fsync = netd::FsyncPolicy::kOff;
  config.checkpoint_path = o.work_dir + "/netd.ckpt";

  std::vector<double> setup_s, generate_s, stage_s, bind_ms;
  Trace trace;
  std::vector<FeedConn> conns(kConnections);
  std::unique_ptr<netd::IngestServer> server;
  std::vector<int> worker_tids;
  for (int r = 0; r < kSetupRepeats; ++r) {
    server.reset();
    conns.clear();
    conns.resize(kConnections);
    const Clock::time_point t0 = Clock::now();
    double gen = 0, oracle = 0;
    trace = GenerateTrace(geo::GeoDatabase::MakeDefault(kGeoSeed), o.seed, &gen, &oracle);
    const Clock::time_point s0 = Clock::now();
    std::array<std::ostringstream, kConnections> rendered;
    for (std::uint64_t i = 0; i < total_rows; ++i) {
      const std::size_t c = i % kConnections;
      data::WriteAttackCsvRow(rendered[c], trace.Replica(i));
      conns[c].ends.push_back(static_cast<std::size_t>(rendered[c].tellp()));
    }
    for (std::size_t c = 0; c < kConnections; ++c) conns[c].bytes = rendered[c].str() + "END\n";
    const Clock::time_point s1 = Clock::now();
    const std::vector<int> before = ListThreadIds();
    server = std::make_unique<netd::IngestServer>(config);
    server->Bind();
    worker_tids = NewThreadIds(before, ListThreadIds());
    const Clock::time_point b1 = Clock::now();
    setup_s.push_back(SecondsBetween(t0, b1) - oracle);
    generate_s.push_back(gen);
    stage_s.push_back(SecondsBetween(s0, s1));
    bind_ms.push_back(MillisBetween(s1, b1));
  }
  const auto family = trace.FamilyCounts(total_rows);
  obs::Histogram* merge = MergeHistogram(server->metrics());
  obs::TraceRecorder recorder(1 << 16);
  obs::TraceRecorder* rec = o.trace ? &recorder : nullptr;

  std::atomic<int> loop_tid{0};
  std::exception_ptr loop_error;
  std::thread loop([&] {
    loop_tid = ThisThreadId();
    try {
      server->Run();
    } catch (...) {
      loop_error = std::current_exception();
    }
  });
  // Joins the daemon thread on every exit path, after asking it to drain.
  struct LoopGuard {
    netd::IngestServer& server;
    std::thread& loop;
    ~LoopGuard() {
      if (loop.joinable()) {
        server.RequestDrain();
        loop.join();
      }
    }
  } guard{*server, loop};
  for (FeedConn& c : conns) {
    c.fd = netd::Connect("127.0.0.1", server->ingest_port());
    netd::SetNoDelay(c.fd.get());
    netd::SetNonBlocking(c.fd.get());
  }
  while (loop_tid == 0) std::this_thread::yield();
  const int gen_tid = ThisThreadId();
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kTcpDeadlineSeconds));


  // --- paced phase ----------------------------------------------------------
  std::vector<double> commit_ms, view_ms, view_merge_ms;
  std::uint64_t http_sent = 0, http_failed = 0, status_skipped = 0;
  StatusProbe probe;
  std::vector<std::size_t> paced_target(kConnections);
  for (std::size_t c = 0; c < kConnections; ++c) {
    const std::uint64_t rows = RowsOnConn(paced_rows, c);
    paced_target[c] = rows == 0 ? 0 : conns[c].ends[rows - 1];
  }
  const double cpu0 = ProcessCpuSeconds();
  const double gen_cpu0 = ThreadCpuSeconds(gen_tid);
  const double loop_cpu0 = ThreadCpuSeconds(loop_tid);
  ResetPeakRssOrThrow();
  const double rss0 = ReadRss().current;
  const HostCpuTimes host0 = ReadHostCpuTimes();
  const Clock::time_point paced_start = Clock::now();
  OpenLoopSchedule schedule(kPacedRowsPerSecond, kTick, paced_start);
  std::uint64_t next_tick = 1;
  Clock::time_point next_status = paced_start;
  const auto finish_probe = [&](Clock::time_point now) {
    const bool ok = probe.response.starts_with("HTTP/1.1 200");
    if (ok) {
      view_ms.push_back(MillisBetween(probe.sent, now));
      view_merge_ms.push_back((merge->Sum() - probe.merge0) * 1e3);
    } else {
      ++http_failed;
    }
    probe = StatusProbe{};
  };
  const auto read_probe = [&](Clock::time_point now) {
    char buf[16384];
    for (;;) {
      const ssize_t n = ::recv(probe.fd.get(), buf, sizeof buf, MSG_DONTWAIT);
      if (n > 0) {
        probe.response.append(buf, static_cast<std::size_t>(n));
      } else if (n == 0) {
        finish_probe(now);
        return;
      } else if (errno != EINTR) {
        if (errno != EAGAIN && errno != EWOULDBLOCK) finish_probe(now);
        return;
      }
    }
  };
  bool paced_sent = false;
  double gen_timed_s = 0;  // generator time inside its timed sections
  for (;;) {
    Clock::time_point now = Clock::now();
    const Clock::time_point iteration_start = now;
    if (now > deadline) throw std::runtime_error("paced phase overran its deadline");
    if (!paced_sent) {
      const std::uint64_t due = schedule.DueCount(now, paced_rows);
      obs::SpanTimer span(rec, "paced_send", "gen");
      bool all = due == paced_rows;
      for (std::size_t c = 0; c < kConnections; ++c) {
        const std::uint64_t rows = RowsOnConn(due, c);
        if (rows > 0 && !SendUpTo(conns[c], conns[c].ends[rows - 1])) {
          throw std::runtime_error("ingest connection failed during the paced phase");
        }
        all = all && conns[c].sent == paced_target[c];
      }
      paced_sent = all;
      if (now >= next_status && probe.active) ++status_skipped;
      if (now >= next_status && !probe.active) {
        obs::SpanTimer status_span(rec, "status_request", "gen");
        probe.fd = netd::Connect("127.0.0.1", server->http_port());
        netd::SetNonBlocking(probe.fd.get());
        static constexpr std::string_view kRequest = "GET /status HTTP/1.1\r\nHost: bench\r\n\r\n";
        probe.merge0 = merge->Sum();
        probe.sent = now;
        probe.active = true;
        ++http_sent;
        if (::send(probe.fd.get(), kRequest.data(), kRequest.size(), MSG_NOSIGNAL) !=
            static_cast<ssize_t>(kRequest.size())) {
          finish_probe(Clock::now());
        }
      }
      while (next_status <= now) next_status += kStatusEvery;
    }
    bool acks_done = true;
    for (std::size_t c = 0; c < kConnections; ++c) {
      acks_done = acks_done && conns[c].acked >= RowsOnConn(paced_rows, c) / kAckEvery * kAckEvery;
    }
    if (paced_sent && acks_done && !probe.active) break;

    std::array<pollfd, kConnections + 1> fds{};
    for (std::size_t c = 0; c < kConnections; ++c) fds[c] = {conns[c].fd.get(), POLLIN, 0};
    fds[kConnections] = {probe.active ? probe.fd.get() : -1, POLLIN, 0};
    const Clock::time_point wake_at = paced_sent ? now + std::chrono::milliseconds(5)
                                                 : schedule.TickTime(next_tick);
    const timespec timeout = Timespec(wake_at - now);
    const Clock::time_point wait_start = Clock::now();
    gen_timed_s += SecondsBetween(iteration_start, wait_start);
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    now = Clock::now();
    gen_timed_s += SecondsBetween(wait_start, now);
    if (ready > 0) {
      for (std::size_t c = 0; c < kConnections; ++c) {
        if (fds[c].revents == 0) continue;
        ReadReplies(conns[c], [&](std::uint64_t n) {
          const std::uint64_t row = OpenLoopSchedule::GlobalIndex(c, n, kConnections);
          if (row >= paced_rows) return;
          commit_ms.push_back(MillisBetween(schedule.DueTime(row), now));
        });
      }
      if (probe.active && fds[kConnections].revents != 0) read_probe(now);
    }
    if (!paced_sent && now >= wake_at) {
      schedule.NoteWake(next_tick, now);
      next_tick = static_cast<std::uint64_t>((now - paced_start) / kTick) + 1;
    }
    gen_timed_s += SecondsBetween(now, Clock::now());
  }
  const Clock::time_point paced_end = Clock::now();
  const double rss_growth = ReadRss().peak - rss0;
  report.notes.push_back(StealNote(host0, "the paced phase"));
  std::uint64_t paced_acked = 0;
  for (std::size_t c = 0; c < kConnections; ++c) {
    paced_acked += std::min<std::uint64_t>(conns[c].acked, RowsOnConn(paced_rows, c));
  }
  const double paced_wall = SecondsBetween(paced_start, paced_end);
  const double paced_cpu = ProcessCpuSeconds() - cpu0;
  const double paced_gen_cpu = ThreadCpuSeconds(gen_tid) - gen_cpu0;
  const double paced_loop_cpu = ThreadCpuSeconds(loop_tid) - loop_cpu0;

  // --- saturating phase -------------------------------------------------------
  // Every run sends it, so that the correctness checks below cover the
  // daemon at saturation. Its rate is the per-layer
  // netd.flood_records_per_s, not an end-to-end metric: the poll thread was
  // 100% busy in every segment, yet segment rates within one run ranged
  // from 87k to 227k rows/s on a shared 4-vCPU VM, and over runs the median
  // of 8 or 16 segments spread 0.22-0.24. The flood goes out in equal
  // segments, each timed from its first byte until every connection has
  // acknowledged it; traced runs trace them in ABBA order to price tracing.
  const int segments = kFloodSegments;
  std::vector<double> seg_seconds(segments);
  std::vector<std::uint64_t> seg_rows(segments);
  const double flood_loop_cpu0 = ThreadCpuSeconds(loop_tid);
  std::vector<double> worker_cpu0;
  for (int tid : worker_tids) worker_cpu0.push_back(ThreadCpuSeconds(tid));
  const Clock::time_point flood_start = Clock::now();
  double flood_worker_cpu = 0;
  for (int s = 0; s < segments; ++s) {
    obs::TraceRecorder* seg_rec = TracedInAbba(s) ? rec : nullptr;
    std::vector<std::size_t> target(kConnections);
    std::vector<std::uint64_t> ack_goal(kConnections);
    for (std::size_t c = 0; c < kConnections; ++c) {
      const std::uint64_t paced_c = RowsOnConn(paced_rows, c);
      const std::uint64_t flood_c = conns[c].ends.size() - paced_c;
      const std::uint64_t upto = paced_c + flood_c * static_cast<std::uint64_t>(s + 1) / segments;
      const bool last = s + 1 == segments;
      target[c] = last ? conns[c].bytes.size() : conns[c].ends[upto - 1];
      ack_goal[c] = upto / kAckEvery * kAckEvery;
      seg_rows[s] += upto - (paced_c + flood_c * static_cast<std::uint64_t>(s) / segments);
    }
    const Clock::time_point seg_start = Clock::now();
    for (;;) {
      Clock::time_point now = Clock::now();
      if (now > deadline) throw std::runtime_error("saturating phase overran its deadline");
      bool done = true;
      std::array<pollfd, kConnections> fds{};
      for (std::size_t c = 0; c < kConnections; ++c) {
        FeedConn& conn = conns[c];
        if (conn.sent < target[c]) {
          obs::SpanTimer span(seg_rec, "flood_send", "gen");
          if (!SendUpTo(conn, target[c])) {
            throw std::runtime_error("ingest connection failed during the saturating phase");
          }
        }
        const bool conn_done = (s + 1 == segments) ? conn.end_acked
                                                   : (conn.sent == target[c] && conn.acked >= ack_goal[c]);
        done = done && conn_done;
        fds[c] = {conn.fd.get(), static_cast<short>(POLLIN | (conn.sent < target[c] ? POLLOUT : 0)), 0};
        if (!conn.error.empty()) throw std::runtime_error("daemon replied " + conn.error);
      }
      if (done) break;
      const timespec timeout = Timespec(std::chrono::milliseconds(100));
      ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
      for (std::size_t c = 0; c < kConnections; ++c) {
        if (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) ReadReplies(conns[c], [](std::uint64_t) {});
      }
    }
    if (s + 1 == segments) {
      for (std::size_t i = 0; i < worker_tids.size(); ++i) {
        flood_worker_cpu += ThreadCpuSeconds(worker_tids[i]) - worker_cpu0[i];
      }
    }
    seg_seconds[s] = SecondsBetween(seg_start, Clock::now());
  }
  const Clock::time_point flood_end = Clock::now();
  std::vector<double> seg_rps;
  std::string seg_note = "saturating segments (rows/s):";
  for (int s = 0; s < segments; ++s) {
    seg_rps.push_back(static_cast<double>(seg_rows[s]) / seg_seconds[s]);
    seg_note += " " + std::to_string(static_cast<long long>(seg_rps.back()));
  }
  report.notes.push_back(seg_note);
  const double flood_wall = SecondsBetween(flood_start, flood_end);
  const double flood_loop_cpu = ThreadCpuSeconds(loop_tid) - flood_loop_cpu0;

  // --- drain and check ---------------------------------------------------------
  server->RequestDrain();
  loop.join();
  if (loop_error) std::rethrow_exception(loop_error);
  const Clock::time_point f0 = Clock::now();
  const stream::StreamSnapshot snap = server->FinishAndSnapshot();
  const double finish_ms = MillisBetween(f0, Clock::now());

  std::uint64_t shortfall = 0;
  const std::uint64_t accepted = server->accepted_records();
  if (accepted != total_rows) {
    report.problems.push_back("daemon accepted " + std::to_string(accepted) + " of " +
                              std::to_string(total_rows) + " rows");
    shortfall += accepted < total_rows ? total_rows - accepted : accepted - total_rows;
  }
  for (std::size_t c = 0; c < kConnections; ++c) {
    if (conns[c].end_value != conns[c].ends.size()) {
      report.problems.push_back("connection " + std::to_string(c) + ": ACK " +
                                std::to_string(conns[c].end_value) + " end, offered " +
                                std::to_string(conns[c].ends.size()));
    }
  }
  shortfall += server->error_report().total() + http_failed;
  if (server->error_report().total() != 0) {
    report.problems.push_back(std::to_string(server->error_report().total()) + " rows rejected");
  }
  if (http_failed != 0) report.problems.push_back(std::to_string(http_failed) + " /status failures");

  // Three connections interleave in an order the kernel and the poll loop
  // choose, and the collaboration sweep depends on that order. Its reference
  // is therefore a replay of the journal - the daemon's exact ingest order -
  // through an engine of the same shard count, after checking that the
  // journal holds exactly the offered rows.
  std::uint64_t replay_collab = 0;
  {
    const netd::JournalContents journal = netd::ReadJournal(journal_path);
    std::uint64_t offered_ids = 0, journal_ids = 0;
    for (std::uint64_t i = 0; i < total_rows; ++i) {
      offered_ids += trace.base[i % trace.base.size()].ddos_id + (i / trace.base.size()) * trace.id_stride;
    }
    stream::ShardedStreamEngineConfig replay_config;
    replay_config.shards = kShards;
    stream::ShardedStreamEngine replay(replay_config);
    for (const netd::JournalEntry& e : journal.entries) {
      journal_ids += e.record.ddos_id;
      replay.Push(e.record);
    }
    replay.Finish();
    replay_collab = replay.merged().Snapshot().collab.events;
    if (journal.entries.size() != total_rows || journal_ids != offered_ids) {
      report.problems.push_back("journal holds " + std::to_string(journal.entries.size()) +
                                " rows that differ from the " + std::to_string(total_rows) +
                                " offered");
    }
  }
  CheckTallies(snap, total_rows, family, replay_collab, "tcp_ingest", &report.problems);
  report.attempted = total_rows + http_sent;
  report.failed = shortfall;

  const obs::MetricsSnapshot daemon = server->metrics().Snapshot();
  std::vector<Metric>& m = report.metrics;
  if (!o.trace) {
    m.push_back({"setup_s", Median(setup_s), "s"});
    // Rows committed per second at the fixed offered rate: it checks that the
    // daemon keeps up with that rate, not its throughput, and falls below the
    // rate only when the daemon cannot keep up.
    m.push_back({"records_per_s", static_cast<double>(paced_acked) / paced_wall, "1/s"});
    m.push_back({"cpu_us_per_record",
                 (paced_cpu - paced_gen_cpu) * 1e6 / static_cast<double>(paced_rows), "us"});
    m.push_back({"peak_rss_growth_mib", rss_growth, "MiB"});
    m.push_back({"view_ms_p50", Percentile(view_ms, 0.50), "ms"});
    m.push_back({"view_ms_p90", Percentile(view_ms, 0.90), "ms"});
    m.push_back({"commit_ms_p50", Percentile(commit_ms, 0.50), "ms"});
    m.push_back({"commit_ms_p90", Percentile(commit_ms, 0.90), "ms"});
  } else {
    std::vector<double> wait_ms;
    for (std::size_t k = 0; k < view_ms.size(); ++k) wait_ms.push_back(view_ms[k] - view_merge_ms[k]);
    std::vector<double> plain_rps, traced_rps;
    for (int s = 0; s < segments; ++s) (TracedInAbba(s) ? traced_rps : plain_rps).push_back(seg_rps[s]);
    const double flood_rps = Median(plain_rps);
    const Isolated iso = RunIsolated(trace, total_rows, o.work_dir, rec);
    const StreamCounters counters = ReadStreamCounters(daemon, total_rows);
    const obs::MetricFamily* bytes_in = daemon.FindFamily("ddoscope_netd_bytes_read_total");
    std::error_code ec;
    const auto journal_bytes = std::filesystem::file_size(journal_path, ec);
    m.push_back({"botsim.generate_s", Median(generate_s), "s"});
    m.push_back({"data.stage_s", Median(stage_s), "s"});
    m.push_back({"data.scan_ns_per_line", iso.scan_ns, "ns"});
    m.push_back({"data.bin_decode_ns_per_record", iso.bin_decode_ns, "ns"});
    m.push_back({"geo.open_ms", iso.open_ms, "ms"});
    m.push_back({"stream.route_ns_per_record", iso.route_ns, "ns"});
    AddIsolatedMetrics(iso, &m);
    m.push_back({"stream.push_retries_per_krec", counters.push_retries_per_krec, "1/krec"});
    m.push_back({"stream.backpressure_sleeps_per_krec", counters.backpressure_sleeps_per_krec, "1/krec"});
    m.push_back({"stream.idle_sleeps_per_krec", counters.idle_sleeps_per_krec, "1/krec"});
    m.push_back({"stream.queue_highwater_frac", counters.queue_highwater_frac, "ratio"});
    m.push_back({"stream.shard_skew", counters.shard_skew, "ratio"});
    m.push_back({"stream.router_busy_frac", flood_loop_cpu / flood_wall, "ratio"});
    m.push_back({"stream.worker_busy_frac",
                 flood_worker_cpu / static_cast<double>(kShards) / flood_wall, "ratio"});
    m.push_back({"stream.view_merge_ms_p50", Percentile(view_merge_ms, 0.5), "ms"});
    m.push_back({"stream.view_wait_ms_p50", Percentile(wait_ms, 0.5), "ms"});
    m.push_back({"stream.checkpoint_ms_p50", iso.checkpoint_ms, "ms"});
    m.push_back({"stream.finish_ms", finish_ms, "ms"});
    m.push_back({"stream.state_kib",
                 static_cast<double>(server->engine().merged().ApproxMemoryBytes()) / 1024.0, "KiB"});
    // The daemon's router is its poll thread, whose calls cannot be timed
    // from outside; the accounting check covers the generator's paced loop
    // (send, status, wait, reply sections) instead.
    m.push_back({"stream.router_unaccounted_frac", 1.0 - gen_timed_s / paced_wall, "ratio"});
    m.push_back({"netd.bind_ms", Median(bind_ms), "ms"});
    m.push_back({"netd.loop_busy_frac_paced", paced_loop_cpu / paced_wall, "ratio"});
    m.push_back({"netd.loop_busy_frac_flood", flood_loop_cpu / flood_wall, "ratio"});
    m.push_back({"netd.flood_records_per_s", flood_rps, "1/s"});
    m.push_back({"netd.bytes_in_per_record",
                 bytes_in == nullptr ? 0.0
                                     : static_cast<double>(SumCounter(daemon, "ddoscope_netd_bytes_read_total")) /
                                           static_cast<double>(total_rows),
                 "B/record"});
    m.push_back({"netd.journal_bytes_per_record",
                 static_cast<double>(ec ? 0 : journal_bytes) / static_cast<double>(total_rows), "B/record"});
    m.push_back({"obs.render_ms", RenderMs(server->metrics()), "ms"});
    m.push_back({"obs.trace_overhead_pct", (flood_rps / Median(traced_rps) - 1.0) * 100.0, "%"});
    m.push_back({"gen.late_ms_p99", Percentile(schedule.lateness_ms(), 0.99), "ms"});
    m.push_back({"gen.cpu_frac", paced_gen_cpu / paced_wall, "ratio"});
    report.notes.push_back("isolated over the first " +
                           std::to_string(std::min<std::uint64_t>(total_rows, kIsolatedRows)) +
                           " rows: scan, prescan, parse, bin decode, geo open/lookup/enrich, apply,"
                           " 2-shard route and checkpoint; router_unaccounted_frac covers the generator");
    WriteTrace(recorder, o, &report);
  }
  report.notes.push_back(std::to_string(paced_rows) + " paced rows at " +
                         std::to_string(static_cast<int>(kPacedRowsPerSecond)) + "/s over " +
                         std::to_string(paced_wall).substr(0, 5) + " s, " +
                         std::to_string(flood_rows) + " saturating rows in " +
                         std::to_string(flood_wall).substr(0, 5) + " s; " +
                         std::to_string(commit_ms.size()) + " ACK samples, " +
                         std::to_string(view_ms.size()) + " /status samples (" +
                         std::to_string(status_skipped) + " slots skipped while one was in flight)");
  return report;
}

}  // namespace

bool IsKnownWorkload(const std::string& name) {
  return name == "csv_watch" || name == "tcp_ingest";
}

Report RunWorkload(const Options& options) {
  if (options.workload == "csv_watch") return RunCsvWatch(options);
  if (options.workload == "tcp_ingest") return RunTcpIngest(options);
  throw std::invalid_argument("unknown workload " + options.workload);
}

double HostReferenceMs() {
  std::vector<double> ms;
  for (int r = 0; r < 5; ++r) {
    const Clock::time_point t0 = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 20000000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    g_sink = g_sink + x;
    ms.push_back(MillisBetween(t0, Clock::now()));
  }
  return Median(ms);
}

}  // namespace ddos::ingest_bench
