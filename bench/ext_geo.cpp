// Extension: compiled geo database audit (the geo/mmdb.h contract).
//
// The mmdb module promises three numbers this bench holds it to:
//
//  1. Equivalence - the compiled file's Lookup is bit-identical to the
//     GeoDatabase it was built from (a wide multiplicative-stride sweep
//     here; tests/geo/mmdb_test.cpp walks the full keyspace). Both share
//     the /16 table and the jitter function, so this checks the encoding.
//  2. Acquisition - a process that needs its first lookups pays
//     GeoMmdb::Open (O(validation) over a ~300 KB file) instead of
//     rebuilding the synthetic database from (catalog, config, seed).
//     Open-to-Nth-lookup must be >= 10x faster than build-to-Nth-lookup,
//     the ratio that justifies shipping a compiled file to every shard
//     sweep and bench run. Steady-state lookups/s for both paths are
//     reported alongside so the per-lookup cost stays visible.
//  3. Enrichment overhead - turning on live GeoEnricher tagging in a
//     4-shard ShardedStreamEngine must stay within the same 5% ingest
//     budget the obs layer is held to (bench_ext_obs).
//
// Emits BENCH_geo.json. The equivalence and acquisition gates always fail
// the run when broken (the acquisition margin is structural, not
// scheduler-dependent); the 4-shard overhead gate arms only under
// DDOSCOPE_GATE_GEO=1 - CI's multi-core runners set it, a single-core dev
// container measuring 4 contended shards would only report noise.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/mmapio.h"
#include "common/strings.h"
#include "data/csv.h"
#include "data/linescan.h"
#include "geo/geo_db.h"
#include "geo/mmdb.h"
#include "net/ipv4.h"
#include "stream/sharded.h"

namespace {

constexpr double kAcquisitionGate = 10.0;     // open must beat build by this
constexpr double kEnrichBudgetPercent = 5.0;  // shared with bench_ext_obs
constexpr int kRounds = 5;                    // medians over this many runs
constexpr std::size_t kEquivalenceSweep = 1u << 20;
constexpr std::size_t kAcquireLookups = 256;  // "first N lookups" horizon
constexpr std::size_t kSteadySweep = 1u << 20;

// Knuth's multiplicative stride: a full-period walk that scatters across
// every /16, allocated and not, so both block and fallback entries are read.
std::uint32_t SweepAddress(std::size_t i) {
  return static_cast<std::uint32_t>(i) * 2654435761u;
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

bool BitEqual(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool SameRecord(const ddos::geo::GeoRecord& a, const ddos::geo::GeoRecord& b) {
  return a.country_code == b.country_code && a.country_name == b.country_name &&
         a.city == b.city && BitEqual(a.location.lat_deg, b.location.lat_deg) &&
         BitEqual(a.location.lon_deg, b.location.lon_deg) && a.asn == b.asn &&
         a.organization == b.organization && a.org_kind == b.org_kind;
}

// N lookups folded into a sink the optimizer cannot discard.
template <typename DB>
double SweepLookups(const DB& db, std::size_t n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += db.Lookup(ddos::net::IPv4Address(SweepAddress(i))).location.lat_deg;
  }
  return sum;
}

// One 4-shard parse-in-shard ingest pass over the on-disk trace, optionally
// geo-enriched - the production ingest shape (`ddoscope serve/watch --geo`):
// the router byte-scans line spans, the workers parse and (when enabled)
// enrich, so the overhead measured is the wall-clock cost the budget is
// about, not the enricher's isolated CPU time.
double RunSharded(const std::string& csv_path, const ddos::geo::GeoMmdb* geo,
                  std::uint64_t* enriched_out) {
  using namespace ddos;
  stream::ShardedStreamEngineConfig config;
  config.shards = 4;
  config.geo = geo;
  const auto t0 = std::chrono::steady_clock::now();
  stream::ShardedStreamEngine engine(config);
  io::MmapFile file = io::MmapFile::Open(csv_path);
  data::LineSpanScanner scanner(file.view());
  data::LineSpan line;
  while (scanner.Next(&line)) {
    if (line.line_no == 1) continue;  // header
    engine.PushLine(line.text, line.line_no, line.saw_newline);
  }
  engine.Finish();  // spans must not outlive the mapping
  const double elapsed = SecondsSince(t0);
  if (enriched_out != nullptr) {
    const stream::StreamSnapshot snap = engine.Snapshot(1);
    *enriched_out = snap.geo.has_value() ? snap.geo->enriched : 0;
  }
  return elapsed;
}

}  // namespace

int main() {
  using namespace ddos;
  bench::PrintHeader("Extension", "Compiled geo database (geo/mmdb.h)");
  const bool gate_multicore = std::getenv("DDOSCOPE_GATE_GEO") != nullptr;

  const std::filesystem::path geo_path =
      std::filesystem::temp_directory_path() / "ddoscope_ext_geo.geo";
  {
    const auto t0 = std::chrono::steady_clock::now();
    geo::CompileGeoDatabase(bench::SharedGeoDb(), geo_path.string());
    std::printf("compiled %s in %.1f ms\n", geo_path.string().c_str(),
                SecondsSince(t0) * 1e3);
  }
  const geo::GeoMmdb mmdb = geo::GeoMmdb::Open(geo_path.string());
  std::printf("mapped: DDGEOMDB v%u, %zu bytes, %u records, %u countries\n\n",
              geo::kGeoMmdbVersion, mmdb.size_bytes(), mmdb.record_count(),
              mmdb.country_count());

  // 1. Equivalence sweep.
  const geo::GeoDatabase& synth = bench::SharedGeoDb();
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < kEquivalenceSweep; ++i) {
    const net::IPv4Address addr(SweepAddress(i));
    if (!SameRecord(synth.Lookup(addr), mmdb.Lookup(addr))) ++mismatches;
  }
  const bool bit_identical = mismatches == 0;
  std::printf("equivalence sweep: %zu addresses, %zu mismatches (%s)\n\n",
              kEquivalenceSweep, mismatches,
              bit_identical ? "bit-identical" : "BROKEN");

  // 2. Acquisition: build-or-open, then the first kAcquireLookups lookups.
  std::vector<double> build_runs, open_runs;
  double sink = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    {
      const auto t0 = std::chrono::steady_clock::now();
      const geo::GeoDatabase db = geo::GeoDatabase::MakeDefault(42);
      sink += SweepLookups(db, kAcquireLookups);
      build_runs.push_back(SecondsSince(t0));
    }
    {
      const auto t0 = std::chrono::steady_clock::now();
      const geo::GeoMmdb m = geo::GeoMmdb::Open(geo_path.string());
      sink += SweepLookups(m, kAcquireLookups);
      open_runs.push_back(SecondsSince(t0));
    }
  }
  const double build_s = Median(build_runs);
  const double open_s = Median(open_runs);
  const double acquisition_ratio = build_s / open_s;
  std::printf("acquisition (construct + first %zu lookups), median of %d:\n",
              kAcquireLookups, kRounds);
  std::printf("  synthetic build : %.4f s\n", build_s);
  std::printf("  mmdb open       : %.4f s\n", open_s);
  std::printf("  ratio           : %.1fx (gate >= %.0fx)\n\n",
              acquisition_ratio, kAcquisitionGate);

  // Steady-state per-lookup throughput, page cache and heap both warm.
  sink += SweepLookups(synth, kSteadySweep / 4);  // warm
  sink += SweepLookups(mmdb, kSteadySweep / 4);
  std::vector<double> synth_steady, mmdb_steady;
  for (int round = 0; round < kRounds; ++round) {
    auto t0 = std::chrono::steady_clock::now();
    sink += SweepLookups(synth, kSteadySweep);
    synth_steady.push_back(SecondsSince(t0));
    t0 = std::chrono::steady_clock::now();
    sink += SweepLookups(mmdb, kSteadySweep);
    mmdb_steady.push_back(SecondsSince(t0));
  }
  const double n_steady = static_cast<double>(kSteadySweep);
  const double synth_rate = n_steady / Median(synth_steady);
  const double mmdb_rate = n_steady / Median(mmdb_steady);
  std::printf("steady-state lookups/s: synthetic %.2fM, mmdb %.2fM\n\n",
              synth_rate / 1e6, mmdb_rate / 1e6);

  // 3. Live enrichment overhead at 4 shards, parse-in-shard ingest.
  const auto& ds = bench::SharedDataset();
  const double n_records = static_cast<double>(ds.attacks().size());
  const std::filesystem::path csv_path =
      std::filesystem::temp_directory_path() / "ddoscope_ext_geo.csv";
  data::SaveAttacksCsv(csv_path.string(), ds.attacks());
  RunSharded(csv_path.string(), nullptr, nullptr);  // warm
  std::vector<double> bare_runs, geo_runs;
  std::uint64_t enriched = 0;
  for (int round = 0; round < kRounds; ++round) {
    if (round % 2 == 0) {
      bare_runs.push_back(RunSharded(csv_path.string(), nullptr, nullptr));
      geo_runs.push_back(RunSharded(csv_path.string(), &mmdb, &enriched));
    } else {
      geo_runs.push_back(RunSharded(csv_path.string(), &mmdb, &enriched));
      bare_runs.push_back(RunSharded(csv_path.string(), nullptr, nullptr));
    }
  }
  const double bare_s = Median(bare_runs);
  const double geo_s = Median(geo_runs);
  const double overhead_percent = (geo_s - bare_s) / bare_s * 100.0;
  const bool enriched_exact = enriched == ds.attacks().size();
  std::printf("4-shard parse-in-shard ingest, median of %d:\n", kRounds);
  std::printf("  bare     : %.4f s (%.0f records/s)\n", bare_s,
              n_records / bare_s);
  std::printf("  enriched : %.4f s (%.0f records/s)\n", geo_s,
              n_records / geo_s);
  std::printf("  overhead : %+.2f%% (budget %.0f%%, gate %s)\n",
              overhead_percent, kEnrichBudgetPercent,
              gate_multicore ? "armed" : "report-only");
  std::printf("  enriched %llu of %zu records: %s\n\n",
              static_cast<unsigned long long>(enriched), ds.attacks().size(),
              enriched_exact ? "exact" : "MISMATCH");

  {
    std::ofstream json("BENCH_geo.json");
    json << "{\n"
         << "  \"bench\": \"geo_mmdb\",\n"
         << "  \"records\": " << ds.attacks().size() << ",\n"
         << "  \"rounds\": " << kRounds << ",\n"
         << "  \"file_bytes\": " << mmdb.size_bytes() << ",\n"
         << "  \"format_version\": " << geo::kGeoMmdbVersion << ",\n"
         << "  \"geo_records\": " << mmdb.record_count() << ",\n"
         << "  \"equivalence_sweep\": " << kEquivalenceSweep << ",\n"
         << "  \"lookup_bit_identical\": "
         << (bit_identical ? "true" : "false") << ",\n"
         << "  \"acquire_lookups\": " << kAcquireLookups << ",\n"
         << "  \"synthetic_acquire_seconds\": " << StrFormat("%.4f", build_s)
         << ",\n"
         << "  \"mmdb_acquire_seconds\": " << StrFormat("%.4f", open_s)
         << ",\n"
         << "  \"acquisition_ratio\": " << StrFormat("%.1f", acquisition_ratio)
         << ",\n"
         << "  \"acquisition_gate\": " << StrFormat("%.1f", kAcquisitionGate)
         << ",\n"
         << "  \"synthetic_lookups_per_s\": " << StrFormat("%.0f", synth_rate)
         << ",\n"
         << "  \"mmdb_lookups_per_s\": " << StrFormat("%.0f", mmdb_rate)
         << ",\n"
         << "  \"sharded_bare_seconds\": " << StrFormat("%.4f", bare_s)
         << ",\n"
         << "  \"sharded_enriched_seconds\": " << StrFormat("%.4f", geo_s)
         << ",\n"
         << "  \"enrich_overhead_percent\": "
         << StrFormat("%.2f", overhead_percent) << ",\n"
         << "  \"enrich_budget_percent\": "
         << StrFormat("%.1f", kEnrichBudgetPercent) << ",\n"
         << "  \"enriched_count_exact\": "
         << (enriched_exact ? "true" : "false") << ",\n"
         << "  \"multicore_gate_armed\": "
         << (gate_multicore ? "true" : "false") << "\n"
         << "}\n";
    std::printf("wrote BENCH_geo.json\n");
  }

  bench::PrintComparison({
      {"acquisition speedup (open vs build)", kAcquisitionGate,
       acquisition_ratio, "gate is the floor"},
      {"enrichment overhead %, 4 shards", kEnrichBudgetPercent,
       overhead_percent, "budget is the ceiling"},
  });
  if (sink == 42.0) std::printf("(sink %f)\n", sink);  // keep sweeps live

  std::filesystem::remove(geo_path);
  std::filesystem::remove(csv_path);
  if (!bit_identical) {
    std::printf("FAIL: compiled lookup diverges from GeoDatabase::Lookup\n");
    return 1;
  }
  if (!enriched_exact) {
    std::printf("FAIL: enriched count disagrees with the feed\n");
    return 1;
  }
  if (acquisition_ratio < kAcquisitionGate) {
    std::printf("FAIL: acquisition ratio %.1fx below the %.0fx gate\n",
                acquisition_ratio, kAcquisitionGate);
    return 1;
  }
  if (gate_multicore && overhead_percent > kEnrichBudgetPercent) {
    std::printf("FAIL: enrichment overhead %.2f%% exceeds %.0f%% budget\n",
                overhead_percent, kEnrichBudgetPercent);
    return 1;
  }
  return 0;
}
