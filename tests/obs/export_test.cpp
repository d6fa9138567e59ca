#include "obs/export.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "test_support.h"

namespace ddos::obs {
namespace {

// The registry is pinned in place (atomics, stable cell pointers), so the
// fixture fills a caller-owned instance instead of returning one.
void PopulateFixture(MetricsRegistry* registry) {
  registry
      ->GetCounter("ddoscope_ingest_records_total",
                   "Valid attack records parsed")
      ->Add(1826);
  registry
      ->GetCounter("ddoscope_stream_attacks_total",
                   "Attack records applied to the engine", {{"shard", "0"}})
      ->Add(900);
  registry
      ->GetCounter("ddoscope_stream_attacks_total",
                   "Attack records applied to the engine", {{"shard", "1"}})
      ->Add(926);
  registry->GetGauge("ddoscope_stream_memory_bytes", "Engine state size")
      ->Set(129024);
  Histogram* h = registry->GetHistogram("ddoscope_sharded_merge_seconds",
                                        "Merge latency", {0.001, 0.01, 0.1});
  h->Observe(0.0005);
  h->Observe(0.05);
  h->Observe(2.0);
}

// The golden exposition: byte-exact so the scrape format never drifts
// silently. Counters sort by name, cells by rendered labels, histograms
// emit cumulative buckets then _sum and _count.
constexpr char kGoldenPrometheus[] =
    "# HELP ddoscope_ingest_records_total Valid attack records parsed\n"
    "# TYPE ddoscope_ingest_records_total counter\n"
    "ddoscope_ingest_records_total 1826\n"
    "# HELP ddoscope_sharded_merge_seconds Merge latency\n"
    "# TYPE ddoscope_sharded_merge_seconds histogram\n"
    "ddoscope_sharded_merge_seconds_bucket{le=\"0.001\"} 1\n"
    "ddoscope_sharded_merge_seconds_bucket{le=\"0.01\"} 1\n"
    "ddoscope_sharded_merge_seconds_bucket{le=\"0.1\"} 2\n"
    "ddoscope_sharded_merge_seconds_bucket{le=\"+Inf\"} 3\n"
    "ddoscope_sharded_merge_seconds_sum 2.0505\n"
    "ddoscope_sharded_merge_seconds_count 3\n"
    "# HELP ddoscope_stream_attacks_total Attack records applied to the "
    "engine\n"
    "# TYPE ddoscope_stream_attacks_total counter\n"
    "ddoscope_stream_attacks_total{shard=\"0\"} 900\n"
    "ddoscope_stream_attacks_total{shard=\"1\"} 926\n"
    "# HELP ddoscope_stream_memory_bytes Engine state size\n"
    "# TYPE ddoscope_stream_memory_bytes gauge\n"
    "ddoscope_stream_memory_bytes 129024\n";

TEST(PrometheusTextTest, MatchesGoldenExposition) {
  MetricsRegistry registry;
  PopulateFixture(&registry);
  EXPECT_EQ(RenderPrometheusText(registry.Snapshot()), kGoldenPrometheus);
}

TEST(PrometheusTextTest, RoundTripsThroughParser) {
  MetricsRegistry registry;
  PopulateFixture(&registry);
  const std::string text = RenderPrometheusText(registry.Snapshot());
  std::istringstream in(text);
  const MetricsSnapshot parsed = ParsePrometheusText(in);
  // Parsing then re-rendering is the identity on renderer output.
  EXPECT_EQ(RenderPrometheusText(parsed), text);
  EXPECT_EQ(parsed.CounterValue("ddoscope_ingest_records_total"), 1826u);
  EXPECT_EQ(parsed.CounterValue("ddoscope_stream_attacks_total",
                                {{"shard", "1"}}),
            926u);
  const MetricValue* hist =
      parsed.Find("ddoscope_sharded_merge_seconds", {});
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->histogram.count, 3u);
  EXPECT_EQ(hist->histogram.bucket_counts,
            (std::vector<std::uint64_t>{1, 0, 1, 1}));
  EXPECT_EQ(hist->histogram.bounds, (std::vector<double>{0.001, 0.01, 0.1}));
}

TEST(PrometheusTextTest, EscapesLabelValues) {
  MetricsRegistry registry;
  registry.GetCounter("c_total", "h", {{"kind", "say \"hi\"\\now"}})->Add(1);
  const std::string text = RenderPrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("c_total{kind=\"say \\\"hi\\\"\\\\now\"} 1"),
            std::string::npos);
  std::istringstream in(text);
  const MetricsSnapshot parsed = ParsePrometheusText(in);
  EXPECT_EQ(parsed.CounterValue("c_total", {{"kind", "say \"hi\"\\now"}}),
            1u);
}

TEST(PrometheusParserTest, RejectsMalformedInput) {
  const auto parse = [](const char* text) {
    std::istringstream in(text);
    return ParsePrometheusText(in);
  };
  EXPECT_THROW(parse("orphan_sample 3\n"), std::runtime_error);
  EXPECT_THROW(parse("# TYPE m counter\nm{broken 3\n"), std::runtime_error);
  EXPECT_THROW(parse("# TYPE m counter\nm{k=\"v\"} notanumber\n"),
               std::runtime_error);
  EXPECT_THROW(parse("# TYPE m spline\nm 3\n"), std::runtime_error);
}

TEST(MetricsJsonTest, ContainsEveryFamilyAndValue) {
  MetricsRegistry registry;
  PopulateFixture(&registry);
  const std::string json = RenderMetricsJson(registry.Snapshot());
  EXPECT_NE(json.find("\"name\": \"ddoscope_ingest_records_total\""),
            std::string::npos);
  EXPECT_NE(json.find("\"value\": 1826"), std::string::npos);
  EXPECT_NE(json.find("\"shard\": \"1\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 3"), std::string::npos);
  EXPECT_NE(json.find("{\"le\": \"+Inf\", \"n\": 1}"), std::string::npos);
}

TEST(MetricsTableTest, RendersAllTypes) {
  MetricsRegistry registry;
  PopulateFixture(&registry);
  const std::string table = RenderMetricsTable(registry.Snapshot());
  EXPECT_NE(table.find("metric"), std::string::npos);
  EXPECT_NE(table.find("ddoscope_ingest_records_total"), std::string::npos);
  EXPECT_NE(table.find("{shard=\"0\"}"), std::string::npos);
  EXPECT_NE(table.find("count=3"), std::string::npos);
  EXPECT_NE(table.find("p50="), std::string::npos);
}

TEST(WriteMetricsFilesTest, WritesPromAndJsonSideBySide) {
  MetricsRegistry registry;
  PopulateFixture(&registry);
  const std::string path = ::ddos::testing::TestTempPath("obs_export_test.prom");
  WriteMetricsFiles(path, registry.Snapshot());
  const MetricsSnapshot reloaded = LoadPrometheusFile(path);
  EXPECT_EQ(reloaded.CounterValue("ddoscope_ingest_records_total"), 1826u);
  std::ifstream json(path + ".json");
  ASSERT_TRUE(json.good());
  std::stringstream buffer;
  buffer << json.rdbuf();
  EXPECT_NE(buffer.str().find("\"metrics\""), std::string::npos);
}

TEST(LoadPrometheusFileTest, MissingFileThrows) {
  EXPECT_THROW(LoadPrometheusFile("/nonexistent/metrics.prom"),
               std::runtime_error);
}

}  // namespace
}  // namespace ddos::obs
