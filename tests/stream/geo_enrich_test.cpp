// Live geo enrichment: the enricher's tallies on a single engine, the
// sharded-vs-single equivalence contract (records shard by botnet, so
// per-botnet dispersion state must come out identical), bounded-table
// behavior, and the obs wiring.
#include "stream/geo_enrich.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "botsim/simulator.h"
#include "geo/mmdb.h"
#include "obs/metrics.h"
#include "stream/engine.h"
#include "stream/sharded.h"
#include "test_support.h"

namespace ddos::stream {
namespace {

const geo::GeoMmdb& TestMmdb() {
  static const geo::GeoMmdb db = [] {
    const std::string path = ::ddos::testing::TestTempPath("geo_enrich_test.geo");
    CompileGeoDatabase(::ddos::testing::TestGeoDb(), path);
    return geo::GeoMmdb::Open(path);
  }();
  return db;
}

std::vector<data::AttackRecord> SmallTrace() {
  const data::Dataset& dataset = ::ddos::testing::SmallDataset();
  return std::vector<data::AttackRecord>(dataset.attacks().begin(),
                                         dataset.attacks().end());
}

TEST(GeoEnricherTest, EnrichesEveryRecordPushed) {
  StreamEngine engine;
  engine.EnableGeo(&TestMmdb());
  const std::vector<data::AttackRecord> trace = SmallTrace();
  for (const data::AttackRecord& a : trace) engine.Push(a);
  engine.Finish();
  const StreamSnapshot snap = engine.Snapshot();
  ASSERT_TRUE(snap.geo.has_value());
  EXPECT_EQ(snap.geo->enriched, snap.attacks);
  EXPECT_FALSE(snap.geo->top_countries.empty());
  EXPECT_FALSE(snap.geo->top_asns.empty());
  EXPECT_GT(snap.geo->tracked_botnets, 0u);
  for (const BotnetGeoStat& b : snap.geo->top_dispersed) {
    EXPECT_GT(b.attacks, 0u);
    EXPECT_GE(b.mean_distance_km, 0.0);
  }
}

TEST(GeoEnricherTest, DisabledEngineCarriesNoGeoView) {
  StreamEngine engine;
  engine.Push(SmallTrace().front());
  EXPECT_FALSE(engine.Snapshot().geo.has_value());
}

TEST(GeoEnricherTest, ResolvedCountryMatchesRecordMetadata) {
  // The simulator wrote each record's cc from the same synthetic database
  // the mmdb was compiled from, so the enricher's resolution must agree
  // with the feed's own metadata.
  GeoEnricher enricher(&TestMmdb(), GeoEnrichConfig{.topk_capacity = 4096});
  const std::vector<data::AttackRecord> trace = SmallTrace();
  for (const data::AttackRecord& a : trace) enricher.Enrich(a);
  std::map<std::string, std::uint64_t> expected;
  for (const data::AttackRecord& a : trace) ++expected[a.cc];
  for (const GeoTopEntry& e : enricher.Snapshot(5).top_countries) {
    EXPECT_EQ(e.count - e.error, expected[e.label]) << e.label;
  }
}

TEST(GeoEnricherTest, ShardedMatchesSingleEngine) {
  const std::vector<data::AttackRecord> trace = SmallTrace();

  // Capacity above the database's ASN cardinality (one ASN per block) makes
  // the space-saving views exact, so single and merged-sharded snapshots
  // must agree to the last count, not just within error bounds.
  GeoEnrichConfig enrich;
  enrich.topk_capacity = 8192;

  StreamEngine single;
  single.EnableGeo(&TestMmdb(), enrich);
  for (const data::AttackRecord& a : trace) single.Push(a);
  single.Finish();
  const StreamSnapshot single_snap = single.Snapshot();
  ASSERT_TRUE(single_snap.geo.has_value());

  for (const std::size_t shards : {1, 2, 8}) {
    ShardedStreamEngineConfig config;
    config.shards = shards;
    config.geo = &TestMmdb();
    config.geo_enrich = enrich;
    ShardedStreamEngine engine(config);
    for (const data::AttackRecord& a : trace) engine.Push(a);
    engine.Finish();
    const StreamSnapshot snap = engine.Snapshot();
    ASSERT_TRUE(snap.geo.has_value()) << shards << " shards";

    EXPECT_EQ(snap.geo->enriched, single_snap.geo->enriched);
    EXPECT_EQ(snap.geo->out_of_space, single_snap.geo->out_of_space);
    EXPECT_EQ(snap.geo->tracked_botnets, single_snap.geo->tracked_botnets);

    // Botnet-keyed routing: every botnet's state is built on one shard in
    // feed order, so the dispersion stats fold to the single engine's
    // values exactly (same additions in the same order).
    ASSERT_EQ(snap.geo->top_dispersed.size(),
              single_snap.geo->top_dispersed.size());
    for (std::size_t i = 0; i < snap.geo->top_dispersed.size(); ++i) {
      const BotnetGeoStat& a = snap.geo->top_dispersed[i];
      const BotnetGeoStat& b = single_snap.geo->top_dispersed[i];
      EXPECT_EQ(a.botnet_id, b.botnet_id) << shards << " shards, rank " << i;
      EXPECT_EQ(a.attacks, b.attacks);
      EXPECT_DOUBLE_EQ(a.mean_distance_km, b.mean_distance_km);
    }

    // Space-saving views merge under their documented bounds; with the
    // default capacity far above the country/ASN cardinality they are
    // exact.
    ASSERT_EQ(snap.geo->top_countries.size(),
              single_snap.geo->top_countries.size());
    for (std::size_t i = 0; i < snap.geo->top_countries.size(); ++i) {
      EXPECT_EQ(snap.geo->top_countries[i].label,
                single_snap.geo->top_countries[i].label);
      EXPECT_EQ(snap.geo->top_countries[i].count,
                single_snap.geo->top_countries[i].count);
    }
    ASSERT_EQ(snap.geo->top_asns.size(), single_snap.geo->top_asns.size());
    for (std::size_t i = 0; i < snap.geo->top_asns.size(); ++i) {
      EXPECT_EQ(snap.geo->top_asns[i].label, single_snap.geo->top_asns[i].label);
      EXPECT_EQ(snap.geo->top_asns[i].count, single_snap.geo->top_asns[i].count);
    }
  }
}

TEST(GeoEnricherTest, BotnetTableIsBounded) {
  GeoEnrichConfig config;
  config.max_botnets = 4;
  GeoEnricher enricher(&TestMmdb(), config);
  data::AttackRecord record;
  record.target_ip = net::IPv4Address::FromOctets(8, 8, 4, 4);
  for (std::uint32_t id = 0; id < 16; ++id) {
    record.botnet_id = id;
    enricher.Enrich(record);
  }
  const GeoEnrichSnapshot snap = enricher.Snapshot();
  EXPECT_EQ(snap.tracked_botnets, 4u);
  EXPECT_EQ(snap.dropped_botnets, 12u);
  EXPECT_EQ(snap.enriched, 16u);  // counting is never dropped, only tracking
}

TEST(GeoEnricherTest, HotPathCountersAndPublishedGauges) {
  obs::MetricsRegistry registry;
  ShardedStreamEngineConfig config;
  config.shards = 2;
  config.geo = &TestMmdb();
  config.metrics = &registry;
  ShardedStreamEngine engine(config);
  const std::vector<data::AttackRecord> trace = SmallTrace();
  for (const data::AttackRecord& a : trace) engine.Push(a);
  engine.Finish();
  const StreamSnapshot snap = engine.Snapshot();

  std::uint64_t enriched = 0;
  for (const std::string shard : {"0", "1"}) {
    enriched += registry.Snapshot().CounterValue("ddoscope_geo_enriched_total",
                                                 {{"shard", shard}});
  }
  EXPECT_EQ(enriched, trace.size());

  ASSERT_TRUE(snap.geo.has_value());
  PublishGeoGauges(&registry, *snap.geo);
  const obs::MetricsSnapshot metrics = registry.Snapshot();
  const obs::MetricValue* tracked =
      metrics.Find("ddoscope_geo_tracked_botnets", {});
  ASSERT_NE(tracked, nullptr);
  EXPECT_EQ(tracked->gauge,
            static_cast<std::int64_t>(snap.geo->tracked_botnets));
  const obs::MetricFamily* by_country =
      metrics.FindFamily("ddoscope_geo_country_attacks");
  ASSERT_NE(by_country, nullptr);
  EXPECT_FALSE(by_country->values.empty());
}

TEST(GeoEnricherTest, MergeFoldsDisjointAndOverlappingTallies) {
  const std::vector<data::AttackRecord> trace = SmallTrace();
  const std::size_t half = trace.size() / 2;

  GeoEnricher all(&TestMmdb());
  GeoEnricher left(&TestMmdb());
  GeoEnricher right(&TestMmdb());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    all.Enrich(trace[i]);
    (i < half ? left : right).Enrich(trace[i]);
  }
  left.Merge(right);
  const GeoEnrichSnapshot merged = left.Snapshot();
  const GeoEnrichSnapshot whole = all.Snapshot();
  EXPECT_EQ(merged.enriched, whole.enriched);
  EXPECT_EQ(merged.out_of_space, whole.out_of_space);
  EXPECT_EQ(merged.tracked_botnets, whole.tracked_botnets);
  ASSERT_EQ(merged.top_countries.size(), whole.top_countries.size());
  for (std::size_t i = 0; i < merged.top_countries.size(); ++i) {
    EXPECT_EQ(merged.top_countries[i].label, whole.top_countries[i].label);
    EXPECT_EQ(merged.top_countries[i].count, whole.top_countries[i].count);
  }
}

}  // namespace
}  // namespace ddos::stream
