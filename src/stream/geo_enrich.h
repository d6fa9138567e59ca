// GeoEnricher: live geo tagging on the streaming hot path.
//
// The batch analyses geolocate after the fact; with a compiled GeoMmdb
// (geo/mmdb.h) a lookup is cheap enough to run per record inside the shard.
// The enricher resolves every attack's target address against the mapped
// database and folds the result into three live views the paper's geo
// analyses ask for (Section II-C, IV-A/B):
//
//  * top countries - space-saving counters over the resolved country codes,
//  * top ASNs - the same over resolved autonomous systems,
//  * per-botnet geo dispersion - a bounded table of streaming centroids
//    (unit-vector sums, geodesy.h) and mean target distance per botnet,
//    the live proxy for how geographically spread a botnet's targets are.
//
// Cost model: one /16 table read + one record read + SplitMix64 jitter hash
// (the record's prefix also reports out-of-space, no second pass), two
// space-saving updates, one hash-map probe, and one sincos pair + atan2 for
// the dispersion fold (the running-centroid distance comes straight from
// the accumulated unit-vector sum - no projected-back centroid, no
// Haversine) per record; no allocation after the per-botnet table warms up
// (the country key is a 2-byte SSO string). The database pointer is shared
// read-only across shards - under ShardedStreamEngine every shard's
// enricher reads the same mapping.
//
// Sharded-vs-single equivalence: records shard by botnet id, so each
// botnet's dispersion state is built on exactly one shard in feed order and
// Merge() is a union of disjoint tables - identical to a single engine
// while the tables stay under max_botnets (the cap bounds each shard, so a
// merged view can retain more botnets than one engine would have). The
// space-saving views merge under their documented error bounds.
//
// Enrichment state is a live view, never checkpointed: StreamEngine's
// serialization format carries no version field, and the state is fully
// re-derivable from the feed. A resumed run restarts its geo tallies from
// the resume point (documented in DESIGN.md).
#ifndef DDOSCOPE_STREAM_GEO_ENRICH_H_
#define DDOSCOPE_STREAM_GEO_ENRICH_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "data/records.h"
#include "geo/coord.h"
#include "geo/mmdb.h"
#include "obs/metrics.h"
#include "stream/sketch.h"

namespace ddos::stream {

struct GeoEnrichConfig {
  std::size_t topk_capacity = 256;  // space-saving counters per domain
  std::size_t max_botnets = 1024;   // bounded per-botnet dispersion table
};

struct GeoTopEntry {
  std::string label;
  std::uint64_t count = 0;  // upper bound (space-saving)
  std::uint64_t error = 0;  // count - error is a lower bound
};

struct BotnetGeoStat {
  std::uint32_t botnet_id = 0;
  std::uint64_t attacks = 0;
  geo::Coordinate centroid;          // running geographic center of targets
  double mean_distance_km = 0.0;     // mean target distance to the centroid
};

struct GeoEnrichSnapshot {
  std::uint64_t enriched = 0;        // records resolved through the database
  std::uint64_t out_of_space = 0;    // targets outside allocated /16 space
  std::uint64_t dropped_botnets = 0; // records past the max_botnets cap
  std::size_t tracked_botnets = 0;
  std::vector<GeoTopEntry> top_countries;   // by resolved target country
  std::vector<GeoTopEntry> top_asns;        // "AS<number>"
  std::vector<BotnetGeoStat> top_dispersed; // widest mean distance first
};

class GeoEnricher {
 public:
  GeoEnricher() = default;
  explicit GeoEnricher(const geo::GeoMmdb* db, const GeoEnrichConfig& config = {});

  // Hot path: resolves record.target_ip and folds the result in. The
  // database must outlive the enricher.
  void Enrich(const data::AttackRecord& record);

  // Folds another enricher's tallies in (see the equivalence note above).
  void Merge(const GeoEnricher& other);

  GeoEnrichSnapshot Snapshot(std::size_t top_k = 10) const;

  // Resolves the hot-path counter handles under {shard="<label>"}. The
  // aggregate gauges are published from the merged snapshot instead
  // (PublishGeoGauges below) so per-shard enrichers never fight over
  // unlabeled cells.
  void AttachMetrics(obs::MetricsRegistry* registry, std::string_view shard);

  const geo::GeoMmdb* db() const { return db_; }
  const GeoEnrichConfig& config() const { return config_; }
  std::uint64_t enriched() const { return enriched_; }
  std::size_t ApproxMemoryBytes() const;

 private:
  struct BotGeo {
    std::uint64_t attacks = 0;
    // Sum of 3-D unit vectors (the geodesy.h GeoCenter construction, kept
    // incrementally); normalizing yields the running centroid.
    double sx = 0.0, sy = 0.0, sz = 0.0;
    // Sum of each target's Haversine distance to the centroid as of its
    // arrival - a streaming approximation of mean distance-to-center.
    double dist_sum_km = 0.0;
  };

  const geo::GeoMmdb* db_ = nullptr;
  GeoEnrichConfig config_;
  std::uint64_t enriched_ = 0;
  std::uint64_t out_of_space_ = 0;
  std::uint64_t dropped_botnets_ = 0;
  SpaceSaving<std::string> countries_{256};
  SpaceSaving<std::uint32_t> asns_{256};
  std::unordered_map<std::uint32_t, BotGeo> botnets_;

  // Resolved obs handles (never serialized); null when unattached.
  obs::Counter* obs_enriched_ = nullptr;
  obs::Counter* obs_out_of_space_ = nullptr;
};

// Publishes a merged snapshot's aggregate geo view: tracked-botnet count and
// the top countries/ASNs as bounded dynamic-label gauges. Called by whoever
// renders the snapshot (the watch ticker, ddoscoped's status builder), at
// snapshot cadence - registry mutex and label rendering stay off the ingest
// path, and there is exactly one writer per cell. Null registry is a no-op.
void PublishGeoGauges(obs::MetricsRegistry* registry,
                      const GeoEnrichSnapshot& snap);

}  // namespace ddos::stream

#endif  // DDOSCOPE_STREAM_GEO_ENRICH_H_
