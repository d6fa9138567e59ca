#include "stream/geo_enrich.h"

#include <algorithm>
#include <cmath>

#include "geo/geodesy.h"

namespace ddos::stream {

namespace {

constexpr double kDegToRad = 3.14159265358979323846 / 180.0;

geo::Coordinate CentroidOf(double sx, double sy, double sz,
                           const geo::Coordinate& fallback) {
  const double norm = std::sqrt(sx * sx + sy * sy + sz * sz);
  if (norm < 1e-9) return fallback;  // antipodal cancellation
  return geo::Coordinate{std::atan2(sz, std::sqrt(sx * sx + sy * sy)) / kDegToRad,
                         std::atan2(sy, sx) / kDegToRad};
}

}  // namespace

GeoEnricher::GeoEnricher(const geo::GeoMmdb* db, const GeoEnrichConfig& config)
    : db_(db),
      config_(config),
      countries_(config.topk_capacity),
      asns_(config.topk_capacity) {}

void GeoEnricher::Enrich(const data::AttackRecord& record) {
  bool allocated = false;  // one table read resolves record and coverage
  const geo::GeoRecord geo = db_->Lookup(record.target_ip, &allocated);
  ++enriched_;
  obs::MaybeAdd(obs_enriched_);
  if (!allocated) {
    ++out_of_space_;
    obs::MaybeAdd(obs_out_of_space_);
  }

  countries_.Add(std::string(geo.country_code));
  asns_.Add(geo.asn.value());

  auto it = botnets_.find(record.botnet_id);
  if (it == botnets_.end()) {
    if (botnets_.size() >= config_.max_botnets) {
      ++dropped_botnets_;
      return;
    }
    it = botnets_.emplace(record.botnet_id, BotGeo{}).first;
  }
  BotGeo& bot = it->second;
  const double lat = geo.location.lat_deg * kDegToRad;
  const double lon = geo.location.lon_deg * kDegToRad;
  const double cos_lat = std::cos(lat);
  const double vx = cos_lat * std::cos(lon);
  const double vy = cos_lat * std::sin(lon);
  const double vz = std::sin(lat);
  bot.sx += vx;
  bot.sy += vy;
  bot.sz += vz;
  ++bot.attacks;
  // Distance to the running centroid straight from the vector sum: the
  // centroid's direction is `s` normalized, and atan2(|s x v|, s . v) is
  // the central angle between the target and that direction - |s| cancels,
  // so the only trig beyond the unit vector above is this one atan2 (a
  // projected-back centroid plus Haversine would cost six more calls).
  const double norm2 = bot.sx * bot.sx + bot.sy * bot.sy + bot.sz * bot.sz;
  if (norm2 > 1e-18) {  // antipodal cancellation: no usable centroid
    const double cx = bot.sy * vz - bot.sz * vy;
    const double cy = bot.sz * vx - bot.sx * vz;
    const double cz = bot.sx * vy - bot.sy * vx;
    const double cross = std::sqrt(cx * cx + cy * cy + cz * cz);
    const double dot = bot.sx * vx + bot.sy * vy + bot.sz * vz;
    bot.dist_sum_km += geo::kEarthRadiusKm * std::atan2(cross, dot);
  }
}

void GeoEnricher::Merge(const GeoEnricher& other) {
  enriched_ += other.enriched_;
  out_of_space_ += other.out_of_space_;
  dropped_botnets_ += other.dropped_botnets_;
  countries_.Merge(other.countries_);
  asns_.Merge(other.asns_);
  for (const auto& [id, bot] : other.botnets_) {
    BotGeo& mine = botnets_[id];
    mine.attacks += bot.attacks;
    mine.sx += bot.sx;
    mine.sy += bot.sy;
    mine.sz += bot.sz;
    mine.dist_sum_km += bot.dist_sum_km;
  }
}

GeoEnrichSnapshot GeoEnricher::Snapshot(std::size_t top_k) const {
  GeoEnrichSnapshot snap;
  snap.enriched = enriched_;
  snap.out_of_space = out_of_space_;
  snap.dropped_botnets = dropped_botnets_;
  snap.tracked_botnets = botnets_.size();
  for (const auto& e : countries_.TopK(top_k)) {
    snap.top_countries.push_back(GeoTopEntry{e.key, e.count, e.error});
  }
  for (const auto& e : asns_.TopK(top_k)) {
    snap.top_asns.push_back(
        GeoTopEntry{"AS" + std::to_string(e.key), e.count, e.error});
  }
  snap.top_dispersed.reserve(botnets_.size());
  for (const auto& [id, bot] : botnets_) {
    BotnetGeoStat stat;
    stat.botnet_id = id;
    stat.attacks = bot.attacks;
    stat.centroid = CentroidOf(bot.sx, bot.sy, bot.sz, geo::Coordinate{});
    stat.mean_distance_km =
        bot.attacks > 0 ? bot.dist_sum_km / static_cast<double>(bot.attacks) : 0.0;
    snap.top_dispersed.push_back(stat);
  }
  std::sort(snap.top_dispersed.begin(), snap.top_dispersed.end(),
            [](const BotnetGeoStat& a, const BotnetGeoStat& b) {
              if (a.mean_distance_km != b.mean_distance_km) {
                return a.mean_distance_km > b.mean_distance_km;
              }
              return a.botnet_id < b.botnet_id;  // deterministic ties
            });
  if (snap.top_dispersed.size() > top_k) snap.top_dispersed.resize(top_k);
  return snap;
}

void GeoEnricher::AttachMetrics(obs::MetricsRegistry* registry,
                                std::string_view shard) {
  if (registry == nullptr) return;
  const obs::Labels labels = {{"shard", std::string(shard)}};
  obs_enriched_ = registry->GetCounter(
      "ddoscope_geo_enriched_total",
      "Records geo-tagged through the compiled database", labels);
  obs_out_of_space_ = registry->GetCounter(
      "ddoscope_geo_out_of_space_total",
      "Enriched records whose target fell outside allocated /16 space",
      labels);
}

void PublishGeoGauges(obs::MetricsRegistry* registry,
                      const GeoEnrichSnapshot& snap) {
  if (registry == nullptr) return;
  registry
      ->GetGauge("ddoscope_geo_tracked_botnets",
                 "Botnets with live geo-dispersion state")
      ->Set(static_cast<std::int64_t>(snap.tracked_botnets));
  for (const GeoTopEntry& e : snap.top_countries) {
    registry
        ->GetGauge("ddoscope_geo_country_attacks",
                   "Attacks per resolved target country (top-k, upper bound)",
                   {{"cc", e.label}})
        ->Set(static_cast<std::int64_t>(e.count));
  }
  for (const GeoTopEntry& e : snap.top_asns) {
    registry
        ->GetGauge("ddoscope_geo_asn_attacks",
                   "Attacks per resolved target ASN (top-k, upper bound)",
                   {{"asn", e.label}})
        ->Set(static_cast<std::int64_t>(e.count));
  }
}

std::size_t GeoEnricher::ApproxMemoryBytes() const {
  return sizeof(*this) + countries_.ApproxMemoryBytes() +
         asns_.ApproxMemoryBytes() +
         botnets_.size() * (sizeof(std::uint32_t) + sizeof(BotGeo) + 16);
}

}  // namespace ddos::stream
