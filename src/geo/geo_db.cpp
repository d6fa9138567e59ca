#include "geo/geo_db.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/strings.h"

namespace ddos::geo {

namespace {

// First octets excluded from allocation: reserved/special-use ranges.
bool IsReservedFirstOctet(int octet) {
  return octet == 0 || octet == 10 || octet == 127 || octet == 169 ||
         octet == 172 || octet == 192 || octet >= 224;
}

// Stable per-address hash for jitter and the out-of-space fallback
// (independent of Rng stream position).
std::uint64_t MixBits(std::uint64_t x) {
  SplitMix64 sm(x);
  return sm.Next();
}

}  // namespace

Coordinate JitteredLocation(Coordinate center, std::uint64_t seed,
                            double jitter_deg, std::uint32_t addr_bits) {
  const std::uint64_t h = MixBits(seed ^ (0x9e3779b97f4a7c15ULL * addr_bits));
  const double jx =
      (static_cast<double>(h & 0xffffffffu) / 4294967296.0 - 0.5) * 2.0 * jitter_deg;
  const double jy =
      (static_cast<double>(h >> 32) / 4294967296.0 - 0.5) * 2.0 * jitter_deg;
  Coordinate loc{std::clamp(center.lat_deg + jy, -89.9, 89.9), center.lon_deg + jx};
  while (loc.lon_deg >= 180.0) loc.lon_deg -= 360.0;
  while (loc.lon_deg < -180.0) loc.lon_deg += 360.0;
  return loc;
}

GeoDatabase::GeoDatabase(const WorldCatalog& catalog, const GeoDbConfig& config,
                         std::uint64_t seed)
    : catalog_(catalog), config_(config), seed_(seed) {
  if (config.total_blocks <= 0) {
    throw std::invalid_argument("GeoDatabase: total_blocks must be > 0");
  }
  Rng rng(seed ^ 0x6eed5eedULL);

  // --- City tables: catalog anchors plus synthetic satellite cities. ---
  cities_.resize(catalog.size());
  for (std::size_t ci = 0; ci < catalog.size(); ++ci) {
    const CountrySpec& country = catalog.at(ci);
    auto& table = cities_[ci];
    for (const CitySpec& city : country.cities) {
      table.push_back(CityEntry{city.name, city.location, city.weight});
    }
    const int extra = static_cast<int>(country.weight * config.extra_cities_per_weight);
    Rng city_rng = rng.Fork(0x1000 + ci);
    for (int k = 0; k < extra; ++k) {
      // Satellite cities scatter around a weighted anchor within ~3 degrees.
      std::vector<double> anchor_weights;
      anchor_weights.reserve(country.cities.size());
      for (const CitySpec& city : country.cities) anchor_weights.push_back(city.weight);
      const std::size_t a = city_rng.Categorical(anchor_weights);
      Coordinate c = country.cities[a].location;
      c.lat_deg += city_rng.Uniform(-3.0, 3.0);
      c.lon_deg += city_rng.Uniform(-3.0, 3.0);
      c.lat_deg = std::clamp(c.lat_deg, -89.0, 89.0);
      while (c.lon_deg >= 180.0) c.lon_deg -= 360.0;
      while (c.lon_deg < -180.0) c.lon_deg += 360.0;
      table.push_back(CityEntry{StrFormat("%s-City-%02d", country.code.c_str(), k + 1),
                                c, 0.25});
    }
  }

  // --- Candidate /16 prefixes, deterministically shuffled. ---
  std::vector<std::uint16_t> candidates;
  candidates.reserve(56000);
  for (int hi = 1; hi < 224; ++hi) {
    if (IsReservedFirstOctet(hi)) continue;
    for (int lo = 0; lo < 256; ++lo) {
      candidates.push_back(static_cast<std::uint16_t>((hi << 8) | lo));
    }
  }
  Rng shuffle_rng = rng.Fork(0x2000);
  shuffle_rng.Shuffle(candidates);
  const int total_blocks =
      std::min<int>(config.total_blocks, static_cast<int>(candidates.size()));

  // --- Proportional block quotas (largest-remainder, minimum 1). ---
  std::vector<int> quota(catalog.size(), 1);
  int assigned = static_cast<int>(catalog.size());
  if (assigned > total_blocks) {
    throw std::invalid_argument("GeoDatabase: total_blocks below country count");
  }
  std::vector<std::pair<double, std::size_t>> remainders;
  for (std::size_t ci = 0; ci < catalog.size(); ++ci) {
    const double share = catalog.at(ci).weight / catalog.total_weight() *
                         static_cast<double>(total_blocks - assigned);
    quota[ci] += static_cast<int>(share);
    assigned += static_cast<int>(share);
    remainders.emplace_back(share - std::floor(share), ci);
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; assigned < total_blocks && i < remainders.size(); ++i) {
    ++quota[remainders[i].second];
    ++assigned;
  }

  // --- Materialize blocks. ---
  country_blocks_.resize(catalog.size());
  std::vector<int> org_counter(catalog.size(), 0);
  Rng block_rng = rng.Fork(0x3000);
  std::size_t next_candidate = 0;
  std::uint32_t next_asn = 1000;
  static constexpr OrgKind kKinds[] = {
      OrgKind::kResidentialIsp, OrgKind::kResidentialIsp, OrgKind::kResidentialIsp,
      OrgKind::kWebHosting,     OrgKind::kWebHosting,     OrgKind::kCloudProvider,
      OrgKind::kDataCenter,     OrgKind::kEnterprise,     OrgKind::kBackbone,
      OrgKind::kDomainRegistrar};
  for (std::size_t ci = 0; ci < catalog.size(); ++ci) {
    std::vector<double> city_weights;
    city_weights.reserve(cities_[ci].size());
    for (const CityEntry& e : cities_[ci]) city_weights.push_back(e.weight);
    for (int q = 0; q < quota[ci]; ++q) {
      Block b;
      b.prefix = candidates[next_candidate++];
      b.country = static_cast<std::uint32_t>(ci);
      b.city = static_cast<std::uint32_t>(block_rng.Categorical(city_weights));
      b.asn = net::Asn(next_asn++);
      b.org_kind = kKinds[block_rng.UniformInt(0, std::ssize(kKinds) - 1)];
      b.organization =
          MakeOrgName(catalog.at(ci).code, b.org_kind, ++org_counter[ci]);
      country_blocks_[ci].push_back(static_cast<std::uint32_t>(blocks_.size()));
      blocks_.push_back(std::move(b));
    }
  }

  // --- The /16 table: every prefix gets its out-of-space fallback, then
  // the allocated ones are overwritten with their own block. ---
  prefix_to_block_.resize(65536);
  for (std::uint32_t p = 0; p < 65536; ++p) {
    prefix_to_block_[p] =
        static_cast<std::uint16_t>(MixBits(seed_ ^ p) % blocks_.size());
  }
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    prefix_to_block_[blocks_[i].prefix] = static_cast<std::uint16_t>(i);
  }
}

GeoDatabase GeoDatabase::MakeDefault(std::uint64_t seed) {
  return GeoDatabase(WorldCatalog::Builtin(), GeoDbConfig{}, seed);
}

const GeoDatabase::Block& GeoDatabase::BlockForAddress(net::IPv4Address addr) const {
  return blocks_[prefix_to_block_[addr.bits() >> 16]];
}

bool GeoDatabase::IsAllocated(net::IPv4Address addr) const {
  return BlockForAddress(addr).prefix == addr.bits() >> 16;
}

GeoRecord GeoDatabase::Lookup(net::IPv4Address addr) const {
  const Block& b = BlockForAddress(addr);
  const CountrySpec& country = catalog_.at(b.country);
  const CityEntry& city = cities_[b.country][b.city];
  return GeoRecord{country.code,
                   country.name,
                   city.name,
                   JitteredLocation(city.center, seed_,
                                    config_.address_jitter_deg, addr.bits()),
                   b.asn,
                   b.organization,
                   b.org_kind};
}

net::IPv4Address GeoDatabase::RandomAddressInCountry(Rng& rng,
                                                     std::string_view code) const {
  const auto ci = catalog_.IndexOf(code);
  if (!ci) throw std::out_of_range("GeoDatabase: unknown country " + std::string(code));
  const auto& blocks = country_blocks_[*ci];
  const auto& b = blocks_[blocks[static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<std::int64_t>(blocks.size()) - 1))]];
  const std::uint32_t suffix = static_cast<std::uint32_t>(rng.UniformInt(1, 65534));
  return net::IPv4Address((std::uint32_t{b.prefix} << 16) | suffix);
}

net::IPv4Address GeoDatabase::RandomAddress(Rng& rng) const {
  std::vector<double> weights;
  weights.reserve(catalog_.size());
  for (const CountrySpec& c : catalog_.countries()) weights.push_back(c.weight);
  const std::size_t ci = rng.Categorical(weights);
  return RandomAddressInCountry(rng, catalog_.at(ci).code);
}

std::vector<net::Subnet> GeoDatabase::BlocksForCountry(std::string_view code) const {
  const auto ci = catalog_.IndexOf(code);
  if (!ci) throw std::out_of_range("GeoDatabase: unknown country " + std::string(code));
  std::vector<net::Subnet> out;
  out.reserve(country_blocks_[*ci].size());
  for (std::uint32_t bi : country_blocks_[*ci]) {
    out.emplace_back(net::IPv4Address(std::uint32_t{blocks_[bi].prefix} << 16), 16);
  }
  return out;
}

}  // namespace ddos::geo
