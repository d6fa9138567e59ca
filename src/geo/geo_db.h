// Deterministic synthetic IP-geolocation database.
//
// Stands in for the commercial Digital Envoy / Digital Element service the
// paper used (Section II-C): a stable mapping from IPv4 address to
// (country, city, coordinates, ASN, organization). The database partitions
// the unicast IPv4 space into /16 blocks, allocates blocks to countries
// proportionally to their catalog weight, and gives every block a city, an
// autonomous system number and an organization. Within a block, individual
// addresses get a small deterministic coordinate jitter around the city
// center so bot populations are not point masses.
//
// Everything is derived from (catalog, config, seed); two databases built
// with the same inputs agree on every lookup, which is what makes the whole
// reproduction pipeline replayable.
#ifndef DDOSCOPE_GEO_GEO_DB_H_
#define DDOSCOPE_GEO_GEO_DB_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "geo/catalog.h"
#include "geo/coord.h"
#include "net/ipv4.h"

namespace ddos::geo {

struct GeoDbConfig {
  // Number of /16 blocks to allocate across all countries. Sized so that a
  // 7-month trace touches a few thousand distinct organizations/ASNs, the
  // scale Table III reports.
  int total_blocks = 3800;
  // Synthetic extra cities generated per unit of country weight, on top of
  // the catalog's anchor cities (the paper observes 2,897 attacker cities;
  // anchors alone are ~150).
  double extra_cities_per_weight = 2.0;
  // Max absolute lat/lon jitter applied per address around its city (deg).
  double address_jitter_deg = 0.35;
};

// What a lookup returns. String views point into the database and remain
// valid for its lifetime.
struct GeoRecord {
  std::string_view country_code;
  std::string_view country_name;
  std::string_view city;
  Coordinate location;  // city center + per-address jitter
  net::Asn asn;
  std::string_view organization;
  OrgKind org_kind;
};

// The location a lookup reports for the address `addr_bits`: `center` plus
// a deterministic SplitMix64 jitter of up to +/-jitter_deg on each axis,
// latitude clamped to +/-89.9 and longitude wrapped into [-180, 180).
// GeoDatabase and the compiled reader (geo/mmdb.h) both call this, which
// is what keeps their lookups bit-identical.
Coordinate JitteredLocation(Coordinate center, std::uint64_t seed,
                            double jitter_deg, std::uint32_t addr_bits);

class GeoDatabase {
 public:
  // geo/mmdb.h serializes the full lookup state (/16 table, blocks,
  // resolved cities, seed, jitter config) into the compiled binary format.
  friend class MmdbCompiler;

  GeoDatabase(const WorldCatalog& catalog, const GeoDbConfig& config,
              std::uint64_t seed);

  // Convenience: builtin catalog, default config.
  static GeoDatabase MakeDefault(std::uint64_t seed);

  // Maps any address inside an allocated block. Addresses outside allocated
  // space are mapped to their nearest allocated block deterministically (the
  // generator only emits in-space addresses; this keeps Lookup total).
  GeoRecord Lookup(net::IPv4Address addr) const;

  // True if `addr` falls inside an allocated /16 block, i.e. the block its
  // /16 resolves to has that /16 as its prefix.
  bool IsAllocated(net::IPv4Address addr) const;

  // A uniformly random address inside the given country's allocation.
  // Throws std::out_of_range for unknown country codes.
  net::IPv4Address RandomAddressInCountry(Rng& rng, std::string_view code) const;

  // A random address with countries weighted by catalog weight.
  net::IPv4Address RandomAddress(Rng& rng) const;

  // All /16 blocks allocated to a country (useful for "same subnet" events).
  std::vector<net::Subnet> BlocksForCountry(std::string_view code) const;

  const WorldCatalog& catalog() const { return catalog_; }
  int block_count() const { return static_cast<int>(blocks_.size()); }

 private:
  struct CityEntry {
    std::string name;
    Coordinate center;
    double weight;
  };
  struct Block {
    std::uint16_t prefix;  // high 16 bits of the /16
    std::uint32_t country;
    std::uint32_t city;  // index into per-country city table
    net::Asn asn;
    std::string organization;
    OrgKind org_kind;
  };

  const Block& BlockForAddress(net::IPv4Address addr) const;

  const WorldCatalog& catalog_;
  GeoDbConfig config_;
  std::uint64_t seed_;
  std::vector<std::vector<CityEntry>> cities_;       // per country
  std::vector<Block> blocks_;                        // allocation order
  // 65536 entries, one per /16, indexing blocks_. Allocated prefixes point
  // at their block; unallocated ones carry their hash fallback, resolved
  // once at construction, so a lookup is one array read either way. u16 is
  // enough: at most 55,808 /16s are candidates. geo/mmdb.h writes this
  // vector verbatim as the compiled file's table.
  std::vector<std::uint16_t> prefix_to_block_;
  std::vector<std::vector<std::uint32_t>> country_blocks_;  // per country
};

}  // namespace ddos::geo

#endif  // DDOSCOPE_GEO_GEO_DB_H_
