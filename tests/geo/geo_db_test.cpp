#include "geo/geo_db.h"

#include <bit>
#include <cstdint>
#include <set>
#include <string_view>

#include <gtest/gtest.h>

#include "common/binio.h"
#include "geo/geodesy.h"

namespace ddos::geo {
namespace {

const GeoDatabase& Db() {
  static const GeoDatabase db = GeoDatabase::MakeDefault(99);
  return db;
}

TEST(GeoDatabase, DeterministicForSameSeed) {
  const GeoDatabase a = GeoDatabase::MakeDefault(1);
  const GeoDatabase b = GeoDatabase::MakeDefault(1);
  Rng ra(5), rb(5);
  for (int i = 0; i < 50; ++i) {
    const net::IPv4Address ip_a = a.RandomAddress(ra);
    const net::IPv4Address ip_b = b.RandomAddress(rb);
    EXPECT_EQ(ip_a, ip_b);
    const GeoRecord rec_a = a.Lookup(ip_a);
    const GeoRecord rec_b = b.Lookup(ip_a);
    EXPECT_EQ(rec_a.country_code, rec_b.country_code);
    EXPECT_EQ(rec_a.asn, rec_b.asn);
    EXPECT_EQ(rec_a.organization, rec_b.organization);
  }
}

TEST(GeoDatabase, LookupIsStablePerAddress) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const net::IPv4Address ip = Db().RandomAddress(rng);
    const GeoRecord first = Db().Lookup(ip);
    const GeoRecord second = Db().Lookup(ip);
    EXPECT_EQ(first.location, second.location);
    EXPECT_EQ(first.city, second.city);
  }
}

TEST(GeoDatabase, RandomAddressInCountryIsInThatCountry) {
  Rng rng(11);
  for (const char* cc : {"US", "RU", "CN", "BW", "KG"}) {
    for (int i = 0; i < 20; ++i) {
      const net::IPv4Address ip = Db().RandomAddressInCountry(rng, cc);
      EXPECT_TRUE(Db().IsAllocated(ip));
      EXPECT_EQ(Db().Lookup(ip).country_code, cc);
    }
  }
}

TEST(GeoDatabase, RandomAddressInCountryThrowsForUnknown) {
  Rng rng(1);
  EXPECT_THROW(Db().RandomAddressInCountry(rng, "XX"), std::out_of_range);
}

TEST(GeoDatabase, BlocksForCountryContainTheirAddresses) {
  const auto blocks = Db().BlocksForCountry("NL");
  ASSERT_FALSE(blocks.empty());
  for (const net::Subnet& block : blocks) {
    EXPECT_EQ(block.prefix_length(), 16);
    const net::IPv4Address probe(block.network().bits() | 0x1234);
    EXPECT_TRUE(block.Contains(probe));
    EXPECT_EQ(Db().Lookup(probe).country_code, "NL");
  }
}

TEST(GeoDatabase, BlockAllocationFollowsWeight) {
  // The US has far more catalog weight than Botswana.
  EXPECT_GT(Db().BlocksForCountry("US").size(),
            5 * Db().BlocksForCountry("BW").size());
  EXPECT_GE(Db().BlocksForCountry("BW").size(), 1u);  // minimum one block
}

TEST(GeoDatabase, JitterStaysNearCity) {
  // Addresses in one /16 share a city; their coordinates stay within the
  // configured jitter of each other.
  const auto blocks = Db().BlocksForCountry("SG");
  ASSERT_FALSE(blocks.empty());
  const net::IPv4Address a(blocks[0].network().bits() | 1);
  const net::IPv4Address b(blocks[0].network().bits() | 60000);
  const GeoRecord ra = Db().Lookup(a);
  const GeoRecord rb = Db().Lookup(b);
  EXPECT_EQ(ra.city, rb.city);
  EXPECT_LT(HaversineKm(ra.location, rb.location), 120.0);
}

TEST(GeoDatabase, CoordinatesAreValid) {
  Rng rng(13);
  for (int i = 0; i < 300; ++i) {
    const GeoRecord rec = Db().Lookup(Db().RandomAddress(rng));
    EXPECT_TRUE(IsValid(rec.location))
        << rec.location.lat_deg << "," << rec.location.lon_deg;
  }
}

TEST(GeoDatabase, AsnsAreUniquePerBlock) {
  std::set<std::uint32_t> asns;
  for (const char* cc : {"US", "RU", "DE"}) {
    for (const net::Subnet& block : Db().BlocksForCountry(cc)) {
      const GeoRecord rec = Db().Lookup(net::IPv4Address(block.network().bits() | 1));
      EXPECT_TRUE(asns.insert(rec.asn.value()).second)
          << "duplicate ASN " << rec.asn.value();
    }
  }
}

TEST(GeoDatabase, OrganizationsEmbedCountryCode) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    const GeoRecord rec = Db().Lookup(Db().RandomAddressInCountry(rng, "DE"));
    EXPECT_EQ(rec.organization.substr(0, 3), "DE-") << rec.organization;
  }
}

TEST(GeoDatabase, UnallocatedLookupIsTotal) {
  // 10.x.x.x is never allocated (reserved), yet Lookup must return a record.
  const net::IPv4Address reserved = net::IPv4Address::FromOctets(10, 1, 2, 3);
  EXPECT_FALSE(Db().IsAllocated(reserved));
  const GeoRecord rec = Db().Lookup(reserved);
  EXPECT_FALSE(rec.country_code.empty());
}

TEST(GeoDatabase, ReservedRangesNeverAllocated) {
  for (int hi : {0, 10, 127, 169, 172, 192, 224, 255}) {
    const net::IPv4Address probe = net::IPv4Address::FromOctets(
        static_cast<std::uint8_t>(hi), 50, 1, 1);
    EXPECT_FALSE(Db().IsAllocated(probe)) << hi;
  }
}

// Pins GeoDatabase's own output. The compiled reader resolves through the
// same table and jitter function, so the mmdb equivalence tests cannot see
// a change here, yet Tables III and V and Figs 9 and 14 consume exactly
// these lookups. The digest is FNV-1a over every GeoRecord field (lat/lon
// as IEEE-754 bit patterns, each string length-prefixed) plus IsAllocated,
// across a 2^16-address multiplicative-stride sweep of the whole space.
TEST(GeoDatabase, LookupDigestIsPinned) {
  const GeoDatabase db = GeoDatabase::MakeDefault(42);
  io::Fnv1a64 digest;
  auto add_u64 = [&](std::uint64_t v) {
    char le[8];
    for (int i = 0; i < 8; ++i) le[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    digest.Update(le, sizeof(le));
  };
  auto add_string = [&](std::string_view s) {
    add_u64(s.size());
    digest.Update(s.data(), s.size());
  };
  for (std::uint32_t i = 0; i < (1u << 16); ++i) {
    const net::IPv4Address addr(i * 2654435761u);
    const GeoRecord rec = db.Lookup(addr);
    add_string(rec.country_code);
    add_string(rec.country_name);
    add_string(rec.city);
    add_u64(std::bit_cast<std::uint64_t>(rec.location.lat_deg));
    add_u64(std::bit_cast<std::uint64_t>(rec.location.lon_deg));
    add_u64(rec.asn.value());
    add_string(rec.organization);
    add_u64(static_cast<std::uint64_t>(rec.org_kind));
    add_u64(db.IsAllocated(addr) ? 1 : 0);
  }
  EXPECT_EQ(digest.digest(), 0x8b857f738708ebb1ULL);
}

TEST(GeoDatabase, RejectsZeroBlocks) {
  GeoDbConfig config;
  config.total_blocks = 0;
  EXPECT_THROW(GeoDatabase(WorldCatalog::Builtin(), config, 1),
               std::invalid_argument);
}

TEST(GeoDatabase, SyntheticCityCountScalesWithConfig) {
  GeoDbConfig small;
  small.extra_cities_per_weight = 0.0;
  const GeoDatabase db_small(WorldCatalog::Builtin(), small, 1);
  // With no synthetic cities, every lookup city must be a catalog anchor.
  Rng rng(3);
  const WorldCatalog& cat = WorldCatalog::Builtin();
  for (int i = 0; i < 50; ++i) {
    const GeoRecord rec = db_small.Lookup(db_small.RandomAddress(rng));
    const auto ci = cat.IndexOf(rec.country_code);
    ASSERT_TRUE(ci.has_value());
    bool found = false;
    for (const CitySpec& c : cat.at(*ci).cities) {
      if (c.name == rec.city) found = true;
    }
    EXPECT_TRUE(found) << rec.city;
  }
}

}  // namespace
}  // namespace ddos::geo
