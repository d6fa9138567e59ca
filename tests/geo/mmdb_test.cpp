#include "geo/mmdb.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "geo/geo_db.h"
#include "net/ipv4.h"
#include "test_support.h"

namespace ddos::geo {
namespace {

std::string TempPath(const std::string& name) {
  return ::ddos::testing::TestTempPath(name);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// Bit-equal comparison for doubles: the contract is bit-identity, not
// epsilon-closeness, so -0.0 vs 0.0 or a 1-ulp drift must fail.
void ExpectBitEqual(double a, double b, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

void ExpectSameRecord(const GeoRecord& synth, const GeoRecord& mmdb,
                      std::uint32_t bits) {
  const std::string ctx = "addr " + net::IPv4Address(bits).ToString();
  EXPECT_EQ(synth.country_code, mmdb.country_code) << ctx;
  EXPECT_EQ(synth.country_name, mmdb.country_name) << ctx;
  EXPECT_EQ(synth.city, mmdb.city) << ctx;
  ExpectBitEqual(synth.location.lat_deg, mmdb.location.lat_deg, ctx + " lat");
  ExpectBitEqual(synth.location.lon_deg, mmdb.location.lon_deg, ctx + " lon");
  EXPECT_EQ(synth.asn, mmdb.asn) << ctx;
  EXPECT_EQ(synth.organization, mmdb.organization) << ctx;
  EXPECT_EQ(synth.org_kind, mmdb.org_kind) << ctx;
}

class MmdbTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new GeoDatabase(GeoDatabase::MakeDefault(0xfeedULL));
    path_ = TempPath("mmdb_test.geo");
    CompileGeoDatabase(*db_, path_);
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
    std::remove(path_.c_str());
  }

  static GeoDatabase* db_;
  static std::string path_;
};

GeoDatabase* MmdbTest::db_ = nullptr;
std::string MmdbTest::path_;

TEST_F(MmdbTest, OpenReportsCompiledShape) {
  const GeoMmdb mmdb = GeoMmdb::Open(path_);
  EXPECT_EQ(mmdb.record_count(),
            static_cast<std::uint32_t>(db_->block_count()));
  EXPECT_EQ(mmdb.country_count(),
            static_cast<std::uint32_t>(db_->catalog().size()));
  EXPECT_EQ(mmdb.seed(), 0xfeedULL);
  EXPECT_EQ(mmdb.size_bytes(), ReadFile(path_).size());
}

// The compiled file agrees with the synthetic database bit-for-bit at
// every /16 boundary and one address to each side of it. Both readers share
// the table and the jitter function, so this checks the encoding: every
// table entry, every record field (including the prefix IsAllocated reads)
// and the seed and jitter config carried in the header.
TEST_F(MmdbTest, FullKeyspaceEquivalenceAtEveryBoundary) {
  const GeoMmdb mmdb = GeoMmdb::Open(path_);
  for (std::uint32_t p = 0; p < 65536; ++p) {
    const std::uint32_t base = p << 16;
    for (const std::uint32_t bits : {base, base + 1, base + 0xffffu}) {
      const net::IPv4Address addr(bits);
      ExpectSameRecord(db_->Lookup(addr), mmdb.Lookup(addr), bits);
      ASSERT_EQ(db_->IsAllocated(addr), mmdb.IsAllocated(addr))
          << net::IPv4Address(bits).ToString();
    }
    if (HasFailure()) break;  // one broken prefix is enough diagnostics
  }
}

TEST_F(MmdbTest, EquivalenceHoldsForNonDefaultConfigAndSeed) {
  GeoDbConfig config;
  config.total_blocks = 500;
  config.address_jitter_deg = 0.8;
  const GeoDatabase db(WorldCatalog::Builtin(), config, 42);
  const std::string path = TempPath("mmdb_alt.geo");
  CompileGeoDatabase(db, path);
  const GeoMmdb mmdb = GeoMmdb::Open(path);
  EXPECT_EQ(mmdb.record_count(), 500u);
  for (std::uint32_t p = 0; p < 65536; p += 7) {
    const std::uint32_t bits = (p << 16) | (p * 2654435761u >> 16);
    ExpectSameRecord(db.Lookup(net::IPv4Address(bits)),
                     mmdb.Lookup(net::IPv4Address(bits)), bits);
  }
  std::remove(path.c_str());
}

TEST_F(MmdbTest, CompilationIsDeterministic) {
  const std::string again = TempPath("mmdb_again.geo");
  CompileGeoDatabase(*db_, again);
  EXPECT_EQ(ReadFile(path_), ReadFile(again));
  std::remove(again.c_str());
}

TEST_F(MmdbTest, CompileStagesAtomically) {
  const std::string path = TempPath("mmdb_atomic.geo");
  CompileGeoDatabase(*db_, path);
  // The stage file must be gone once the final file is published.
  std::ifstream stage(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(stage.good());
  EXPECT_NO_THROW(GeoMmdb::Open(path));
  std::remove(path.c_str());
}

TEST_F(MmdbTest, MovedReaderStillServesLookups) {
  GeoMmdb a = GeoMmdb::Open(path_);
  const GeoRecord before = a.Lookup(net::IPv4Address(0x08080808));
  GeoMmdb b = std::move(a);
  GeoMmdb c;
  c = std::move(b);
  ExpectSameRecord(before, c.Lookup(net::IPv4Address(0x08080808)), 0x08080808);
}

// --- Corruption taxonomy (mirrors the binrecords sweep). ---

GeoFormatError::Kind OpenKind(const std::string& path) {
  try {
    GeoMmdb::Open(path);
  } catch (const GeoFormatError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected GeoFormatError for " << path;
  return GeoFormatError::Kind::kCorruptField;
}

TEST_F(MmdbTest, BadMagicIsTyped) {
  std::string bytes = ReadFile(path_);
  bytes[0] = 'X';
  const std::string path = TempPath("mmdb_badmagic.geo");
  WriteFile(path, bytes);
  EXPECT_EQ(OpenKind(path), GeoFormatError::Kind::kBadMagic);
  std::remove(path.c_str());
}

TEST_F(MmdbTest, UnsupportedVersionIsTyped) {
  // Version 1 (the prefix-trie layout) is refused like any unknown version:
  // a compiled file is derived data and is recompiled, not read.
  const std::string path = TempPath("mmdb_badversion.geo");
  for (const char version : {1, 99}) {
    std::string bytes = ReadFile(path_);
    bytes[8] = version;  // version field, little-endian low byte
    WriteFile(path, bytes);
    try {
      GeoMmdb::Open(path);
      ADD_FAILURE() << "version " << int{version} << " was opened";
    } catch (const GeoFormatError& e) {
      EXPECT_EQ(e.kind(), GeoFormatError::Kind::kUnsupportedVersion);
      EXPECT_NE(std::string(e.what()).find("ddoscope geo compile"),
                std::string::npos)
          << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST_F(MmdbTest, TruncationAtEveryBoundaryIsTyped) {
  const std::string bytes = ReadFile(path_);
  const std::string path = TempPath("mmdb_truncated.geo");
  std::vector<std::size_t> cuts;
  for (std::size_t i = 0; i <= 96; ++i) cuts.push_back(i);  // header region
  cuts.push_back(bytes.size() / 2);
  cuts.push_back(bytes.size() - 9);  // ends inside the checksum
  cuts.push_back(bytes.size() - 8);
  cuts.push_back(bytes.size() - 1);
  for (const std::size_t cut : cuts) {
    WriteFile(path, bytes.substr(0, cut));
    EXPECT_EQ(OpenKind(path), GeoFormatError::Kind::kTruncated)
        << "cut at " << cut;
  }
  std::remove(path.c_str());
}

TEST_F(MmdbTest, PayloadBitFlipsAreChecksumMismatches) {
  const std::string bytes = ReadFile(path_);
  const std::string path = TempPath("mmdb_bitflip.geo");
  // Sample offsets across every section: table, records, countries, strings,
  // the reserved/seed header fields, and the checksum trailer itself.
  std::vector<std::size_t> offsets = {16, 24, 47, 88, bytes.size() - 4};
  for (std::size_t off = 96; off + 9 < bytes.size(); off += bytes.size() / 13) {
    offsets.push_back(off);
  }
  for (const std::size_t off : offsets) {
    std::string corrupt = bytes;
    corrupt[off] = static_cast<char>(corrupt[off] ^ 0x10);
    WriteFile(path, corrupt);
    EXPECT_EQ(OpenKind(path), GeoFormatError::Kind::kChecksumMismatch)
        << "flip at " << off;
  }
  std::remove(path.c_str());
}

TEST_F(MmdbTest, EveryBitFlipYieldsATypedError) {
  // Flips that land in the size-bearing header fields surface as truncation
  // or corrupt-field instead of checksum mismatch; all must stay typed.
  const std::string bytes = ReadFile(path_);
  const std::string path = TempPath("mmdb_anyflip.geo");
  std::vector<std::size_t> offsets = {48, 56, 64, 72, 80, 87};  // size fields
  for (std::size_t off = 0; off < bytes.size(); off += 257) offsets.push_back(off);
  for (const std::size_t off : offsets) {
    std::string corrupt = bytes;
    corrupt[off] = static_cast<char>(corrupt[off] ^ 0x01);
    WriteFile(path, corrupt);
    EXPECT_THROW(GeoMmdb::Open(path), GeoFormatError) << "flip at " << off;
  }
  std::remove(path.c_str());
}

TEST_F(MmdbTest, TrailingGarbageIsCorruptField) {
  std::string bytes = ReadFile(path_);
  bytes.push_back('\0');
  const std::string path = TempPath("mmdb_trailing.geo");
  WriteFile(path, bytes);
  EXPECT_EQ(OpenKind(path), GeoFormatError::Kind::kCorruptField);
  std::remove(path.c_str());
}

std::uint64_t LoadLe(const std::string& bytes, std::size_t at, int width) {
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[at + i]))
         << (8 * i);
  }
  return v;
}

void StoreLe(std::string& bytes, std::size_t at, int width, std::uint64_t v) {
  for (int i = 0; i < width; ++i) {
    bytes[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

// Re-signs a mutated file with the format's checksum: 4-lane FNV-1a 64 over
// LE u64 words (lane j takes words j, j+4, ...; zero-padded tail), lanes
// folded in order. Mirrors GeoChecksum in geo/mmdb.cpp.
void Resign(std::string& bytes) {
  const std::size_t payload = bytes.size() - 8;
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t lane[4] = {0xcbf29ce484222325ULL, 0xcbf29ce484222325ULL,
                           0xcbf29ce484222325ULL, 0xcbf29ce484222325ULL};
  const std::size_t words = (payload + 7) / 8;
  for (std::size_t w = 0; w < words; ++w) {
    const int width = static_cast<int>(std::min<std::size_t>(8, payload - w * 8));
    lane[w % 4] = (lane[w % 4] ^ LoadLe(bytes, w * 8, width)) * kPrime;
  }
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint64_t l : lane) hash = (hash ^ l) * kPrime;
  StoreLe(bytes, payload, 8, hash);
}

TEST_F(MmdbTest, StructuralCorruptionWithValidChecksumIsCorruptField) {
  // Each case re-signs a file whose structure is inconsistent: the
  // checksum passes, the structural validation must not.
  const std::string good = ReadFile(path_);
  const std::size_t table_offset = LoadLe(good, 48, 8);
  const std::size_t record_offset = LoadLe(good, 56, 8);
  const std::uint64_t records = LoadLe(good, 36, 4);
  const std::string path = TempPath("mmdb_structural.geo");
  auto expect_corrupt = [&](const std::string& what, auto&& mutate) {
    std::string bytes = good;
    mutate(bytes);
    Resign(bytes);
    WriteFile(path, bytes);
    EXPECT_EQ(OpenKind(path), GeoFormatError::Kind::kCorruptField) << what;
  };
  expect_corrupt("record country index past the country table",
                 [&](std::string& b) { StoreLe(b, record_offset, 4, 0xffffffffu); });
  expect_corrupt("table entry at the record count", [&](std::string& b) {
    StoreLe(b, table_offset + 2 * 0x0a01, 2, records);  // 10.1/16
  });
  expect_corrupt("record prefix that does not map back", [&](std::string& b) {
    // Record 0 claims the /16 that record 1 owns.
    const std::uint64_t prefix1 = LoadLe(b, record_offset + 36 + 34, 2);
    StoreLe(b, record_offset + 34, 2, prefix1);
  });
  std::remove(path.c_str());
}

TEST_F(MmdbTest, EmptyFileIsTruncated) {
  const std::string path = TempPath("mmdb_empty.geo");
  WriteFile(path, "");
  EXPECT_EQ(OpenKind(path), GeoFormatError::Kind::kTruncated);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ddos::geo
