// Compiled, memory-mapped IP-geolocation database (mmdb-style).
//
// GeoDatabase derives its entire lookup state from (catalog, config, seed)
// at construction - milliseconds of RNG-driven allocation that every
// process, shard sweep, and bench run pays again. This module compiles that
// state once into a versioned, checksummed binary file and serves lookups
// straight out of a read-only mapping: open is O(validation), a lookup is
// one /16 table read plus one record read, and the mapping is shareable
// across shards and processes (common/mmapio.h).
//
// Lookup is bit-identical to GeoDatabase::Lookup over the entire address
// space by construction: the file's table is GeoDatabase's own /16 table
// (out-of-space fallback already resolved), its records are GeoDatabase's
// blocks in allocation order, and both readers derive the per-address
// location through the one JitteredLocation (geo/geo_db.h) from the seed
// and jitter config the file carries. That is the contract that lets the
// streaming hot path enrich records live (stream/geo_enrich.h) while the
// batch analyses keep using the synthetic database interchangeably.
//
// File layout (all integers little-endian, common/binio.h):
//
//   offset  size  field
//   0       8     magic "DDGEOMDB"
//   8       4     format version (2)
//   12      4     reserved (0)
//   16      8     generator seed
//   24      8     address_jitter_deg (IEEE-754 bit pattern)
//   32      4     table entry count (always 65,536)
//   36      4     record count (allocated /16 blocks, allocation order)
//   40      4     country count
//   44      4     reserved (0)
//   48      8     table section offset
//   56      8     record section offset
//   64      8     country section offset
//   72      8     string table offset
//   80      8     string table size in bytes
//   88      ...   sections, contiguous in the order above
//   end-8   8     checksum of every preceding byte: FNV-1a 64 in four
//                 interleaved lanes over little-endian u64 words (lane j
//                 hashes words j, j+4, ...; zero-padded tail word), lanes
//                 folded in order with one FNV step each - word lanes keep
//                 Open's validation at memory speed where byte-serial FNV
//                 would dominate it
//
// Table section: 65,536 u16 record indices, one per /16 (index = the
// address's high 16 bits). Unallocated /16s hold their fallback record.
//
// Record section: fixed 36-byte entries - u32 country index, u32 city-name
// string ref, f64 city latitude, f64 city longitude, u32 ASN, u32
// organization string ref, u16 org kind, u16 the block's /16 prefix. An
// address is allocated exactly when its record's prefix equals its own
// /16, so one table read and one record read answer Lookup and IsAllocated
// together. Country section: 8-byte entries - u32 code string ref, u32 name
// string ref. String table: deduplicated entries of u32 length + bytes; a
// "string ref" is the byte offset of an entry from the table start.
//
// Version policy and failure taxonomy follow data/binrecords.h: the version
// names the whole layout, and readers refuse every other version - a
// compiled file is derived data, so an old one is recompiled (`ddoscope geo
// compile`), not read. Every way a file can be refused is a typed
// GeoFormatError - magic and version are checked first, then the declared
// size (truncation), then the checksum (bit rot), and only then the
// structure, so a corrupt field diagnosis means the bytes checksummed clean
// but are internally inconsistent. The compiler stages to `path + ".tmp"`
// and renames into place, so a crash mid-compile never leaves a torn file
// at the final path.
#ifndef DDOSCOPE_GEO_MMDB_H_
#define DDOSCOPE_GEO_MMDB_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/mmapio.h"
#include "geo/geo_db.h"
#include "net/ipv4.h"

namespace ddos::geo {

inline constexpr std::string_view kGeoMmdbMagic = "DDGEOMDB";
inline constexpr std::uint32_t kGeoMmdbVersion = 2;

// Typed failure: every way a compiled geo file can be refused.
class GeoFormatError : public std::runtime_error {
 public:
  enum class Kind : std::uint8_t {
    kBadMagic,            // not a DDGEOMDB file
    kUnsupportedVersion,  // written by a newer (or unknown) layout
    kTruncated,           // file shorter than its declared layout
    kChecksumMismatch,    // bytes do not match the trailing checksum
    kCorruptField,        // checksum fine but the structure is inconsistent
  };

  GeoFormatError(Kind kind, const std::string& what)
      : std::runtime_error("geo/mmdb: " + what), kind_(kind) {}

  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

// Serializes `db`'s complete lookup state to `path` (atomically, via a
// `.tmp` stage file). Two databases built from the same (catalog, config,
// seed) compile to byte-identical files. Throws std::runtime_error on I/O
// failure.
void CompileGeoDatabase(const GeoDatabase& db, const std::string& path);

// Zero-allocation reader over a compiled file. Open() validates the whole
// file once (magic, version, size, checksum, structural bounds); after
// that, Lookup never checks, never allocates, and returns string_views into
// the mapping, which stay valid for the reader's lifetime. Lookups are
// const and touch only immutable mapped bytes, so one GeoMmdb can serve
// every shard concurrently.
class GeoMmdb {
 public:
  // Throws GeoFormatError on any invalid file, std::runtime_error when the
  // file cannot be opened at all.
  static GeoMmdb Open(const std::string& path);

  GeoMmdb() = default;
  // Custom moves: MmapFile's heap-fallback buffer rebases on move, so the
  // cached section pointers must be rebased with it.
  GeoMmdb(GeoMmdb&& other) noexcept;
  GeoMmdb& operator=(GeoMmdb&& other) noexcept;
  GeoMmdb(const GeoMmdb&) = delete;
  GeoMmdb& operator=(const GeoMmdb&) = delete;

  // Bit-identical to GeoDatabase::Lookup on the compiled database,
  // including per-address jitter and the out-of-space fallback.
  GeoRecord Lookup(net::IPv4Address addr) const;

  // Same lookup, also reporting whether the address lies in an allocated
  // /16 (false = hash fallback). The streaming enricher's form.
  GeoRecord Lookup(net::IPv4Address addr, bool* allocated) const;

  // True if `addr`'s /16 is an allocated block.
  bool IsAllocated(net::IPv4Address addr) const;

  std::uint32_t record_count() const { return record_count_; }
  std::uint32_t country_count() const { return country_count_; }
  std::uint64_t seed() const { return seed_; }
  double address_jitter_deg() const { return jitter_deg_; }
  // Whole-file footprint (what the page cache, not the heap, holds).
  std::size_t size_bytes() const { return file_.size(); }
  bool mapped() const { return file_.mapped(); }
  const std::string& path() const { return path_; }

 private:
  void MoveFrom(GeoMmdb&& other) noexcept;
  // The 36-byte record `addr`'s /16 resolves to (fallback applied).
  const char* RecordFor(std::uint32_t bits) const;
  std::string_view StringAt(std::uint32_t ref) const;

  io::MmapFile file_;
  std::string path_;
  const char* base_ = nullptr;   // file_.view().data()
  const char* table_ = nullptr;
  const char* records_ = nullptr;
  const char* countries_ = nullptr;
  const char* strings_ = nullptr;
  std::uint32_t record_count_ = 0;
  std::uint32_t country_count_ = 0;
  std::uint64_t seed_ = 0;
  double jitter_deg_ = 0.0;
};

}  // namespace ddos::geo

#endif  // DDOSCOPE_GEO_MMDB_H_
