#include "geo/mmdb.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <unordered_map>

namespace ddos::geo {

namespace {

constexpr std::uint64_t kHeaderBytes = 88;
constexpr std::uint32_t kTableEntries = 65536;  // one u16 per /16
constexpr std::uint64_t kRecordEntryBytes = 36;
constexpr std::uint64_t kCountryEntryBytes = 8;
constexpr std::uint32_t kMaxOrgKind = static_cast<std::uint32_t>(OrgKind::kResidentialIsp);

void PutU16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>(v >> 8));
}

void PutU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void PutU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void PutF64(std::string& out, double v) { PutU64(out, std::bit_cast<std::uint64_t>(v)); }

// Single-mov little-endian loads (gcc keeps the byte-or loop as a loop,
// where memcpy folds into one unaligned load).
std::uint16_t LoadU16(const char* p) {
  std::uint16_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap16(v);
  return v;
}

std::uint32_t LoadU32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap32(v);
  return v;
}

std::uint64_t LoadU64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  return v;
}

double LoadF64(const char* p) { return std::bit_cast<double>(LoadU64(p)); }

// The format's checksum: FNV-1a 64 in four interleaved lanes over the file
// as little-endian u64 words (lane j hashes words j, j+4, j+8, ...; the
// tail word is zero-padded), lanes folded in order with one more FNV step
// each. Byte-serial FNV costs ~3 cycles/byte on its dependent multiply
// chain, which would make the checksum the dominant cost of Open on a
// quarter-MB file; four independent word chains keep verification at
// memory speed while any flipped or dropped byte still lands in exactly
// one lane word and changes the folded digest.
std::uint64_t GeoChecksum(const char* data, std::size_t n) {
  constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t lane[4] = {kOffset, kOffset, kOffset, kOffset};
  const std::size_t words = n / 8;
  std::size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    lane[0] = (lane[0] ^ LoadU64(data + w * 8)) * kPrime;
    lane[1] = (lane[1] ^ LoadU64(data + (w + 1) * 8)) * kPrime;
    lane[2] = (lane[2] ^ LoadU64(data + (w + 2) * 8)) * kPrime;
    lane[3] = (lane[3] ^ LoadU64(data + (w + 3) * 8)) * kPrime;
  }
  for (int j = 0; w < words; ++w, ++j) {
    lane[j] = (lane[j] ^ LoadU64(data + w * 8)) * kPrime;
  }
  if (n % 8 != 0) {
    std::uint64_t tail = 0;
    for (std::size_t i = 0; i < n % 8; ++i) {
      tail |= static_cast<std::uint64_t>(
                  static_cast<unsigned char>(data[words * 8 + i]))
              << (8 * i);
    }
    lane[words % 4] = (lane[words % 4] ^ tail) * kPrime;
  }
  std::uint64_t h = kOffset;
  for (const std::uint64_t l : lane) h = (h ^ l) * kPrime;
  return h;
}

[[noreturn]] void Fail(GeoFormatError::Kind kind, const std::string& what) {
  throw GeoFormatError(kind, what);
}

}  // namespace

// Friend of GeoDatabase: walks the private allocation state and lays out the
// whole file image in memory (a compiled database is a few hundred KiB, so
// building it off-heap buys nothing).
class MmdbCompiler {
 public:
  static std::string Build(const GeoDatabase& db) {
    // --- String table, deduplicated. City and country strings repeat
    // across blocks; organizations are mostly unique. ---
    std::string strings;
    std::unordered_map<std::string, std::uint32_t> interned;
    auto intern = [&](const std::string& s) -> std::uint32_t {
      auto it = interned.find(s);
      if (it != interned.end()) return it->second;
      const std::uint32_t ref = static_cast<std::uint32_t>(strings.size());
      PutU32(strings, static_cast<std::uint32_t>(s.size()));
      strings.append(s);
      interned.emplace(s, ref);
      return ref;
    };

    // --- Country section, in catalog order (records index into it). ---
    std::string countries;
    for (std::size_t ci = 0; ci < db.catalog_.size(); ++ci) {
      const CountrySpec& c = db.catalog_.at(ci);
      PutU32(countries, intern(c.code));
      PutU32(countries, intern(c.name));
    }

    // --- Table section: GeoDatabase's /16 table, verbatim. Its entries
    // index blocks_ in allocation order, so record i is block i. ---
    std::string table;
    table.reserve(kTableEntries * 2);
    for (const std::uint16_t index : db.prefix_to_block_) PutU16(table, index);

    // --- Record section, in allocation order. Cities are resolved here:
    // the reader never sees the per-country city tables, only each block's
    // final (name, center). ---
    std::string records;
    for (const GeoDatabase::Block& b : db.blocks_) {
      const GeoDatabase::CityEntry& city = db.cities_[b.country][b.city];
      PutU32(records, b.country);
      PutU32(records, intern(city.name));
      PutF64(records, city.center.lat_deg);
      PutF64(records, city.center.lon_deg);
      PutU32(records, b.asn.value());
      PutU32(records, intern(b.organization));
      PutU16(records, static_cast<std::uint16_t>(b.org_kind));
      PutU16(records, b.prefix);
    }

    // --- Header + sections + trailing checksum. ---
    const std::uint64_t table_offset = kHeaderBytes;
    const std::uint64_t record_offset = table_offset + table.size();
    const std::uint64_t country_offset = record_offset + records.size();
    const std::uint64_t string_offset = country_offset + countries.size();

    std::string image;
    image.reserve(string_offset + strings.size() + 8);
    image.append(kGeoMmdbMagic);
    PutU32(image, kGeoMmdbVersion);
    PutU32(image, 0);  // reserved
    PutU64(image, db.seed_);
    PutF64(image, db.config_.address_jitter_deg);
    PutU32(image, kTableEntries);
    PutU32(image, static_cast<std::uint32_t>(db.blocks_.size()));
    PutU32(image, static_cast<std::uint32_t>(db.catalog_.size()));
    PutU32(image, 0);  // reserved
    PutU64(image, table_offset);
    PutU64(image, record_offset);
    PutU64(image, country_offset);
    PutU64(image, string_offset);
    PutU64(image, strings.size());
    image.append(table);
    image.append(records);
    image.append(countries);
    image.append(strings);

    PutU64(image, GeoChecksum(image.data(), image.size()));
    return image;
  }
};

void CompileGeoDatabase(const GeoDatabase& db, const std::string& path) {
  const std::string image = MmdbCompiler::Build(db);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("geo/mmdb: cannot open stage file " + tmp);
    }
    out.write(image.data(), static_cast<std::streamsize>(image.size()));
    out.flush();
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      throw std::runtime_error("geo/mmdb: short write to " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("geo/mmdb: cannot publish " + path);
  }
}

GeoMmdb::GeoMmdb(GeoMmdb&& other) noexcept { MoveFrom(std::move(other)); }

GeoMmdb& GeoMmdb::operator=(GeoMmdb&& other) noexcept {
  if (this != &other) MoveFrom(std::move(other));
  return *this;
}

void GeoMmdb::MoveFrom(GeoMmdb&& other) noexcept {
  const char* old_base = other.base_;
  std::ptrdiff_t table_off = 0, record_off = 0, country_off = 0, string_off = 0;
  if (old_base != nullptr) {
    table_off = other.table_ - old_base;
    record_off = other.records_ - old_base;
    country_off = other.countries_ - old_base;
    string_off = other.strings_ - old_base;
  }
  file_ = std::move(other.file_);
  path_ = std::move(other.path_);
  record_count_ = other.record_count_;
  country_count_ = other.country_count_;
  seed_ = other.seed_;
  jitter_deg_ = other.jitter_deg_;
  if (old_base != nullptr) {
    base_ = file_.view().data();
    table_ = base_ + table_off;
    records_ = base_ + record_off;
    countries_ = base_ + country_off;
    strings_ = base_ + string_off;
  } else {
    base_ = table_ = records_ = countries_ = strings_ = nullptr;
  }
  other.base_ = other.table_ = other.records_ = other.countries_ = other.strings_ =
      nullptr;
}

GeoMmdb GeoMmdb::Open(const std::string& path) {
  GeoMmdb db;
  db.file_ = io::MmapFile::Open(path);
  db.path_ = path;
  const std::string_view bytes = db.file_.view();

  // Magic and version come first: a wrong-format or future file is
  // diagnosed as such even when it is also short.
  if (bytes.size() < kGeoMmdbMagic.size()) {
    Fail(GeoFormatError::Kind::kTruncated, "file shorter than its magic");
  }
  if (bytes.substr(0, kGeoMmdbMagic.size()) != kGeoMmdbMagic) {
    Fail(GeoFormatError::Kind::kBadMagic, "bad magic in " + path);
  }
  if (bytes.size() < 12) {
    Fail(GeoFormatError::Kind::kTruncated, "file ends inside the version field");
  }
  const std::uint32_t version = LoadU32(bytes.data() + 8);
  if (version != kGeoMmdbVersion) {
    Fail(GeoFormatError::Kind::kUnsupportedVersion,
         "unsupported version " + std::to_string(version) + " in " + path +
             " (this reader reads version " + std::to_string(kGeoMmdbVersion) +
             "; recompile it with `ddoscope geo compile`)");
  }
  if (bytes.size() < kHeaderBytes + 8) {
    Fail(GeoFormatError::Kind::kTruncated, "file ends inside the header");
  }

  const char* base = bytes.data();
  db.base_ = base;
  db.seed_ = LoadU64(base + 16);
  db.jitter_deg_ = LoadF64(base + 24);
  const std::uint32_t table_entries = LoadU32(base + 32);
  db.record_count_ = LoadU32(base + 36);
  db.country_count_ = LoadU32(base + 40);
  const std::uint64_t table_offset = LoadU64(base + 48);
  const std::uint64_t record_offset = LoadU64(base + 56);
  const std::uint64_t country_offset = LoadU64(base + 64);
  const std::uint64_t string_offset = LoadU64(base + 72);
  const std::uint64_t string_bytes = LoadU64(base + 80);

  // Size before checksum: a cut file has no trustworthy trailer to verify.
  const std::uint64_t declared = string_offset + string_bytes + 8;
  if (string_offset < kHeaderBytes || declared < string_offset) {
    Fail(GeoFormatError::Kind::kCorruptField, "header offsets out of range");
  }
  if (bytes.size() < declared) {
    Fail(GeoFormatError::Kind::kTruncated,
         "file is " + std::to_string(bytes.size()) + " bytes, layout declares " +
             std::to_string(declared));
  }
  if (bytes.size() > declared) {
    Fail(GeoFormatError::Kind::kCorruptField, "trailing bytes after the checksum");
  }

  // Checksum before structure: a bit-flip is diagnosed as bit rot, not as
  // whatever field it happened to land in.
  if (GeoChecksum(base, declared - 8) != LoadU64(base + declared - 8)) {
    Fail(GeoFormatError::Kind::kChecksumMismatch, "checksum mismatch in " + path);
  }

  // Structural validation, once, so Lookup never has to check anything.
  if (table_entries != kTableEntries) {
    Fail(GeoFormatError::Kind::kCorruptField, "table entry count is not 65536");
  }
  if (db.record_count_ == 0 || db.record_count_ > kTableEntries) {
    Fail(GeoFormatError::Kind::kCorruptField, "record count out of range");
  }
  if (db.country_count_ == 0) {
    Fail(GeoFormatError::Kind::kCorruptField, "empty country table");
  }
  if (table_offset != kHeaderBytes ||
      record_offset != table_offset + kTableEntries * 2ULL ||
      country_offset != record_offset + db.record_count_ * kRecordEntryBytes ||
      string_offset != country_offset + db.country_count_ * kCountryEntryBytes) {
    Fail(GeoFormatError::Kind::kCorruptField, "section offsets disagree with counts");
  }
  db.table_ = base + table_offset;
  db.records_ = base + record_offset;
  db.countries_ = base + country_offset;
  db.strings_ = base + string_offset;

  auto valid_string_ref = [&](std::uint32_t ref) {
    if (ref + 4ULL > string_bytes) return false;
    const std::uint32_t len = LoadU32(db.strings_ + ref);
    return ref + 4ULL + len <= string_bytes;
  };
  for (std::uint32_t p = 0; p < kTableEntries; ++p) {
    if (LoadU16(db.table_ + p * 2ULL) >= db.record_count_) {
      Fail(GeoFormatError::Kind::kCorruptField, "table entry past the record table");
    }
  }
  for (std::uint32_t r = 0; r < db.record_count_; ++r) {
    const char* rec = db.records_ + r * kRecordEntryBytes;
    if (LoadU32(rec) >= db.country_count_) {
      Fail(GeoFormatError::Kind::kCorruptField, "record country index out of range");
    }
    if (!valid_string_ref(LoadU32(rec + 4)) || !valid_string_ref(LoadU32(rec + 28))) {
      Fail(GeoFormatError::Kind::kCorruptField, "record string ref out of range");
    }
    if (LoadU16(rec + 32) > kMaxOrgKind) {
      Fail(GeoFormatError::Kind::kCorruptField, "record org kind out of range");
    }
    // The prefix must map back, or IsAllocated would misreport its block.
    if (LoadU16(db.table_ + LoadU16(rec + 34) * 2ULL) != r) {
      Fail(GeoFormatError::Kind::kCorruptField, "record prefix does not map back to it");
    }
  }
  for (std::uint64_t c = 0; c < db.country_count_; ++c) {
    const char* country = db.countries_ + c * kCountryEntryBytes;
    if (!valid_string_ref(LoadU32(country)) || !valid_string_ref(LoadU32(country + 4))) {
      Fail(GeoFormatError::Kind::kCorruptField, "country string ref out of range");
    }
  }
  return db;
}

std::string_view GeoMmdb::StringAt(std::uint32_t ref) const {
  return std::string_view(strings_ + ref + 4, LoadU32(strings_ + ref));
}

const char* GeoMmdb::RecordFor(std::uint32_t bits) const {
  return records_ + LoadU16(table_ + (bits >> 16) * 2ULL) * kRecordEntryBytes;
}

bool GeoMmdb::IsAllocated(net::IPv4Address addr) const {
  return LoadU16(RecordFor(addr.bits()) + 34) == addr.bits() >> 16;
}

GeoRecord GeoMmdb::Lookup(net::IPv4Address addr) const {
  bool allocated = false;
  return Lookup(addr, &allocated);
}

GeoRecord GeoMmdb::Lookup(net::IPv4Address addr, bool* allocated) const {
  const char* rec = RecordFor(addr.bits());
  const char* country = countries_ + std::uint64_t{LoadU32(rec)} * kCountryEntryBytes;
  *allocated = LoadU16(rec + 34) == addr.bits() >> 16;
  return GeoRecord{StringAt(LoadU32(country)),
                   StringAt(LoadU32(country + 4)),
                   StringAt(LoadU32(rec + 4)),
                   JitteredLocation({LoadF64(rec + 8), LoadF64(rec + 16)}, seed_,
                                    jitter_deg_, addr.bits()),
                   net::Asn(LoadU32(rec + 24)),
                   StringAt(LoadU32(rec + 28)),
                   static_cast<OrgKind>(LoadU16(rec + 32))};
}

}  // namespace ddos::geo
