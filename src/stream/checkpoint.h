// Versioned, checksummed checkpoint files for StreamEngine.
//
// A multi-day `ddoscope watch` run must survive being killed: every N
// records the CLI persists the full engine state plus its position in the
// source feed, and `--resume` reconstructs an engine that reaches a final
// Snapshot() identical to an uninterrupted run's (exact tallies exactly;
// sketch state is serialized bit-for-bit, so even the approximate views
// match).
//
// File layout (all integers little-endian; see common/binio.h):
//
//   offset  size  field
//   0       8     magic "DDSCKPT\n"
//   8       4     format version (odd = single engine, even = sharded)
//   12      8     payload size in bytes
//   20      n     payload (see below)
//   20+n    8     FNV-1a 64 checksum of the payload
//
// CheckpointMeta is u64 records, u64 source line, u64 source byte offset
// (span-offset resume for the mmap ingest path), then the per-kind error
// counts. Version 3 payload: CheckpointMeta, then one
// StreamEngine::SerializeTo. Version 4 payload (sharded ingest,
// stream/sharded.h): CheckpointMeta, u32 shard count S, router position
// (u64 attacks, i64 first start, i64 last start), then S StreamEngine
// sections. Readers accept exactly these two versions; 1 and 2, the
// layouts without the source offset, were only written by pre-release
// builds. ReadCheckpoint accepts either - a sharded file with S > 1 is
// folded into one engine through StreamEngine::Merge - while
// ReadShardedCheckpoint preserves the sections so a sharded resume can
// hand each worker its own state back.
//
// Readers verify magic, version, size and checksum before touching the
// payload and throw std::runtime_error on any mismatch: a torn or
// bit-rotted checkpoint must never half-restore an engine. Writers stage
// to `path + ".tmp"` and atomically rename into place, so a crash during
// checkpointing leaves the previous checkpoint intact.
#ifndef DDOSCOPE_STREAM_CHECKPOINT_H_
#define DDOSCOPE_STREAM_CHECKPOINT_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "data/ingest_error.h"
#include "stream/engine.h"

namespace ddos::stream {

// The two versions written and read: single engine and sharded.
inline constexpr std::uint32_t kCheckpointVersion = 3;
inline constexpr std::uint32_t kShardedCheckpointVersion = 4;

// Feed position and ingestion-error tallies at the instant of the
// checkpoint; what the resume path needs besides the engine itself.
struct CheckpointMeta {
  std::uint64_t records = 0;      // records fed to the engine so far
  std::uint64_t source_line = 0;  // 1-based line consumed in the source CSV
  // Byte offset just past the last consumed line (LineSpanScanner::offset),
  // so a span-ingest resume seeks instead of re-scanning the prefix. Zero
  // for non-seekable sources.
  std::uint64_t source_offset = 0;
  data::IngestErrorReport errors; // rejections seen before the checkpoint
};

// Serializes meta + engine to the stream / atomically to `path`.
void WriteCheckpoint(std::ostream& out, const StreamEngine& engine,
                     const CheckpointMeta& meta);
void WriteCheckpoint(const std::string& path, const StreamEngine& engine,
                     const CheckpointMeta& meta);

// Restores an engine and its feed position. Throws std::runtime_error on a
// missing file, bad magic, unsupported version, or checksum mismatch.
// Accepts both format versions (3 and 4); a sharded checkpoint is merged
// into one engine (bit-identical to the section when the file holds
// exactly one).
StreamEngine ReadCheckpoint(std::istream& in, CheckpointMeta* meta);
StreamEngine ReadCheckpoint(const std::string& path, CheckpointMeta* meta);

// The full contents of a version-4 checkpoint: feed position, the router's
// global interval cursor, and one engine section per shard at the instant
// of the checkpoint.
struct ShardedCheckpointState {
  CheckpointMeta meta;
  std::uint64_t router_attacks = 0;
  std::int64_t router_first_start_s = 0;
  std::int64_t router_last_start_s = 0;
  std::vector<StreamEngine> engines;
};

// Serializes a version-4 checkpoint (atomically when given a path).
void WriteShardedCheckpoint(std::ostream& out,
                            const ShardedCheckpointState& state);
void WriteShardedCheckpoint(const std::string& path,
                            const ShardedCheckpointState& state);

// Reads either version; a version-3 file yields one section with the
// router cursor reconstructed from the engine itself.
ShardedCheckpointState ReadShardedCheckpoint(std::istream& in);
ShardedCheckpointState ReadShardedCheckpoint(const std::string& path);

}  // namespace ddos::stream

#endif  // DDOSCOPE_STREAM_CHECKPOINT_H_
