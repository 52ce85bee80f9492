#pragma once
// Binary (de)serialization of miniBP metadata: StepRecords for md.0 and
// IndexEntries for md.idx.  The format is versioned and bounds-checked so a
// truncated or corrupt container fails loudly on read (the original BIT1
// failure mode the paper reports — corrupted output files beyond 20k ranks —
// must be *detectable* here).
//
// One on-disk version is written and read:
//   md.0  "MD06" step-metadata blocks: every chunk record carries the CRC32C
//       of its stored bytes and an FNV-1a content hash of its raw bytes (the
//       dedup key of incremental checkpoints); every block ends in its own
//       CRC32C.
//   md.idx  "IDX5": a header and fixed-size entries, each repeating the CRC
//       of the metadata block it points at.  A torn or bit-flipped write
//       anywhere in the container is therefore detectable on read.
//   footer  "FTR6": at close, the complete step records are appended to
//       md.0 followed by a fixed-size trailer pointing back at them.  A
//       reader that finds a valid trailer opens the container from the
//       footer alone — O(1) seeks, no md.idx/md.0 scan; a missing (mid-run
//       attach via publish_index), torn, or corrupt footer falls back to the
//       scan path (md.idx entries never point into the footer region, so
//       the scan ignores it).
// The v4 ("MD04"/"IDX4") and v5 ("MD05") metadata of earlier writers are no
// longer readable: like any other magic they raise FormatError.

#include <span>

#include "bp/types.hpp"

namespace bitio::bp {

inline constexpr std::uint32_t kIdxMagicV5 = 0x49445835;  // "IDX5"
inline constexpr std::uint32_t kIdxEntryBytesV5 = 32;     // entry size
inline constexpr std::uint32_t kMdMagicV6 = 0x4D443036;   // "MD06"
inline constexpr std::uint32_t kFtrMagic = 0x46545236;    // "FTR6"
/// Fixed-size footer trailer at the very end of md.0:
///   u64 footer_offset | u64 footer_length | u32 crc32c(footer) | u32 magic
inline constexpr std::uint32_t kFtrTrailerBytes = 24;

/// Serialize one step's metadata (appended to md.0).  Writes v6: chunk CRCs
/// and content hashes plus a trailing CRC32C over the whole block.
std::vector<std::uint8_t> encode_step(const StepRecord& record);
/// Parse one CRC-verified v6 step-metadata block.  Throws FormatError on
/// corruption or any other version magic.
StepRecord decode_step(std::span<const std::uint8_t> data);

/// Serialize/parse the whole md.idx file (header + fixed-size entries).
/// Both speak IDX5 only.
std::vector<std::uint8_t> encode_index(const std::vector<IndexEntry>& index);
std::vector<IndexEntry> decode_index(std::span<const std::uint8_t> data);

/// Serialize/parse the footer index: every drained step record, in drain
/// order (repeated step ids keep their write order so "latest record wins"
/// matches the scan path).  The footer body is
///   u32 magic | u32 nsteps | { u64 length, encode_step() bytes } * nsteps
/// and is itself protected by the CRC32C in the trailer.  encode_footer
/// takes the steps' already-encoded md.0 blocks (the writer encodes each
/// step once, at drain, and concatenates the blocks at close).
std::vector<std::uint8_t> encode_footer(
    const std::vector<std::vector<std::uint8_t>>& steps);
std::vector<StepRecord> decode_footer(std::span<const std::uint8_t> data);

}  // namespace bitio::bp
