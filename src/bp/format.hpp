#pragma once
// Binary (de)serialization of miniBP metadata: StepRecords for md.0 and
// IndexEntries for md.idx.  The format is versioned and bounds-checked so a
// truncated or corrupt container fails loudly on read (the original BIT1
// failure mode the paper reports — corrupted output files beyond 20k ranks —
// must be *detectable* here).
//
// Three on-disk versions coexist:
//   v4 ("MD04"/"IDX4")  the original layout, no checksums; still readable.
//   v5 ("MD05"/"IDX5")  every chunk record carries the CRC32C of its stored
//       bytes, every step-metadata block ends in its own CRC32C, and every
//       index entry repeats the CRC of the metadata block it points at.  A
//       torn or bit-flipped write anywhere in the container is therefore
//       detectable on read.
//   v6 ("MD06")  adds a per-chunk FNV-1a content hash of the raw bytes (the
//       dedup key of incremental checkpoints) and a *footer index* appended
//       to the end of md.0 at close: the complete step records followed by a
//       fixed-size trailer ("FTR6") pointing back at them.  A reader that
//       finds a valid trailer opens the container from the footer alone —
//       O(1) seeks, no md.idx/md.0 scan; a missing, torn, or corrupt footer
//       falls back to the v5 scan path (md.idx entries never point into the
//       footer region, so the scan ignores it).
// Any other magic is a wrong-version/corrupt input and raises FormatError.

#include <span>

#include "bp/types.hpp"

namespace bitio::bp {

inline constexpr std::uint32_t kMdMagic = 0x4D443034;     // "MD04" (legacy)
inline constexpr std::uint32_t kIdxMagic = 0x49445834;    // "IDX4" (legacy)
inline constexpr std::uint32_t kIdxEntryBytes = 24;       // v4 record size
inline constexpr std::uint32_t kMdMagicV5 = 0x4D443035;   // "MD05"
inline constexpr std::uint32_t kIdxMagicV5 = 0x49445835;  // "IDX5"
inline constexpr std::uint32_t kIdxEntryBytesV5 = 32;     // v5 record size
inline constexpr std::uint32_t kMdMagicV6 = 0x4D443036;   // "MD06"
inline constexpr std::uint32_t kFtrMagic = 0x46545236;    // "FTR6"
/// Fixed-size footer trailer at the very end of md.0:
///   u64 footer_offset | u64 footer_length | u32 crc32c(footer) | u32 magic
inline constexpr std::uint32_t kFtrTrailerBytes = 24;

/// Serialize one step's metadata (appended to md.0).  Writes v6: chunk CRCs
/// and content hashes plus a trailing CRC32C over the whole block.
std::vector<std::uint8_t> encode_step(const StepRecord& record);
/// Parse one step's metadata (v4, v5 or v6; v5+ blocks are CRC-verified).
/// Throws FormatError on corruption or an unknown version magic.
StepRecord decode_step(std::span<const std::uint8_t> data);

/// Serialize/parse the whole md.idx file (header + fixed-size entries).
/// encode writes v5; decode accepts v4 and v5.
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
