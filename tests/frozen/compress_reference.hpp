#pragma once
// Reference (pre-optimisation) kernels, frozen as-is when the production
// kernels in shuffle.cpp / lz.cpp / huffman.cpp were rewritten for speed.
//
// Two jobs:
//   * differential tests — the optimised kernels must round-trip against
//     these (same formats, interchangeable streams), so a perf regression
//     hunt can always bisect "format bug" vs "speed bug";
//   * bench baseline — bench/micro_codecs and the `perf` smoke test measure
//     speedup relative to seed_blosc_compress(), the seed single-thread
//     pipeline.
//
// They live outside every bitio library (target bitio_compress_reference,
// linked only by tests and benches), so nothing here is reachable from the
// production write path; do not optimise these, that is the point.

#include "compress/codec.hpp"

namespace bitio::cz {

/// Seed strided one-byte-at-a-time shuffle/unshuffle.
Bytes seed_shuffle(ByteSpan input, std::size_t typesize);
Bytes seed_unshuffle(ByteSpan input, std::size_t typesize);

/// Seed greedy LZ (single-probe hash table, no lazy matching, no skip
/// acceleration, per-call table allocation).  Same block format as
/// lz_compress_block — streams are mutually decodable.
Bytes seed_lz_compress_block(ByteSpan input);
Bytes seed_lz_decompress_block(ByteSpan block, std::size_t original_size);

/// Seed canonical-Huffman decode (bit-at-a-time code walk).  Same stream
/// format as huffman_decode.
std::vector<std::uint16_t> seed_huffman_decode(ByteSpan data);

/// Seed blosc pipeline: seed_shuffle + seed_lz per 256 KiB chunk, emitting
/// a standard BLL1 frame (decodable by every blosc decoder in the tree).
Bytes seed_blosc_compress(ByteSpan input, std::size_t typesize);

}  // namespace bitio::cz
