#pragma once
// Fast byte-oriented LZ77 codec in the LZ4 family, written from scratch.
//
// Block format (little-endian):
//   sequence := token [lit_ext]* literals (offset:u16 [match_ext]*)?
//   token    := (lit_len:4 | match_len:4); 15 in a nibble means "extended by
//               following 255-terminated bytes" (LZ4 convention).
//   match length is stored minus kMinMatch (4).  The final sequence of a
//   block carries literals only (no offset), again like LZ4.
//
// Encoder: hash-chain match finder (multi-candidate, bounded walk) with
// one-step lazy matching and LZ4-style skip acceleration through literal
// runs, over thread-local scratch tables so repeated calls allocate
// nothing.  The seed single-probe greedy encoder is preserved in
// tests/frozen/compress_reference.hpp; both emit the same format and their
// streams are mutually decodable.

#include "compress/codec.hpp"

namespace bitio::cz {

/// Compress one block.  Output is *not* self-framing (no size header);
/// callers (BloscLike frame) must record the original size.
Bytes lz_compress_block(ByteSpan input);

/// Append-variant: compress `input` onto the end of `out` (no temporary
/// buffer).  The caller notes out.size() before/after to learn the packed
/// length.  `input` must not alias `out`.
void lz_compress_block_append(ByteSpan input, Bytes& out);

/// Decompress one block produced by lz_compress_block().  `original_size`
/// must match the encoder's input size.  Throws FormatError on corruption.
Bytes lz_decompress_block(ByteSpan block, std::size_t original_size);

/// Allocation-free variant: decode into `out`, which must hold exactly
/// `original_size` bytes and not alias `block`.
void lz_decompress_block_into(ByteSpan block, std::uint8_t* out,
                              std::size_t original_size);

}  // namespace bitio::cz
