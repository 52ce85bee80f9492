#pragma once
// Blosc's shuffle filter: transpose an array of fixed-width elements so all
// first bytes come first, then all second bytes, etc.  Floating-point data
// from PIC particle arrays compresses far better after shuffling because
// exponent bytes of neighbouring particles are highly correlated.
//
// The kernels are single-pass and cache-blocked: common element widths
// (2/4/8/16) read the input once and feed `typesize` sequential plane
// streams, other widths transpose in L1-sized element tiles.  The seed
// strided one-byte-at-a-time loops live on in
// tests/frozen/compress_reference.hpp for differential tests and bench
// baselines.

#include "compress/codec.hpp"

namespace bitio::cz {

/// Byte-transpose `input` with element width `typesize`.  The tail
/// (input.size() % typesize bytes) is copied through unchanged, matching
/// Blosc's handling of partial elements.
Bytes shuffle(ByteSpan input, std::size_t typesize);

/// Inverse of shuffle().
Bytes unshuffle(ByteSpan input, std::size_t typesize);

/// Allocation-free variants: write the (un)shuffled bytes into `out`, which
/// must hold input.size() bytes and not alias `input`.  These are the hot
/// kernels the codec pipeline calls with pooled scratch buffers.
void shuffle_into(ByteSpan input, std::size_t typesize, std::uint8_t* out);
void unshuffle_into(ByteSpan input, std::size_t typesize, std::uint8_t* out);

}  // namespace bitio::cz
