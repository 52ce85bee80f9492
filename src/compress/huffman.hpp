#pragma once
// Canonical Huffman coding over a generic symbol alphabet (up to 2^16
// symbols), used as the entropy stage of the bzip2-like codec.
//
// The encoded stream stores only the code-length table (canonical codes are
// reconstructed from lengths), then the MSB-first bit stream.  Code lengths
// are capped at kMaxCodeLen by iterative frequency flattening, the classic
// bzip2 approach.  Decoding is table-driven: a flat 2^kMaxCodeLen lookup
// resolves one symbol per load (the seed bit-at-a-time canonical walk is
// preserved in tests/frozen/compress_reference.hpp).

#include <cstdint>

#include "compress/codec.hpp"

namespace bitio::cz {

inline constexpr int kMaxCodeLen = 15;

/// Encode `symbols` (each < alphabet_size).  Output layout:
///   u32 symbol_count, u16 alphabet_size,
///   code lengths as 4-bit nibbles (alphabet_size of them, padded),
///   bit stream.
Bytes huffman_encode(std::span<const std::uint16_t> symbols,
                     std::size_t alphabet_size);

/// Decode a buffer produced by huffman_encode().
std::vector<std::uint16_t> huffman_decode(ByteSpan data);

/// MSB-first bit writer used by the Huffman stage (exposed for tests).
class BitWriter {
public:
  void put(std::uint32_t bits, int count);
  /// Flush the partial byte (zero-padded) and return the buffer.
  Bytes finish();

private:
  Bytes out_;
  std::uint64_t acc_ = 0;
  int nbits_ = 0;
};

/// MSB-first bit reader.
class BitReader {
public:
  explicit BitReader(ByteSpan data) : data_(data) {}
  /// Read `count` (<= 24) bits; throws FormatError past end of stream.
  std::uint32_t get(int count);

private:
  ByteSpan data_;
  std::size_t byte_pos_ = 0;
  int bit_pos_ = 0;  // within current byte, MSB first
};

}  // namespace bitio::cz
