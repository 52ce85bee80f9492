#pragma once
// Little-endian binary serialization helpers shared by the container
// formats (miniBP metadata, darshan logs, PIC checkpoints).

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace bitio {

/// Appending writer over a byte vector.  Fields are stored at a write
/// cursor into storage that grows geometrically ahead of it, so a scalar
/// field is one capacity check and one store; reserve() the encoded size
/// up front and a whole record serializes without reallocating.
class BinWriter {
public:
  /// The bytes written so far (valid until the next write).
  std::span<const std::uint8_t> buffer() const { return {out_.data(), size_}; }
  std::vector<std::uint8_t> take() {
    out_.resize(size_);
    size_ = 0;
    return std::move(out_);
  }

  /// Room for at least `bytes` bytes in total (like vector::reserve).
  void reserve(std::size_t bytes) {
    if (bytes > out_.size()) out_.resize(bytes);
  }

  void u8(std::uint8_t v) { *grow(1) = v; }
  void u32(std::uint32_t v) { le<4>(v); }
  void u64(std::uint64_t v) { le<8>(v); }
  void f64(double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, 8);
    u64(bits);
  }
  void str(const std::string& s) {
    u32(std::uint32_t(s.size()));
    if (!s.empty()) std::memcpy(grow(s.size()), s.data(), s.size());
  }
  void bytes(std::span<const std::uint8_t> data) {
    if (!data.empty()) std::memcpy(grow(data.size()), data.data(), data.size());
  }
  void dims(const std::vector<std::uint64_t>& d) {
    u32(std::uint32_t(d.size()));
    for (auto v : d) u64(v);
  }

private:
  /// Advance the cursor by `n` bytes and return where they start.
  std::uint8_t* grow(std::size_t n) {
    if (out_.size() - size_ < n) extend(n);
    std::uint8_t* at = out_.data() + size_;
    size_ += n;
    return at;
  }
  /// Slow path of grow(): at least double the storage.
  void extend(std::size_t n) {
    out_.resize(std::max({size_ + n, 2 * out_.size(), std::size_t(64)}));
  }
  /// The low `N` bytes of `v`, little-endian, in one store.
  template <std::size_t N>
  void le(std::uint64_t v) {
    std::uint8_t raw[N];
    for (std::size_t i = 0; i < N; ++i) raw[i] = std::uint8_t(v >> (8 * i));
    std::memcpy(grow(N), raw, N);
  }

  std::vector<std::uint8_t> out_;  // out_.size() >= size_
  std::size_t size_ = 0;           // bytes written
};

/// Bounds-checked reader over a byte span.  Throws FormatError past end.
class BinReader {
public:
  explicit BinReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t(data_[pos_++]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t(data_[pos_++]) << (8 * i);
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double d;
    std::memcpy(&d, &bits, 8);
    return d;
  }
  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }
  std::span<const std::uint8_t> bytes(std::size_t n) {
    need(n);
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }
  std::vector<std::uint64_t> dims() {
    const std::uint32_t n = u32();
    std::vector<std::uint64_t> d(n);
    for (auto& v : d) v = u64();
    return d;
  }

  std::size_t position() const { return pos_; }
  bool done() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

private:
  void need(std::size_t n) const {
    if (pos_ + n > data_.size()) throw FormatError("binio: truncated input");
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace bitio
