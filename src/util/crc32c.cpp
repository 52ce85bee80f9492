#include "util/crc32c.hpp"

#include <array>
#include <cstddef>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define BITIO_CRC32C_SSE42 1
#endif

namespace bitio {

namespace {

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

// Slice-by-8 tables for the reflected Castagnoli polynomial: tables[0] is
// the classic bytewise table, tables[k][b] is the CRC of byte b followed by
// k zero bytes, so eight table lookups fold eight input bytes at once.
constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i)
    for (std::size_t k = 1; k < 8; ++k)
      t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
  return t;
}

constexpr Tables kTables = make_tables();

/// Little-endian 32-bit load, independent of the host byte order.
inline std::uint32_t load_le32(const std::uint8_t* p) {
  return std::uint32_t(p[0]) | std::uint32_t(p[1]) << 8 |
         std::uint32_t(p[2]) << 16 | std::uint32_t(p[3]) << 24;
}

#ifdef BITIO_CRC32C_SSE42
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::span<const std::uint8_t> data, std::uint32_t seed) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t crc = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;  // x86 is little-endian: the bytes in stream order
    std::memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = std::uint32_t(crc);
  for (; n > 0; ++p, --n) crc32 = _mm_crc32_u8(crc32, *p);
  return crc32 ^ 0xFFFFFFFFu;
}
#endif

using Kernel = std::uint32_t (*)(std::span<const std::uint8_t>,
                                 std::uint32_t);

/// The kernel for this CPU, chosen on first use (a function-local static,
/// so checksums taken during static initialization are safe too).
Kernel kernel() {
  static const Kernel selected = [] {
#ifdef BITIO_CRC32C_SSE42
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2")) return Kernel(crc32c_sse42);
#endif
    return Kernel(crc32c_slice8);
  }();
  return selected;
}

}  // namespace

std::uint32_t crc32c_slice8(std::span<const std::uint8_t> data,
                            std::uint32_t seed) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ crc;
    const std::uint32_t hi = load_le32(p + 4);
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
          kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n)
    crc = kTables[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

std::uint32_t crc32c(std::span<const std::uint8_t> data, std::uint32_t seed) {
  return kernel()(data, seed);
}

bool crc32c_hardware() {
#ifdef BITIO_CRC32C_SSE42
  return kernel() == crc32c_sse42;
#else
  return false;
#endif
}

}  // namespace bitio
