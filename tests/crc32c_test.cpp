// Tests for the CRC32C kernels: the dispatched crc32c() (SSE4.2 where the
// CPU has it) and the portable slice-by-8 kernel must both equal a plain
// bytewise reference on every length, alignment and chaining split.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "util/crc32c.hpp"
#include "util/rng.hpp"

namespace bitio {
namespace {

/// Bytewise reference: one table lookup per byte, straight from the
/// reflected Castagnoli polynomial.  Deliberately the simplest correct
/// form — the library kernels are checked against it, never the reverse.
std::uint32_t reference_crc32c(std::span<const std::uint8_t> data,
                               std::uint32_t seed = 0) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (const std::uint8_t byte : data)
    crc = table[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

using Kernel = std::uint32_t (*)(std::span<const std::uint8_t>,
                                 std::uint32_t);

struct NamedKernel {
  const char* name;
  Kernel fn;
};

// crc32c is the dispatched entry point; crc32c_slice8 is the portable
// kernel it falls back to.  Both must match the reference everywhere.
const NamedKernel kKernels[] = {
    {"dispatched", &crc32c},
    {"slice8", &crc32c_slice8},
};

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = std::uint8_t(rng());
  return out;
}

TEST(Crc32c, KnownVector) {
  const std::string text = "123456789";
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
  EXPECT_EQ(reference_crc32c(bytes), 0xE3069283u);
  for (const auto& k : kKernels) {
    SCOPED_TRACE(k.name);
    EXPECT_EQ(k.fn(bytes, 0), 0xE3069283u);
  }
}

TEST(Crc32c, EveryShortLengthMatchesReference) {
  const auto data = random_bytes(64, 1);
  for (std::size_t len = 0; len <= 64; ++len) {
    const std::span<const std::uint8_t> bytes(data.data(), len);
    const std::uint32_t want = reference_crc32c(bytes);
    for (const auto& k : kKernels) {
      SCOPED_TRACE(std::string(k.name) + " len " + std::to_string(len));
      EXPECT_EQ(k.fn(bytes, 0), want);
    }
  }
}

TEST(Crc32c, RandomBuffersUpTo64KiBMatchReference) {
  Rng sizes(7);
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    const std::size_t len =
        seed == 0 ? std::size_t(64) << 10 : std::size_t(sizes.below(65537));
    const auto data = random_bytes(len, 100 + seed);
    const std::uint32_t want = reference_crc32c(data);
    for (const auto& k : kKernels) {
      SCOPED_TRACE(std::string(k.name) + " len " + std::to_string(len));
      EXPECT_EQ(k.fn(data, 0), want);
    }
  }
}

TEST(Crc32c, UnalignedStartsMatchReference) {
  const auto data = random_bytes(1024 + 8, 3);
  for (std::size_t start = 0; start < 8; ++start) {
    for (const std::size_t len : {std::size_t(0), std::size_t(1),
                                  std::size_t(7), std::size_t(9),
                                  std::size_t(63), std::size_t(1024)}) {
      const std::span<const std::uint8_t> bytes(data.data() + start, len);
      const std::uint32_t want = reference_crc32c(bytes);
      for (const auto& k : kKernels) {
        SCOPED_TRACE(std::string(k.name) + " start " + std::to_string(start) +
                     " len " + std::to_string(len));
        EXPECT_EQ(k.fn(bytes, 0), want);
      }
    }
  }
}

TEST(Crc32c, ChainedSeedsEqualOnePass) {
  // crc32c(b, crc32c(a)) == crc32c(a || b) for every split point, which is
  // what lets callers checksum a stream in pieces.
  const auto data = random_bytes(300, 5);
  const std::uint32_t whole = reference_crc32c(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::span<const std::uint8_t> all(data);
    const auto a = all.first(split);
    const auto b = all.subspan(split);
    for (const auto& k : kKernels) {
      SCOPED_TRACE(std::string(k.name) + " split " + std::to_string(split));
      EXPECT_EQ(k.fn(b, k.fn(a, 0)), whole);
    }
  }
  // A nonzero seed continues the reference identically.
  for (const auto& k : kKernels) {
    SCOPED_TRACE(k.name);
    EXPECT_EQ(k.fn(data, 0x12345678u), reference_crc32c(data, 0x12345678u));
  }
}

TEST(Crc32c, DispatchMatchesCpu) {
  // The dispatched kernel is the hardware one exactly when the CPU reports
  // SSE4.2 (x86-64 builds); elsewhere it is slice-by-8.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
  EXPECT_EQ(crc32c_hardware(), bool(__builtin_cpu_supports("sse4.2")));
#else
  EXPECT_FALSE(crc32c_hardware());
#endif
}

}  // namespace
}  // namespace bitio
