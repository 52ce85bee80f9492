#include "compress/shuffle.hpp"

#include <cstring>

#include "util/error.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define BITIO_SHUFFLE_X86 1
#include <immintrin.h>
#endif

namespace bitio::cz {

namespace {

#ifdef BITIO_SHUFFLE_X86
// SIMD kernels for the dominant particle layout (typesize 4, float records).
// Compiled for SSSE3 regardless of the project's baseline flags and selected
// at runtime via cpuid, so the binary still runs on bare SSE2 machines.
// Both are pure byte permutations — output is bit-identical to the scalar
// path, preserving frame determinism.

bool cpu_has_ssse3() {
  static const bool ok = __builtin_cpu_supports("ssse3");
  return ok;
}

__attribute__((target("ssse3"))) void shuffle4_ssse3(const std::uint8_t* in,
                                                     std::size_t n,
                                                     std::uint8_t* out) {
  // 16 elements (64 bytes) per iteration: group each register's bytes by
  // plane, then gather plane dwords across the four registers.
  const __m128i group = _mm_setr_epi8(0, 4, 8, 12, 1, 5, 9, 13,  //
                                      2, 6, 10, 14, 3, 7, 11, 15);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const std::uint8_t* p = in + i * 4;
    __m128i r0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    __m128i r1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16));
    __m128i r2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 32));
    __m128i r3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 48));
    r0 = _mm_shuffle_epi8(r0, group);  // [b0 x4][b1 x4][b2 x4][b3 x4]
    r1 = _mm_shuffle_epi8(r1, group);
    r2 = _mm_shuffle_epi8(r2, group);
    r3 = _mm_shuffle_epi8(r3, group);
    const __m128i t0 = _mm_unpacklo_epi32(r0, r1);
    const __m128i t1 = _mm_unpackhi_epi32(r0, r1);
    const __m128i t2 = _mm_unpacklo_epi32(r2, r3);
    const __m128i t3 = _mm_unpackhi_epi32(r2, r3);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_unpacklo_epi64(t0, t2));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + n + i),
                     _mm_unpackhi_epi64(t0, t2));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 2 * n + i),
                     _mm_unpacklo_epi64(t1, t3));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 3 * n + i),
                     _mm_unpackhi_epi64(t1, t3));
  }
  for (; i < n; ++i) {
    const std::uint8_t* e = in + i * 4;
    for (std::size_t b = 0; b < 4; ++b) out[b * n + i] = e[b];
  }
}

__attribute__((target("ssse3"))) void unshuffle4_ssse3(const std::uint8_t* in,
                                                       std::size_t n,
                                                       std::uint8_t* out) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i q0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i));
    const __m128i q1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + n + i));
    const __m128i q2 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 2 * n + i));
    const __m128i q3 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 3 * n + i));
    const __m128i t0 = _mm_unpacklo_epi8(q0, q1);  // b0b1 pairs, e0..e7
    const __m128i t1 = _mm_unpackhi_epi8(q0, q1);
    const __m128i t2 = _mm_unpacklo_epi8(q2, q3);  // b2b3 pairs, e0..e7
    const __m128i t3 = _mm_unpackhi_epi8(q2, q3);
    std::uint8_t* p = out + i * 4;
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p),
                     _mm_unpacklo_epi16(t0, t2));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p + 16),
                     _mm_unpackhi_epi16(t0, t2));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p + 32),
                     _mm_unpacklo_epi16(t1, t3));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p + 48),
                     _mm_unpackhi_epi16(t1, t3));
  }
  for (; i < n; ++i) {
    std::uint8_t* e = out + i * 4;
    for (std::size_t b = 0; b < 4; ++b) e[b] = in[b * n + i];
  }
}
#endif  // BITIO_SHUFFLE_X86

// Fixed-width single-pass kernels: one sequential read stream fanned out to
// T sequential write streams (shuffle) or gathered back (unshuffle).  The
// seed code looped plane-outer, re-reading the whole input T times with a
// stride-T access pattern; reading each byte exactly once and keeping every
// stream sequential is what makes this cache-friendly, and the constant
// element width lets the compiler unroll and vectorise the inner loop.
template <std::size_t T>
void shuffle_fixed(const std::uint8_t* in, std::size_t n, std::uint8_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t* e = in + i * T;
    for (std::size_t b = 0; b < T; ++b) out[b * n + i] = e[b];
  }
}

template <std::size_t T>
void unshuffle_fixed(const std::uint8_t* in, std::size_t n, std::uint8_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint8_t* e = out + i * T;
    for (std::size_t b = 0; b < T; ++b) e[b] = in[b * n + i];
  }
}

// Generic width: transpose in element tiles sized to keep the working set
// (kTile * typesize bytes of input plus one cache line per plane) in L1.
constexpr std::size_t kTile = 1024;

void shuffle_generic(const std::uint8_t* in, std::size_t n,
                     std::size_t typesize, std::uint8_t* out) {
  for (std::size_t i0 = 0; i0 < n; i0 += kTile) {
    const std::size_t i1 = i0 + kTile < n ? i0 + kTile : n;
    for (std::size_t b = 0; b < typesize; ++b) {
      const std::uint8_t* src = in + i0 * typesize + b;
      std::uint8_t* dst = out + b * n + i0;
      for (std::size_t i = i0; i < i1; ++i, src += typesize) *dst++ = *src;
    }
  }
}

void unshuffle_generic(const std::uint8_t* in, std::size_t n,
                       std::size_t typesize, std::uint8_t* out) {
  for (std::size_t i0 = 0; i0 < n; i0 += kTile) {
    const std::size_t i1 = i0 + kTile < n ? i0 + kTile : n;
    for (std::size_t b = 0; b < typesize; ++b) {
      const std::uint8_t* src = in + b * n + i0;
      std::uint8_t* dst = out + i0 * typesize + b;
      for (std::size_t i = i0; i < i1; ++i, dst += typesize) *dst = *src++;
    }
  }
}

}  // namespace

void shuffle_into(ByteSpan input, std::size_t typesize, std::uint8_t* out) {
  if (typesize == 0) throw UsageError("shuffle: typesize must be > 0");
  const std::size_t n = input.size() / typesize;  // whole elements
  const std::uint8_t* in = input.data();
  // memcpy's pointers must be valid even for zero bytes, and an empty span
  // may carry a null data pointer.
  if (input.empty()) return;
  switch (typesize) {
    case 1: std::memcpy(out, in, n); break;
    case 2: shuffle_fixed<2>(in, n, out); break;
    case 4:
#ifdef BITIO_SHUFFLE_X86
      if (cpu_has_ssse3()) {
        shuffle4_ssse3(in, n, out);
        break;
      }
#endif
      shuffle_fixed<4>(in, n, out);
      break;
    case 8: shuffle_fixed<8>(in, n, out); break;
    case 16: shuffle_fixed<16>(in, n, out); break;
    default: shuffle_generic(in, n, typesize, out); break;
  }
  // Partial trailing element is passed through unshuffled.
  const std::size_t body = n * typesize;
  if (body < input.size()) std::memcpy(out + body, in + body, input.size() - body);
}

void unshuffle_into(ByteSpan input, std::size_t typesize, std::uint8_t* out) {
  if (typesize == 0) throw UsageError("unshuffle: typesize must be > 0");
  const std::size_t n = input.size() / typesize;
  const std::uint8_t* in = input.data();
  if (input.empty()) return;  // see shuffle_into
  switch (typesize) {
    case 1: std::memcpy(out, in, n); break;
    case 2: unshuffle_fixed<2>(in, n, out); break;
    case 4:
#ifdef BITIO_SHUFFLE_X86
      if (cpu_has_ssse3()) {
        unshuffle4_ssse3(in, n, out);
        break;
      }
#endif
      unshuffle_fixed<4>(in, n, out);
      break;
    case 8: unshuffle_fixed<8>(in, n, out); break;
    case 16: unshuffle_fixed<16>(in, n, out); break;
    default: unshuffle_generic(in, n, typesize, out); break;
  }
  const std::size_t body = n * typesize;
  if (body < input.size()) std::memcpy(out + body, in + body, input.size() - body);
}

Bytes shuffle(ByteSpan input, std::size_t typesize) {
  Bytes out(input.size());
  shuffle_into(input, typesize, out.data());
  return out;
}

Bytes unshuffle(ByteSpan input, std::size_t typesize) {
  Bytes out(input.size());
  unshuffle_into(input, typesize, out.data());
  return out;
}

}  // namespace bitio::cz
