#include "compress/lz.hpp"

#include <bit>
#include <cstring>

#include "util/error.hpp"

namespace bitio::cz {

namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxOffset = 65535;
constexpr std::size_t kHashBits = 16;
constexpr int kMaxChainWalk = 2;   // candidates examined per position
constexpr int kSkipTrigger = 6;    // misses >> trigger = extra stride (LZ4)
constexpr std::size_t kGoodEnough = 8;  // stop the walk at this match length
constexpr std::size_t kLazyCutoff = 8;  // skip lazy probe for longer matches

inline std::uint32_t read32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline std::uint64_t read64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline std::uint32_t hash4(std::uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

/// 5-byte hash for chain insertion/lookup: on smooth byte planes (shuffled
/// mantissa streams) 4-byte windows collide into a few huge chains; the
/// fifth byte spreads them so short walks still find long matches.  Misses
/// 4-byte-only matches, which the format tolerates (matches are verified
/// byte-for-byte; a missed match just costs ratio).
inline std::uint32_t hash5(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return std::uint32_t(((v << 24) * 889523592379ull) >> (64 - kHashBits));
}

/// Bucket for position `pos`: hash5 where 8 readable bytes remain, hash4 at
/// the block tail.  The rule depends only on (data, pos) so insert and
/// probe always agree on the bucket — and output stays deterministic.
inline std::uint32_t hash_at(const std::uint8_t* base, std::size_t n,
                             std::size_t pos) {
  return pos + 8 <= n ? hash5(base + pos) : hash4(read32(base + pos));
}

/// Length of the common prefix of a and b, at most `limit` bytes, compared
/// a word at a time (the first differing byte found with countr_zero —
/// little-endian word order matches byte order).
inline std::size_t match_length(const std::uint8_t* a, const std::uint8_t* b,
                                std::size_t limit) {
  std::size_t len = 0;
  while (len + 8 <= limit) {
    const std::uint64_t diff = read64(a + len) ^ read64(b + len);
    if (diff != 0) return len + std::size_t(std::countr_zero(diff) >> 3);
    len += 8;
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

// Raw-pointer emit into a pre-sized output region: the caller reserves the
// LZ4 worst-case bound up front, so sequences write without per-byte growth
// checks and literals use oversized 8-byte "wild" copies into the slack.
inline std::uint8_t* emit_length(std::uint8_t* op, std::size_t extra) {
  // 255-terminated extension bytes, LZ4 style.
  while (extra >= 255) {
    *op++ = 255;
    extra -= 255;
  }
  *op++ = static_cast<std::uint8_t>(extra);
  return op;
}

inline std::uint8_t* emit_sequence(std::uint8_t* op, const std::uint8_t* lit,
                                   std::size_t lit_len, std::size_t offset,
                                   std::size_t match_len) {
  const bool has_match = match_len >= kMinMatch;
  const std::size_t mstored = has_match ? match_len - kMinMatch : 0;
  const std::uint8_t lit_nib =
      static_cast<std::uint8_t>(lit_len >= 15 ? 15 : lit_len);
  const std::uint8_t mat_nib =
      static_cast<std::uint8_t>(has_match ? (mstored >= 15 ? 15 : mstored) : 0);
  *op++ = static_cast<std::uint8_t>((lit_nib << 4) | mat_nib);
  if (lit_nib == 15) op = emit_length(op, lit_len - 15);
  // Word-wise copy with an exact tail (no over-read of the input buffer).
  std::size_t i = 0;
  for (; i + 8 <= lit_len; i += 8) std::memcpy(op + i, lit + i, 8);
  if (i < lit_len) std::memcpy(op + i, lit + i, lit_len - i);
  op += lit_len;
  if (has_match) {
    *op++ = static_cast<std::uint8_t>(offset & 0xFF);
    *op++ = static_cast<std::uint8_t>(offset >> 8);
    if (mat_nib == 15) op = emit_length(op, mstored - 15);
  }
  return op;
}

/// Hash-chain tables, reused across calls (thread-local, so concurrent
/// drain lanes / codec pipeline workers never share or allocate).  The head
/// table IS cleared per block — a stale entry that happened to byte-verify
/// in the current block would add a match a fresh table cannot see, making
/// output depend on which thread compressed the previous block and breaking
/// the pipeline's identical-bytes-for-any-thread-count guarantee.  The
/// chain table needs no clearing: walks only reach positions inserted this
/// block (head starts empty, chains grow from insertions).
struct MatchScratch {
  std::vector<std::uint32_t> head;   // hash -> most recent position
  std::vector<std::uint32_t> chain;  // position -> previous same-hash position

  void prepare(std::size_t n) {
    head.assign(std::size_t(1) << kHashBits, 0xFFFFFFFFu);  // empty sentinel
    if (chain.size() < n) chain.resize(n);
  }
};

thread_local MatchScratch tl_scratch;

struct Match {
  std::size_t len = 0;
  std::size_t offset = 0;
};

/// Look up the best match for `pos` along its hash chain, then insert `pos`.
inline Match find_and_insert(MatchScratch& s, const std::uint8_t* base,
                             std::size_t n, std::size_t pos) {
  const std::uint32_t h = hash_at(base, n, pos);
  std::size_t cand = s.head[h];
  s.chain[pos] = std::uint32_t(cand);
  s.head[h] = std::uint32_t(pos);

  Match best;
  const std::size_t limit = n - pos;
  const std::size_t floor_pos = pos > kMaxOffset ? pos - kMaxOffset : 0;
  for (int walk = 0; walk < kMaxChainWalk; ++walk) {
    if (cand >= pos || cand < floor_pos) break;  // stale or out of window
    // Cheap rejects first: candidate must beat the current best, and its
    // first four bytes must match.
    if ((best.len == 0 || base[cand + best.len] == base[pos + best.len]) &&
        read32(base + cand) == read32(base + pos)) {
      const std::size_t len = match_length(base + cand, base + pos, limit);
      if (len >= kMinMatch && len > best.len) {
        best.len = len;
        best.offset = pos - cand;
        // A long-enough match ends the walk: deeper candidates rarely beat
        // it by more than the probes cost.
        if (len == limit || len >= kGoodEnough) break;
      }
    }
    const std::size_t next = s.chain[cand];
    if (next >= cand) break;  // stale entry: chains must strictly decrease
    cand = next;
  }
  return best;
}

}  // namespace

void lz_compress_block_append(ByteSpan input, Bytes& out) {
  const std::uint8_t* const base = input.data();
  const std::size_t n = input.size();

  // Grow `out` to the LZ4 worst-case bound once, emit through a raw
  // pointer, and trim to the bytes actually written at the end — the emit
  // path never touches vector growth machinery.
  const std::size_t out0 = out.size();
  out.resize(out0 + n + n / 255 + 16);
  std::uint8_t* const obase = out.data() + out0;
  std::uint8_t* op = obase;

  if (n < kMinMatch + 1) {
    // Too small to match anything: one literal-only sequence.
    op = emit_sequence(op, base, n, 0, 0);
    out.resize(out0 + std::size_t(op - obase));
    return;
  }

  MatchScratch& s = tl_scratch;
  s.prepare(n);

  std::size_t pos = 0;        // current scan position
  std::size_t anchor = 0;     // start of pending literals
  std::size_t misses = 0;     // consecutive failed probes (skip acceleration)
  const std::size_t limit = n - kMinMatch;  // last position a match can start

  while (pos <= limit) {
    Match m = find_and_insert(s, base, n, pos);
    if (m.len == 0) {
      // Accelerate through incompressible runs: stride grows with every
      // kSkipTrigger-th consecutive miss, exactly LZ4's scheme.  This is
      // what keeps shuffled float mantissa planes near memcpy speed.
      pos += 1 + (misses++ >> kSkipTrigger);
      continue;
    }
    misses = 0;
    // One-step lazy matching: if the next position starts a strictly longer
    // match, demote the current byte to a literal and take that one.  Only
    // short matches are worth the extra probe — a long match amortises its
    // token regardless.
    while (pos + 1 <= limit && m.len < kLazyCutoff) {
      Match next = find_and_insert(s, base, n, pos + 1);
      if (next.len <= m.len) break;
      ++pos;
      m = next;
    }
    op = emit_sequence(op, base + anchor, pos - anchor, m.offset, m.len);
    pos += m.len;
    anchor = pos;
    // Seed the table near the match end so adjacent repeats are found.
    if (pos >= 2 && pos <= limit) {
      const std::size_t p2 = pos - 2;
      const std::uint32_t h2 = hash_at(base, n, p2);
      s.chain[p2] = s.head[h2];
      s.head[h2] = std::uint32_t(p2);
    }
  }
  // Final literals.
  op = emit_sequence(op, base + anchor, n - anchor, 0, 0);
  out.resize(out0 + std::size_t(op - obase));
}

Bytes lz_compress_block(ByteSpan input) {
  Bytes out;
  out.reserve(input.size() / 2 + 16);
  lz_compress_block_append(input, out);
  return out;
}

void lz_decompress_block_into(ByteSpan block, std::uint8_t* out,
                              std::size_t original_size) {
  const std::uint8_t* ip = block.data();
  const std::uint8_t* const iend = ip + block.size();
  std::uint8_t* op = out;
  std::uint8_t* const oend = out + original_size;

  auto read_byte = [&]() -> std::uint8_t {
    if (ip >= iend) throw FormatError("lz: truncated block");
    return *ip++;
  };
  auto read_ext = [&](std::size_t start) {
    std::size_t len = start;
    if (start == 15) {
      std::uint8_t b;
      do {
        b = read_byte();
        len += b;
      } while (b == 255);
    }
    return len;
  };

  while (ip < iend) {
    const std::uint8_t token = read_byte();
    const std::size_t lit_len = read_ext(token >> 4);
    if (std::size_t(iend - ip) < lit_len)
      throw FormatError("lz: literal overrun");
    if (std::size_t(oend - op) < lit_len)
      throw FormatError("lz: output overrun");
    // An empty output may have no buffer at all, and memcpy's pointers
    // must be valid even for zero bytes.
    if (lit_len > 0) std::memcpy(op, ip, lit_len);
    ip += lit_len;
    op += lit_len;
    if (ip >= iend) break;  // final literal-only sequence
    const std::size_t lo = read_byte();
    const std::size_t hi = read_byte();
    const std::size_t offset = lo | (hi << 8);
    const std::size_t match_len = read_ext(token & 0x0F) + kMinMatch;
    if (offset == 0 || offset > std::size_t(op - out))
      throw FormatError("lz: bad match offset");
    if (std::size_t(oend - op) < match_len)
      throw FormatError("lz: output overrun");
    const std::uint8_t* from = op - offset;
    if (offset >= match_len) {
      std::memcpy(op, from, match_len);  // disjoint: plain copy
      op += match_len;
    } else {
      // Overlapping match (offset < len) is the RLE case and must
      // replicate byte by byte.
      for (std::size_t i = 0; i < match_len; ++i) *op++ = from[i];
    }
  }
  if (op != oend)
    throw FormatError("lz: size mismatch after decode (got " +
                      std::to_string(op - out) + ", want " +
                      std::to_string(original_size) + ")");
}

Bytes lz_decompress_block(ByteSpan block, std::size_t original_size) {
  Bytes out(original_size);
  lz_decompress_block_into(block, out.data(), original_size);
  return out;
}

}  // namespace bitio::cz
