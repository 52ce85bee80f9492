#include "frozen/compress_reference.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "compress/frame.hpp"
#include "util/error.hpp"

namespace bitio::cz {

// ------------------------------------------------------------- shuffle ----

Bytes seed_shuffle(ByteSpan input, std::size_t typesize) {
  if (typesize == 0) throw UsageError("shuffle: typesize must be > 0");
  const std::size_t n = input.size() / typesize;  // whole elements
  Bytes out(input.size());
  for (std::size_t b = 0; b < typesize; ++b) {
    const std::size_t base = b * n;
    for (std::size_t i = 0; i < n; ++i) out[base + i] = input[i * typesize + b];
  }
  for (std::size_t i = n * typesize; i < input.size(); ++i) out[i] = input[i];
  return out;
}

Bytes seed_unshuffle(ByteSpan input, std::size_t typesize) {
  if (typesize == 0) throw UsageError("unshuffle: typesize must be > 0");
  const std::size_t n = input.size() / typesize;
  Bytes out(input.size());
  for (std::size_t b = 0; b < typesize; ++b) {
    const std::size_t base = b * n;
    for (std::size_t i = 0; i < n; ++i) out[i * typesize + b] = input[base + i];
  }
  for (std::size_t i = n * typesize; i < input.size(); ++i) out[i] = input[i];
  return out;
}

// ------------------------------------------------------------------ lz ----

namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxOffset = 65535;
constexpr std::size_t kHashBits = 16;

inline std::uint32_t read32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline std::uint32_t hash4(std::uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

void emit_length(Bytes& out, std::size_t extra) {
  while (extra >= 255) {
    out.push_back(255);
    extra -= 255;
  }
  out.push_back(static_cast<std::uint8_t>(extra));
}

void emit_sequence(Bytes& out, const std::uint8_t* lit, std::size_t lit_len,
                   std::size_t offset, std::size_t match_len) {
  const bool has_match = match_len >= kMinMatch;
  const std::size_t mstored = has_match ? match_len - kMinMatch : 0;
  const std::uint8_t lit_nib =
      static_cast<std::uint8_t>(lit_len >= 15 ? 15 : lit_len);
  const std::uint8_t mat_nib =
      static_cast<std::uint8_t>(has_match ? (mstored >= 15 ? 15 : mstored) : 0);
  out.push_back(static_cast<std::uint8_t>((lit_nib << 4) | mat_nib));
  if (lit_nib == 15) emit_length(out, lit_len - 15);
  out.insert(out.end(), lit, lit + lit_len);
  if (has_match) {
    out.push_back(static_cast<std::uint8_t>(offset & 0xFF));
    out.push_back(static_cast<std::uint8_t>(offset >> 8));
    if (mat_nib == 15) emit_length(out, mstored - 15);
  }
}

}  // namespace

Bytes seed_lz_compress_block(ByteSpan input) {
  Bytes out;
  out.reserve(input.size() / 2 + 16);
  const std::uint8_t* const base = input.data();
  const std::size_t n = input.size();

  if (n < kMinMatch + 1) {
    emit_sequence(out, base, n, 0, 0);
    return out;
  }

  std::vector<std::uint32_t> table(1u << kHashBits, 0xFFFFFFFFu);
  std::size_t pos = 0;
  std::size_t anchor = 0;
  const std::size_t limit = n - kMinMatch;

  while (pos <= limit) {
    const std::uint32_t h = hash4(read32(base + pos));
    const std::uint32_t cand = table[h];
    table[h] = static_cast<std::uint32_t>(pos);
    if (cand != 0xFFFFFFFFu && pos - cand <= kMaxOffset &&
        read32(base + cand) == read32(base + pos)) {
      std::size_t len = kMinMatch;
      while (pos + len < n && base[cand + len] == base[pos + len]) ++len;
      emit_sequence(out, base + anchor, pos - anchor, pos - cand, len);
      pos += len;
      anchor = pos;
      if (pos <= limit) table[hash4(read32(base + pos - 2))] =
          static_cast<std::uint32_t>(pos - 2);
    } else {
      ++pos;
    }
  }
  emit_sequence(out, base + anchor, n - anchor, 0, 0);
  return out;
}

Bytes seed_lz_decompress_block(ByteSpan block, std::size_t original_size) {
  Bytes out;
  out.reserve(original_size);
  std::size_t ip = 0;
  const std::size_t in_size = block.size();

  auto read_byte = [&]() -> std::uint8_t {
    if (ip >= in_size) throw FormatError("lz: truncated block");
    return block[ip++];
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

  while (ip < in_size) {
    const std::uint8_t token = read_byte();
    const std::size_t lit_len = read_ext(token >> 4);
    if (ip + lit_len > in_size) throw FormatError("lz: literal overrun");
    out.insert(out.end(), block.begin() + long(ip),
               block.begin() + long(ip + lit_len));
    ip += lit_len;
    if (ip >= in_size) break;
    const std::size_t lo = read_byte();
    const std::size_t hi = read_byte();
    const std::size_t offset = lo | (hi << 8);
    const std::size_t match_len = read_ext(token & 0x0F) + kMinMatch;
    if (offset == 0 || offset > out.size())
      throw FormatError("lz: bad match offset");
    std::size_t from = out.size() - offset;
    for (std::size_t i = 0; i < match_len; ++i) out.push_back(out[from + i]);
  }
  if (out.size() != original_size)
    throw FormatError("lz: size mismatch after decode (got " +
                      std::to_string(out.size()) + ", want " +
                      std::to_string(original_size) + ")");
  return out;
}

// ------------------------------------------------------------- huffman ----

namespace {

constexpr int kMaxCodeLen = 15;

std::vector<std::uint32_t> ref_canonical_codes(const std::vector<int>& lengths) {
  std::vector<std::uint32_t> codes(lengths.size(), 0);
  std::vector<std::size_t> order(lengths.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return lengths[a] < lengths[b];
                   });
  std::uint32_t code = 0;
  int prev_len = 0;
  for (std::size_t idx : order) {
    if (lengths[idx] == 0) continue;
    code <<= (lengths[idx] - prev_len);
    codes[idx] = code;
    ++code;
    prev_len = lengths[idx];
  }
  return codes;
}

class RefBitReader {
public:
  explicit RefBitReader(ByteSpan data) : data_(data) {}
  std::uint32_t get(int count) {
    std::uint32_t value = 0;
    for (int i = 0; i < count; ++i) {
      if (byte_pos_ >= data_.size())
        throw FormatError("huffman: bit stream truncated");
      const int bit = (data_[byte_pos_] >> (7 - bit_pos_)) & 1;
      value = (value << 1) | std::uint32_t(bit);
      if (++bit_pos_ == 8) {
        bit_pos_ = 0;
        ++byte_pos_;
      }
    }
    return value;
  }

private:
  ByteSpan data_;
  std::size_t byte_pos_ = 0;
  int bit_pos_ = 0;
};

}  // namespace

std::vector<std::uint16_t> seed_huffman_decode(ByteSpan data) {
  std::size_t pos = 0;
  auto need = [&](std::size_t k) {
    if (pos + k > data.size()) throw FormatError("huffman: truncated header");
  };
  need(6);
  std::uint32_t count = 0;
  for (int i = 0; i < 4; ++i) count |= std::uint32_t(data[pos++]) << (8 * i);
  std::size_t alphabet_size = data[pos] | (std::size_t(data[pos + 1]) << 8);
  pos += 2;
  if (alphabet_size == 0) alphabet_size = 65536;

  std::vector<int> lengths(alphabet_size, 0);
  need((alphabet_size + 1) / 2);
  for (std::size_t i = 0; i < alphabet_size; i += 2) {
    const std::uint8_t b = data[pos++];
    lengths[i] = b & 0x0F;
    if (i + 1 < alphabet_size) lengths[i + 1] = b >> 4;
  }
  (void)ref_canonical_codes(lengths);  // kept: seed code computed these too

  std::vector<std::size_t> order(alphabet_size);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return lengths[a] < lengths[b];
                   });
  std::vector<std::uint32_t> first_code(kMaxCodeLen + 2, 0);
  std::vector<std::uint32_t> first_index(kMaxCodeLen + 2, 0);
  std::vector<std::uint16_t> symbol_of(alphabet_size);
  {
    std::uint32_t idx = 0;
    for (std::size_t s : order) {
      if (lengths[s] == 0) continue;
      symbol_of[idx] = std::uint16_t(s);
      ++idx;
    }
    std::uint32_t running = 0;
    std::uint32_t code = 0;
    for (int len = 1; len <= kMaxCodeLen; ++len) {
      code <<= 1;
      first_code[std::size_t(len)] = code;
      first_index[std::size_t(len)] = running;
      std::uint32_t count_len = 0;
      for (std::size_t s = 0; s < alphabet_size; ++s)
        if (lengths[s] == len) ++count_len;
      code += count_len;
      running += count_len;
    }
    first_index[kMaxCodeLen + 1] = running;
  }

  RefBitReader reader(data.subspan(pos));
  std::vector<std::uint16_t> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t code = 0;
    int len = 0;
    while (true) {
      code = (code << 1) | reader.get(1);
      ++len;
      if (len > kMaxCodeLen) throw FormatError("huffman: bad code");
      const std::uint32_t count_len =
          first_index[std::size_t(len) + 1] - first_index[std::size_t(len)];
      const std::uint32_t next_first = first_code[std::size_t(len)];
      if (count_len > 0 && code >= next_first &&
          code < next_first + count_len) {
        out.push_back(
            symbol_of[first_index[std::size_t(len)] + (code - next_first)]);
        break;
      }
    }
  }
  return out;
}

// --------------------------------------------------------------- blosc ----

Bytes seed_blosc_compress(ByteSpan input, std::size_t typesize) {
  if (typesize == 0) typesize = 1;
  if (typesize > 255) throw UsageError("blosc: typesize too large");
  constexpr std::size_t kChunk = 256 * 1024;
  Bytes out;
  out.reserve(input.size() / 2 + 32);
  out.insert(out.end(), {'B', 'L', 'L', '1'});
  out.push_back(std::uint8_t(typesize));
  put_u64(out, input.size());
  const std::uint32_t nchunks =
      std::uint32_t((input.size() + kChunk - 1) / kChunk);
  put_u32(out, nchunks);
  for (std::uint32_t c = 0; c < nchunks; ++c) {
    const std::size_t off = std::size_t(c) * kChunk;
    const std::size_t len = std::min(kChunk, input.size() - off);
    ByteSpan chunk = input.subspan(off, len);
    Bytes shuffled = seed_shuffle(chunk, typesize);
    Bytes packed = seed_lz_compress_block(shuffled);
    put_u32(out, std::uint32_t(len));
    if (packed.size() < len) {
      out.push_back(1);
      put_u32(out, std::uint32_t(packed.size()));
      out.insert(out.end(), packed.begin(), packed.end());
    } else {
      out.push_back(0);
      put_u32(out, std::uint32_t(len));
      out.insert(out.end(), chunk.begin(), chunk.end());
    }
  }
  return out;
}

}  // namespace bitio::cz
