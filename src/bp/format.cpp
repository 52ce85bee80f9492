#include "bp/format.hpp"

#include "util/binio.hpp"
#include "util/crc32c.hpp"

namespace bitio::bp {

namespace {

void encode_attr(BinWriter& writer, const std::string& name,
                 const AttrValue& value) {
  writer.str(name);
  writer.u8(std::uint8_t(value.index()));
  if (const auto* s = std::get_if<std::string>(&value)) {
    writer.str(*s);
  } else if (const auto* d = std::get_if<double>(&value)) {
    writer.f64(*d);
  } else {
    writer.u64(std::get<std::uint64_t>(value));
  }
}

std::pair<std::string, AttrValue> decode_attr(BinReader& reader) {
  std::string name = reader.str();
  const std::uint8_t kind = reader.u8();
  switch (kind) {
    case 0: return {std::move(name), AttrValue(reader.str())};
    case 1: return {std::move(name), AttrValue(reader.f64())};
    case 2: return {std::move(name), AttrValue(reader.u64())};
    default: throw FormatError("bp: unknown attribute kind");
  }
}

/// A version magic as its four characters ("MD06"), for errors.
std::string magic_name(std::uint32_t magic) {
  std::string name = "\"????\"";
  for (std::size_t i = 0; i < 4; ++i)
    if (const char c = char(magic >> (24 - 8 * i)); c >= ' ' && c <= '~')
      name[i + 1] = c;
  return name;
}

/// Bytes encode_step() writes for `record`, so its buffer is sized once.
std::size_t encoded_step_size(const StepRecord& record) {
  auto dims_size = [](const Dims& d) { return 4 + 8 * d.size(); };
  // magic, step, variable count, attribute count, trailing CRC.
  std::size_t n = 4 + 8 + 4 + 4 + 4;
  for (const auto& var : record.variables) {
    n += 4 + var.name.size() + 1 + dims_size(var.shape) + 4;
    for (const auto& chunk : var.chunks)
      n += dims_size(chunk.offset) + dims_size(chunk.count) + 4 + 4 + 8 + 8 +
           8 + 4 + chunk.operator_name.size() + 8 + 8 + 1 + 4 + 1 + 8;
  }
  for (const auto& [name, value] : record.attributes) {
    const auto* s = std::get_if<std::string>(&value);
    n += 4 + name.size() + 1 + (s ? 4 + s->size() : 8);
  }
  return n;
}

}  // namespace

std::vector<std::uint8_t> encode_step(const StepRecord& record) {
  BinWriter writer;
  writer.reserve(encoded_step_size(record));
  writer.u32(kMdMagicV6);
  writer.u64(record.step);
  writer.u32(std::uint32_t(record.variables.size()));
  for (const auto& var : record.variables) {
    writer.str(var.name);
    writer.u8(std::uint8_t(var.dtype));
    writer.dims(var.shape);
    writer.u32(std::uint32_t(var.chunks.size()));
    for (const auto& chunk : var.chunks) {
      writer.dims(chunk.offset);
      writer.dims(chunk.count);
      writer.u32(chunk.writer_rank);
      writer.u32(chunk.subfile);
      writer.u64(chunk.file_offset);
      writer.u64(chunk.stored_bytes);
      writer.u64(chunk.raw_bytes);
      writer.str(chunk.operator_name);
      writer.f64(chunk.stat_min);
      writer.f64(chunk.stat_max);
      writer.u8(chunk.has_crc ? 1 : 0);
      writer.u32(chunk.crc32c);
      writer.u8(chunk.has_content_hash ? 1 : 0);
      writer.u64(chunk.content_hash);
    }
  }
  writer.u32(std::uint32_t(record.attributes.size()));
  for (const auto& [name, value] : record.attributes)
    encode_attr(writer, name, value);
  // The metadata block protects itself: trailing CRC32C over everything
  // above, verified before any field is trusted on decode.
  writer.u32(crc32c(writer.buffer()));
  return writer.take();
}

StepRecord decode_step(std::span<const std::uint8_t> data) {
  if (data.size() < 4) throw FormatError("bp: truncated step metadata");
  const std::uint32_t magic = BinReader(data).u32();
  if (magic != kMdMagicV6)
    throw FormatError("bp: bad step metadata magic " + magic_name(magic) +
                      " (unknown format version)");
  if (data.size() < 8) throw FormatError("bp: truncated step metadata");
  const std::span<const std::uint8_t> body = data.first(data.size() - 4);
  if (crc32c(body) != BinReader(data.last(4)).u32())
    throw FormatError("bp: step metadata CRC mismatch");

  BinReader reader(body);
  reader.u32();  // magic, validated above
  StepRecord record;
  record.step = reader.u64();
  const std::uint32_t nvars = reader.u32();
  record.variables.reserve(nvars);
  for (std::uint32_t v = 0; v < nvars; ++v) {
    VarRecord var;
    var.name = reader.str();
    const std::uint8_t dtype = reader.u8();
    if (dtype > std::uint8_t(Datatype::float64))
      throw FormatError("bp: bad datatype tag");
    var.dtype = Datatype(dtype);
    var.shape = reader.dims();
    const std::uint32_t nchunks = reader.u32();
    var.chunks.reserve(nchunks);
    for (std::uint32_t c = 0; c < nchunks; ++c) {
      ChunkRecord chunk;
      chunk.offset = reader.dims();
      chunk.count = reader.dims();
      chunk.writer_rank = reader.u32();
      chunk.subfile = reader.u32();
      chunk.file_offset = reader.u64();
      chunk.stored_bytes = reader.u64();
      chunk.raw_bytes = reader.u64();
      chunk.operator_name = reader.str();
      chunk.stat_min = reader.f64();
      chunk.stat_max = reader.f64();
      chunk.has_crc = reader.u8() != 0;
      chunk.crc32c = reader.u32();
      chunk.has_content_hash = reader.u8() != 0;
      chunk.content_hash = reader.u64();
      var.chunks.push_back(std::move(chunk));
    }
    record.variables.push_back(std::move(var));
  }
  const std::uint32_t nattrs = reader.u32();
  for (std::uint32_t a = 0; a < nattrs; ++a)
    record.attributes.push_back(decode_attr(reader));
  if (!reader.done()) throw FormatError("bp: trailing bytes in step metadata");
  return record;
}

std::vector<std::uint8_t> encode_index(const std::vector<IndexEntry>& index) {
  BinWriter writer;
  writer.u32(kIdxMagicV5);
  writer.u32(std::uint32_t(index.size()));
  for (const auto& e : index) {
    writer.u64(e.step);
    writer.u64(e.md_offset);
    writer.u64(e.md_length);
    writer.u32(e.md_crc);
    writer.u32(0);  // reserved, keeps entries 8-byte aligned
  }
  return writer.take();
}

std::vector<IndexEntry> decode_index(std::span<const std::uint8_t> data) {
  BinReader reader(data);
  const std::uint32_t magic = reader.u32();
  if (magic != kIdxMagicV5)
    throw FormatError("bp: bad md.idx magic " + magic_name(magic) +
                      " (unknown format version)");
  const std::uint32_t n = reader.u32();
  if (reader.remaining() != std::size_t(n) * kIdxEntryBytesV5)
    throw FormatError("bp: md.idx size mismatch");
  std::vector<IndexEntry> index;
  index.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    IndexEntry e;
    e.step = reader.u64();
    e.md_offset = reader.u64();
    e.md_length = reader.u64();
    e.md_crc = reader.u32();
    reader.u32();  // reserved
    index.push_back(e);
  }
  return index;
}

std::vector<std::uint8_t> encode_footer(
    const std::vector<std::vector<std::uint8_t>>& steps) {
  std::size_t total = 8;
  for (const auto& block : steps) total += 8 + block.size();
  BinWriter writer;
  writer.reserve(total);
  writer.u32(kFtrMagic);
  writer.u32(std::uint32_t(steps.size()));
  for (const auto& block : steps) {
    const std::vector<std::uint8_t>& md = block;
    writer.u64(md.size());
    writer.bytes(md);
  }
  return writer.take();
}

std::vector<StepRecord> decode_footer(std::span<const std::uint8_t> data) {
  BinReader reader(data);
  if (reader.u32() != kFtrMagic)
    throw FormatError("bp: bad footer magic");
  const std::uint32_t n = reader.u32();
  std::vector<StepRecord> steps;
  steps.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t length = reader.u64();
    if (length > reader.remaining())
      throw FormatError("bp: truncated footer step record");
    steps.push_back(decode_step(reader.bytes(std::size_t(length))));
  }
  if (!reader.done()) throw FormatError("bp: trailing bytes in footer");
  return steps;
}

}  // namespace bitio::bp
