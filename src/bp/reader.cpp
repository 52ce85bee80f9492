#include "bp/reader.hpp"

#include <cstring>

#include "bp/chunk.hpp"
#include "compress/codec.hpp"
#include "compress/parallel.hpp"
#include "util/binio.hpp"
#include "util/crc32c.hpp"
#include "util/error.hpp"

namespace bitio::bp {

Reader::Reader(ForEngineFactory, fsim::SharedFs& fs, fsim::ClientId client,
               std::string path)
    : fs_(fs), client_(client), path_(std::move(path)) {
  fsim::FsClient io(fs_, client_);
  if (try_open_footer(io)) {
    footer_used_ = true;
    return;
  }
  const auto idx_bytes = io.read_all(path_ + "/md.idx");
  const auto index = decode_index(idx_bytes);
  const auto md_bytes = io.read_all(path_ + "/md.0");
  for (const auto& entry : index) {
    if (entry.md_offset + entry.md_length > md_bytes.size())
      throw FormatError("bp::Reader: md.idx points past md.0");
    const std::span<const std::uint8_t> slice(md_bytes.data() + entry.md_offset,
                                              entry.md_length);
    // Index entries repeat the metadata block's CRC: cross-check the md.0
    // slice against md.idx before parsing a byte of it.
    if (crc32c(slice) != entry.md_crc)
      throw FormatError(
          "bp::Reader: step metadata CRC mismatch between md.idx/md.0");
    StepRecord record = decode_step(slice);
    if (record.step != entry.step)
      throw FormatError("bp::Reader: step id mismatch between md.idx/md.0");
    steps_[record.step] = std::move(record);  // later entries win
  }
}

bool Reader::try_open_footer(fsim::FsClient& io) {
  // Every failure mode here — no footer yet (mid-run attach), torn tail,
  // bit-flipped footer — degrades to the scan path instead of failing the
  // open; the scan then delivers its own verdicts.
  try {
    const std::string md_path = path_ + "/md.0";
    if (!io.exists(md_path)) return false;
    const std::uint64_t size = io.stat_size(md_path);
    if (size < kFtrTrailerBytes) return false;
    const int fd = io.open(md_path, fsim::OpenMode::read);
    std::vector<std::uint8_t> tail(kFtrTrailerBytes);
    const std::uint64_t got_tail =
        io.pread(fd, size - kFtrTrailerBytes, tail);
    bool ok = got_tail == kFtrTrailerBytes;
    std::uint64_t footer_offset = 0, footer_length = 0;
    std::uint32_t footer_crc = 0;
    if (ok) {
      BinReader trailer{std::span<const std::uint8_t>(tail)};
      footer_offset = trailer.u64();
      footer_length = trailer.u64();
      footer_crc = trailer.u32();
      ok = trailer.u32() == kFtrMagic &&
           footer_offset + footer_length + kFtrTrailerBytes == size;
    }
    std::vector<std::uint8_t> footer(ok ? footer_length : 0);
    if (ok) {
      const std::uint64_t got = io.pread(fd, footer_offset, footer);
      ok = got == footer_length && crc32c(footer) == footer_crc;
    }
    io.close(fd);
    if (!ok) return false;
    for (StepRecord& record : decode_footer(footer)) {
      const std::uint64_t step = record.step;
      steps_[step] = std::move(record);  // later records win, as in the scan
    }
    return true;
  } catch (const Error&) {
    return false;
  }
}

std::vector<std::uint64_t> Reader::steps() const {
  std::vector<std::uint64_t> out;
  out.reserve(steps_.size());
  for (const auto& [id, record] : steps_) {
    (void)record;
    out.push_back(id);
  }
  return out;
}

bool Reader::has_step(std::uint64_t step) const {
  return steps_.count(step) > 0;
}

const StepRecord& Reader::step(std::uint64_t step) const {
  auto it = steps_.find(step);
  if (it == steps_.end())
    throw UsageError("bp::Reader: no step " + std::to_string(step));
  return it->second;
}

std::vector<std::string> Reader::variables(std::uint64_t step) const {
  std::vector<std::string> out;
  for (const auto& var : this->step(step).variables) out.push_back(var.name);
  return out;
}

const VarRecord* Reader::find_variable(std::uint64_t step,
                                       const std::string& name) const {
  auto it = steps_.find(step);
  if (it == steps_.end()) return nullptr;
  for (const auto& var : it->second.variables)
    if (var.name == name) return &var;
  return nullptr;
}

const ChunkRecord* Reader::find_chunk(std::uint64_t step,
                                      const std::string& name,
                                      std::uint32_t writer_rank) const {
  const VarRecord* var = find_variable(step, name);
  if (!var) return nullptr;
  for (const auto& chunk : var->chunks)
    if (chunk.writer_rank == writer_rank) return &chunk;
  return nullptr;
}

std::vector<std::uint8_t> Reader::read_chunk(std::uint64_t step,
                                             const std::string& name,
                                             std::uint32_t writer_rank) {
  const VarRecord* var = find_variable(step, name);
  const ChunkRecord* chunk =
      var ? find_chunk(step, name, writer_rank) : nullptr;
  if (!chunk)
    throw UsageError("bp::Reader: no chunk of '" + name + "' by rank " +
                     std::to_string(writer_rank) + " in step " +
                     std::to_string(step));
  const std::size_t elem = dtype_size(var->dtype);
  fsim::FsClient io(fs_, client_);
  return fetch_chunk(io, name, *chunk, elem);
}

std::vector<std::uint8_t> Reader::read_slice(std::uint64_t step,
                                             const std::string& name,
                                             std::uint64_t elem_offset,
                                             std::uint64_t elem_count) {
  const VarRecord* var = find_variable(step, name);
  if (!var)
    throw UsageError("bp::Reader: no variable '" + name + "' in step " +
                     std::to_string(step));
  if (var->shape.size() != 1)
    throw UsageError("bp::Reader: read_slice requires a 1-D variable");
  if (elem_offset + elem_count > var->shape[0])
    throw UsageError("bp::Reader: slice of '" + name +
                     "' exceeds the global extent");
  const std::size_t elem = dtype_size(var->dtype);
  std::vector<std::uint8_t> out(elem_count * elem, 0);

  fsim::FsClient io(fs_, client_);
  for (const auto& chunk : var->chunks) {
    const std::uint64_t c_begin = chunk.offset[0];
    const std::uint64_t c_end = c_begin + chunk.count[0];
    const std::uint64_t lo = std::max(c_begin, elem_offset);
    const std::uint64_t hi = std::min(c_end, elem_offset + elem_count);
    if (lo >= hi) continue;  // no overlap: this chunk is never read
    const std::vector<std::uint8_t> raw = fetch_chunk(io, name, chunk, elem);
    std::memcpy(out.data() + (lo - elem_offset) * elem,
                raw.data() + (lo - c_begin) * elem, (hi - lo) * elem);
  }
  return out;
}

std::vector<std::uint8_t> Reader::fetch_chunk(fsim::FsClient& io,
                                              const std::string& name,
                                              const ChunkRecord& chunk,
                                              std::size_t elem) {
  std::vector<std::uint8_t> stored;
  if (!read_stored(io, chunk, stored))
    throw FormatError("bp::Reader: short read of chunk in " + path_ +
                      "/data." + std::to_string(chunk.subfile));
  // Verify the stored bytes before decompressing/scattering them.
  if (chunk.has_crc && crc32c(stored) != chunk.crc32c)
    throw FormatError("bp::Reader: chunk CRC mismatch for '" + name +
                      "' in " + path_ + "/data." +
                      std::to_string(chunk.subfile));

  std::vector<std::uint8_t> raw;
  if (chunk.operator_name.empty()) {
    raw = std::move(stored);
  } else {
    // Dispatch on the frame magic: handles both single-block frames and
    // the CZP1 block-parallel container a writer with compress_threads > 1
    // produces.  The named codec still supplies the modelled decompression
    // speed.
    auto codec = cz::make_codec(chunk.operator_name, elem);
    raw = cz::decompress_frame(stored);
    io.charge_cpu(double(raw.size()) / codec->decompress_speed_bps(),
                  fsim::OpTag::decompress);
  }
  if (raw.size() != element_count(chunk.count) * elem)
    throw FormatError("bp::Reader: chunk payload size mismatch");
  return raw;
}

bool Reader::read_stored(fsim::FsClient& io, const ChunkRecord& chunk,
                         std::vector<std::uint8_t>& stored) {
  const int fd = io.open(path_ + "/data." + std::to_string(chunk.subfile),
                         fsim::OpenMode::read);
  stored.resize(chunk.stored_bytes);
  const std::uint64_t got = io.pread(fd, chunk.file_offset, stored);
  io.close(fd);
  return got == chunk.stored_bytes;
}

std::vector<std::uint8_t> Reader::read(std::uint64_t step,
                                       const std::string& name) {
  const VarRecord* var = find_variable(step, name);
  if (!var)
    throw UsageError("bp::Reader: no variable '" + name + "' in step " +
                     std::to_string(step));
  const std::size_t elem = dtype_size(var->dtype);
  std::vector<std::uint8_t> out(element_count(var->shape) * elem, 0);

  fsim::FsClient io(fs_, client_);
  for (const auto& chunk : var->chunks) {
    scatter_chunk(fetch_chunk(io, name, chunk, elem), chunk, var->shape, elem,
                  out);
  }
  return out;
}

std::vector<Reader::ChunkVerdict> Reader::verify() {
  std::vector<ChunkVerdict> verdicts;
  fsim::FsClient io(fs_, client_);
  for (const auto& [id, record] : steps_) {
    for (const auto& var : record.variables) {
      for (const auto& chunk : var.chunks) {
        ChunkVerdict verdict;
        verdict.step = id;
        verdict.var = var.name;
        verdict.writer_rank = chunk.writer_rank;
        verdict.subfile = chunk.subfile;
        verdict.file_offset = chunk.file_offset;
        if (!chunk.has_crc) {
          verdict.status = ChunkVerdict::Status::no_crc;
          verdicts.push_back(std::move(verdict));
          continue;
        }
        std::vector<std::uint8_t> stored;
        if (!read_stored(io, chunk, stored))
          verdict.status = ChunkVerdict::Status::short_read;
        else if (crc32c(stored) != chunk.crc32c)
          verdict.status = ChunkVerdict::Status::crc_mismatch;
        else
          verdict.status = ChunkVerdict::Status::ok;
        verdicts.push_back(std::move(verdict));
      }
    }
  }
  return verdicts;
}

bool Reader::all_ok(const std::vector<ChunkVerdict>& verdicts) {
  for (const auto& v : verdicts)
    if (v.status == ChunkVerdict::Status::short_read ||
        v.status == ChunkVerdict::Status::crc_mismatch)
      return false;
  return true;
}

std::optional<AttrValue> Reader::attribute(std::uint64_t step,
                                           const std::string& name) const {
  auto it = steps_.find(step);
  if (it == steps_.end()) return std::nullopt;
  for (const auto& [key, value] : it->second.attributes)
    if (key == name) return value;
  return std::nullopt;
}

}  // namespace bitio::bp
