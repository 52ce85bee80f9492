#include "bp/chunk.hpp"

#include <cstring>

#include "bp/writer.hpp"
#include "compress/parallel.hpp"
#include "fsim/storage_model.hpp"
#include "util/error.hpp"

namespace bitio::bp {

namespace {

template <typename T>
void minmax(std::span<const std::uint8_t> data, double& lo, double& hi) {
  const std::size_t n = data.size() / sizeof(T);
  if (n == 0) return;
  const T* p = reinterpret_cast<const T*>(data.data());
  T mn = p[0], mx = p[0];
  for (std::size_t i = 1; i < n; ++i) {
    if (p[i] < mn) mn = p[i];
    if (p[i] > mx) mx = p[i];
  }
  lo = double(mn);
  hi = double(mx);
}

}  // namespace

void check_put(const char* who, int rank, int nranks, const std::string& name,
               const Dims& shape, const Dims& offset, const Dims& count) {
  if (rank < 0 || rank >= nranks)
    throw UsageError(std::string(who) + ": rank out of range");
  if (shape.size() != offset.size() || shape.size() != count.size())
    throw UsageError(std::string(who) + ": dimension rank mismatch for '" +
                     name + "'");
  for (std::size_t d = 0; d < shape.size(); ++d)
    if (offset[d] + count[d] > shape[d])
      throw UsageError(std::string(who) + ": chunk of '" + name +
                       "' exceeds global shape");
}

void note_payload(const char* who, StepPayload& step, StepPayload put) {
  if (step != StepPayload::none && step != put)
    throw UsageError(std::string(who) +
                     ": cannot mix real and synthetic puts");
  step = put;
}

std::unique_ptr<cz::Codec> make_chunk_codec(const char* who,
                                            const EngineConfig& config,
                                            cz::BufferPool& pool) {
  if (config.compress_threads < 1)
    throw UsageError(std::string(who) + ": compress_threads must be >= 1");
  if (config.compress_block_kb < 1)
    throw UsageError(std::string(who) + ": compress_block_kb must be >= 1");
  if (config.codec == "none" || config.codec.empty()) return nullptr;
  auto codec = cz::make_codec(config.codec, config.codec_typesize);
  if (config.compress_threads == 1) return codec;
  return std::make_unique<cz::ParallelCodec>(
      std::move(codec), config.compress_threads,
      config.compress_block_kb * 1024, nullptr, &pool);
}

double compress_cpu_seconds(const cz::Codec& codec, const EngineConfig& config,
                            std::uint64_t raw_bytes) {
  const double serial = double(raw_bytes) / codec.compress_speed_bps();
  if (config.compress_threads <= 1) return serial;
  const std::uint64_t block = std::uint64_t(config.compress_block_kb) * 1024;
  const std::uint64_t nblocks = (raw_bytes + block - 1) / block;
  return fsim::parallel_cpu_seconds(serial, config.compress_threads, nblocks);
}

ChunkRecord synthetic_chunk(const Dims& offset, const Dims& count,
                            Datatype dtype, const cz::Codec* codec,
                            double ratio) {
  ChunkRecord meta;
  meta.offset = offset;
  meta.count = count;
  meta.raw_bytes = element_count(count) * dtype_size(dtype);
  meta.stored_bytes = meta.raw_bytes;
  if (codec) {
    meta.operator_name = codec->name();
    meta.stored_bytes = std::uint64_t(double(meta.raw_bytes) * ratio);
  }
  return meta;
}

void compute_stats(std::span<const std::uint8_t> payload, Datatype dtype,
                   double& lo, double& hi) {
  switch (dtype) {
    case Datatype::uint8: minmax<std::uint8_t>(payload, lo, hi); break;
    case Datatype::int32: minmax<std::int32_t>(payload, lo, hi); break;
    case Datatype::uint64: minmax<std::uint64_t>(payload, lo, hi); break;
    case Datatype::float32: minmax<float>(payload, lo, hi); break;
    case Datatype::float64: minmax<double>(payload, lo, hi); break;
  }
}

void scatter_chunk(std::span<const std::uint8_t> raw, const ChunkRecord& chunk,
                   const Dims& shape, std::size_t elem,
                   std::span<std::uint8_t> out) {
  const std::size_t ndim = shape.size();
  if (ndim == 0) {
    if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
    return;
  }
  // Strides of the global array (in elements); iterate over the chunk's
  // rows in the slowest dimensions, each row of count.back() elements
  // contiguous in both source and destination.
  std::vector<std::uint64_t> stride(ndim, 1);
  for (std::size_t d = ndim - 1; d-- > 0;)
    stride[d] = stride[d + 1] * shape[d + 1];
  const std::uint64_t row_bytes = chunk.count.back() * elem;
  std::uint64_t rows = 1;
  for (std::size_t d = 0; d + 1 < ndim; ++d) rows *= chunk.count[d];
  if (row_bytes == 0) return;

  std::vector<std::uint64_t> cursor(ndim, 0);  // index within the chunk
  for (std::uint64_t r = 0; r < rows; ++r) {
    std::uint64_t dst = 0;
    for (std::size_t d = 0; d < ndim; ++d)
      dst += (chunk.offset[d] + cursor[d]) * stride[d];
    std::memcpy(out.data() + dst * elem, raw.data() + r * row_bytes,
                row_bytes);
    // Advance the row cursor (the last dimension is the contiguous row).
    for (std::size_t d = ndim - 1; d-- > 0;) {
      if (++cursor[d] < chunk.count[d]) break;
      cursor[d] = 0;
    }
  }
}

}  // namespace bitio::bp
