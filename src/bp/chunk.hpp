#pragma once
// The chunk codec every miniBP engine shares: put checks, the operator,
// its modelled CPU cost, value statistics and the read-side row-major
// scatter.  bp::Writer (file containers), bp::StreamEngine (miniSST) and
// bp::Reader each keep their own trace charges; what a chunk *is* on the
// way in and out lives here once.

#include <memory>
#include <span>

#include "bp/types.hpp"
#include "compress/buffer_pool.hpp"
#include "compress/codec.hpp"

namespace bitio::bp {

struct EngineConfig;

/// Modelled CRC32C throughput for the per-chunk checksum charge (one core;
/// same order as the memcopy bandwidth).  A model input of the simulated
/// clock: it does not follow the kernel the host's crc32c() runs.
inline constexpr double kCrcBandwidthBps = 12e9;

/// What a step's puts carry.  A step is all-real or all-synthetic.
enum class StepPayload { none, real, synthetic };

/// The checks every engine applies to a put: `rank` in range, offset and
/// count of the shape's dimensionality, the chunk inside the global shape.
/// Errors are UsageErrors prefixed with `who`.
void check_put(const char* who, int rank, int nranks, const std::string& name,
               const Dims& shape, const Dims& offset, const Dims& count);

/// Record that the open step received a put of kind `put`; throws when a
/// step would mix real and synthetic puts.
void note_payload(const char* who, StepPayload& step, StepPayload put);

/// The engine's per-chunk operator: null for "none" (or ""), otherwise the
/// named codec, wrapped in a cz::ParallelCodec drawing block scratch from
/// `pool` when compress_threads > 1 (CZP1 frames, byte-identical for any
/// thread count).  Validates compress_threads and compress_block_kb.
std::unique_ptr<cz::Codec> make_chunk_codec(const char* who,
                                            const EngineConfig& config,
                                            cz::BufferPool& pool);

/// CPU seconds charged for compressing `raw_bytes` with `codec`: parallel
/// wall time (fsim::parallel_cpu_seconds) when compress_threads > 1,
/// serial otherwise.
double compress_cpu_seconds(const cz::Codec& codec, const EngineConfig& config,
                            std::uint64_t raw_bytes);

/// The record of a synthetic (size-only) chunk: raw bytes from its count,
/// stored bytes scaled by `ratio` under an operator, no CRC or statistics.
ChunkRecord synthetic_chunk(const Dims& offset, const Dims& count,
                            Datatype dtype, const cz::Codec* codec,
                            double ratio);

/// Min/max over a real chunk's elements for the metadata statistics
/// (left untouched for an empty chunk).
void compute_stats(std::span<const std::uint8_t> payload, Datatype dtype,
                   double& lo, double& hi);

/// Scatter one chunk's raw bytes into its variable's row-major global
/// array `out` of global extent `shape`.
void scatter_chunk(std::span<const std::uint8_t> raw, const ChunkRecord& chunk,
                   const Dims& shape, std::size_t elem,
                   std::span<std::uint8_t> out);

}  // namespace bitio::bp
