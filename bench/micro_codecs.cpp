// google-benchmark microbenchmarks of the compression stack and the BP
// metadata codec — the hot paths of the real (non-synthetic) write path.
//
// `micro_codecs --json` instead runs a threads x block-size sweep of the
// block-parallel pipeline against the frozen seed kernel and prints one
// JSON document (scripts/bench_report.sh captures it as BENCH_codecs.json).
// The sweep also asserts the pipeline's guarantees while it measures:
// frames byte-identical across thread counts, and every round trip
// verified against the input.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <string>

#include "bp/format.hpp"
#include "compress/codec.hpp"
#include "compress/parallel.hpp"
#include "frozen/compress_reference.hpp"
#include "compress/shuffle.hpp"
#include "util/crc32c.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace bitio;

cz::Bytes particle_floats(std::size_t bytes, std::uint64_t seed) {
  Rng rng(seed);
  cz::Bytes out(bytes);
  float x = 1.0f;
  for (std::size_t i = 0; i + 4 <= bytes; i += 4) {
    x += 0.001f * float(rng.normal());
    std::memcpy(&out[i], &x, 4);
  }
  return out;
}

void BM_Shuffle(benchmark::State& state) {
  const auto data = particle_floats(std::size_t(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cz::shuffle(data, 4));
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Shuffle)->Arg(64 << 10)->Arg(1 << 20);

void BM_CodecCompress(benchmark::State& state, const char* name) {
  const auto codec = cz::make_codec(name, 4);
  const auto data = particle_floats(std::size_t(state.range(0)), 2);
  std::size_t compressed = 0;
  for (auto _ : state) {
    auto frame = codec->compress(data);
    compressed = frame.size();
    benchmark::DoNotOptimize(frame);
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
  state.counters["ratio"] =
      double(compressed) / double(std::size_t(state.range(0)));
}
BENCHMARK_CAPTURE(BM_CodecCompress, blosc, "blosc")
    ->Arg(64 << 10)
    ->Arg(1 << 20);
BENCHMARK_CAPTURE(BM_CodecCompress, bzip2, "bzip2")->Arg(64 << 10);

void BM_CodecRoundTrip(benchmark::State& state, const char* name) {
  const auto codec = cz::make_codec(name, 4);
  const auto data = particle_floats(std::size_t(state.range(0)), 3);
  const auto frame = codec->compress(data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec->decompress(frame));
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK_CAPTURE(BM_CodecRoundTrip, blosc, "blosc")->Arg(1 << 20);
BENCHMARK_CAPTURE(BM_CodecRoundTrip, bzip2, "bzip2")->Arg(64 << 10);

void BM_StepMetadataEncode(benchmark::State& state) {
  // A 200-node diagnostic step: 3 variables x 25600 chunks.
  bp::StepRecord record;
  record.step = 7;
  for (int v = 0; v < 3; ++v) {
    bp::VarRecord var{"vdf_" + std::to_string(v), bp::Datatype::float64,
                      {25600ull * 1229}, {}};
    var.chunks.reserve(25600);
    for (std::uint32_t r = 0; r < 25600; ++r) {
      var.chunks.push_back({{std::uint64_t(r) * 1229},
                            {1229},
                            r,
                            r / 64,
                            std::uint64_t(r) * 9832,
                            9832,
                            9832,
                            "",
                            0.0,
                            1.0});
    }
    record.variables.push_back(std::move(var));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(bp::encode_step(record));
  }
}
BENCHMARK(BM_StepMetadataEncode);

// CRC32C throughput at a metadata-record size (64 B) and a chunk size
// (1 MiB): the dispatched kernel (SSE4.2 where available) and the portable
// slice-by-8 kernel.
void BM_Crc32c(benchmark::State& state,
               std::uint32_t (*kernel)(std::span<const std::uint8_t>,
                                       std::uint32_t)) {
  const auto data = particle_floats(std::size_t(state.range(0)), 4);
  std::uint32_t crc = 0;
  for (auto _ : state) {
    crc = kernel(data, crc);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK_CAPTURE(BM_Crc32c, dispatched, &crc32c)->Arg(64)->Arg(1 << 20);
BENCHMARK_CAPTURE(BM_Crc32c, slice8, &crc32c_slice8)->Arg(64)->Arg(1 << 20);

// ------------------------------------------------------------ json sweep ----

/// Best-of-N wall time of `fn` in seconds (the box is noisy; the minimum
/// is the least-disturbed run).
template <typename Fn>
double best_of(int n, Fn&& fn) {
  double best = 1e300;
  for (int i = 0; i < n; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

double mbps(std::size_t bytes, double seconds) {
  return seconds > 0 ? double(bytes) / seconds / 1e6 : 0.0;
}

int run_json_sweep() {
  constexpr std::size_t kBytes = 8 << 20;  // float-particle workload
  constexpr int kReps = 5;
  const auto data = particle_floats(kBytes, 42);
  const cz::ByteSpan input(data.data(), data.size());

  Json doc{JsonObject{}};
  doc["workload"]["kind"] = "float-particle-random-walk";
  doc["workload"]["bytes"] = kBytes;
  doc["workload"]["typesize"] = 4;

  // Frozen seed single-thread pipeline: the acceptance baseline.
  cz::Bytes seed_frame;
  const double seed_s =
      best_of(kReps, [&] { seed_frame = cz::seed_blosc_compress(input, 4); });
  doc["seed_kernel"]["compress_MBps"] = mbps(kBytes, seed_s);
  doc["seed_kernel"]["ratio"] = double(kBytes) / double(seed_frame.size());

  const int thread_counts[] = {1, 2, 4};
  const int block_kbs[] = {256, 1024};
  JsonArray sweep;
  bool all_ok = true;
  double best_t4 = 0.0;
  for (const char* name : {"blosc", "bzip2"}) {
    // bzip2 is ~50x slower; sweep it on a slice so the report stays fast.
    const std::size_t nbytes =
        std::string(name) == "bzip2" ? (256 << 10) : kBytes;
    const cz::ByteSpan in(data.data(), nbytes);
    for (int block_kb : block_kbs) {
      cz::Bytes frame_t1;  // reference frame for the determinism check
      for (int threads : thread_counts) {
        const auto codec = cz::make_parallel_codec(
            cz::make_codec(name, 4), threads, std::size_t(block_kb) << 10);
        cz::Bytes frame;
        const double comp_s =
            best_of(kReps, [&] { frame = codec->compress(in); });
        cz::Bytes back;
        const double dec_s =
            best_of(kReps, [&] { back = codec->decompress(frame); });
        const bool round_trip_ok =
            back.size() == nbytes &&
            std::memcmp(back.data(), in.data(), nbytes) == 0;
        if (threads == 1) frame_t1 = frame;
        const bool identical = frame == frame_t1;
        all_ok = all_ok && round_trip_ok && identical;

        Json row{JsonObject{}};
        row["codec"] = name;
        row["threads"] = threads;
        row["block_kb"] = block_kb;
        row["bytes"] = nbytes;
        row["compress_MBps"] = mbps(nbytes, comp_s);
        row["decompress_MBps"] = mbps(nbytes, dec_s);
        row["ratio"] = double(nbytes) / double(frame.size());
        row["frame_bytes"] = frame.size();
        row["identical_to_t1"] = identical;
        row["round_trip_ok"] = round_trip_ok;
        sweep.push_back(std::move(row));
        if (std::string(name) == "blosc" && threads == 4)
          best_t4 = std::max(best_t4, mbps(nbytes, comp_s));
      }
    }
  }
  doc["sweep"] = std::move(sweep);

  // CRC32C kernels (end-to-end integrity of every chunk and metadata
  // block): MB/s per buffer size, dispatched vs portable slice-by-8.
  doc["crc32c"]["hardware"] = crc32c_hardware();
  JsonArray crc_rows;
  for (const std::size_t nbytes : {std::size_t(64), std::size_t(1) << 20}) {
    const auto buf = particle_floats(nbytes, 4);
    // Enough passes per timing that the 64 B case is not timer noise.
    const int passes = int(std::max<std::size_t>(1, (64 << 20) / nbytes));
    for (const auto& [kernel, fn] :
         {std::pair{"dispatched", &crc32c},
          std::pair{"slice8", &crc32c_slice8}}) {
      std::uint32_t crc = 0;
      const double s = best_of(kReps, [&] {
        for (int i = 0; i < passes; ++i) crc = fn(buf, crc);
        benchmark::DoNotOptimize(crc);
      });
      Json row{JsonObject{}};
      row["kernel"] = kernel;
      row["bytes"] = nbytes;
      row["MBps"] = mbps(nbytes * std::size_t(passes), s);
      crc_rows.push_back(std::move(row));
    }
  }
  doc["crc32c"]["sweep"] = std::move(crc_rows);
  // The acceptance headline: blosc pipeline at 4 threads vs the seed
  // single-thread kernel.
  doc["speedup_vs_seed_t4"] = best_t4 / mbps(kBytes, seed_s);
  doc["all_checks_ok"] = all_ok;
  std::printf("%s\n", doc.dump(2).c_str());
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--json") return run_json_sweep();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
