// Fast performance smoke test (labelled `perf`; run with the `perf` test
// preset or `ctest -L perf`).  Guards the headline property of the
// block-parallel pipeline without the full bench sweep: on an 8 MiB
// float-particle workload the optimized pipeline must round-trip exactly
// and beat the frozen seed kernel even at 2 threads.  The full
// threads x block-size report lives in BENCH_codecs.json
// (scripts/bench_report.sh).
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>

#include "compress/codec.hpp"
#include "compress/parallel.hpp"
#include "frozen/compress_reference.hpp"
#include "util/rng.hpp"

namespace bitio {
namespace {

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

/// Best-of-N wall seconds: the minimum is the least-disturbed run, which
/// deflakes the comparison on noisy shared boxes.
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

TEST(PerfSmoke, PipelineBeatsSeedKernelAtTwoThreads) {
  constexpr std::size_t kBytes = 8 << 20;
  const cz::Bytes data = particle_floats(kBytes, 42);
  const cz::ByteSpan input(data.data(), data.size());

  cz::Bytes seed_frame;
  const double seed_s =
      best_of(3, [&] { seed_frame = cz::seed_blosc_compress(input, 4); });

  const auto codec =
      cz::make_parallel_codec(cz::make_blosc_codec(4), 2, 1 << 20);
  cz::Bytes frame;
  const double pipe_s = best_of(3, [&] { frame = codec->compress(input); });

  const cz::Bytes back = codec->decompress(frame);
  ASSERT_EQ(back.size(), data.size());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), data.size()), 0);

  const double speedup = seed_s / pipe_s;
  EXPECT_GT(speedup, 1.0) << "seed " << seed_s << " s vs pipeline " << pipe_s
                          << " s on " << kBytes << " bytes";
}

}  // namespace
}  // namespace bitio
