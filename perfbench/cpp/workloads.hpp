#pragma once
// The three closed-loop workloads of the end-to-end benchmark (see
// perfbench/README.md for why each exists and which layers it isolates).

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fsim/storage_model.hpp"

namespace bitio::fsim {
class SharedFs;
}

namespace perf {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;            // smoke-test sizes instead of paper scale
  std::string trace_json;       // Chrome trace output path (traced runs)
};

/// Everything one run measured: raw samples per end-to-end metric, the
/// per-layer values of a traced run, the values the golden file pins, and
/// the outcome of every correctness check that ran.
struct Report {
  struct Series {
    std::string unit;
    std::vector<double> samples;
  };
  struct Value {
    std::string unit;
    double value = 0.0;
  };

  std::map<std::string, Series> metrics;
  std::map<std::string, Value> layers;
  std::map<std::string, double> pinned;
  std::map<std::string, bool> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void sample(const std::string& name, const char* unit, double value) {
    auto& series = metrics[name];
    series.unit = unit;
    series.samples.push_back(value);
  }
  void layer(const std::string& name, const char* unit, double value) {
    layers[name] = {unit, value};
  }
  /// Record a check outcome; a check that ran several times passes only if
  /// every run passed.
  bool check(const std::string& name, bool ok) {
    auto [it, fresh] = checks.emplace(name, ok);
    if (!fresh) it->second = it->second && ok;
    return ok;
  }
};

/// Pre-generated input variant of a seed: the epoch workloads add
/// variant * 64 MiB to the window's diagnostics volume.
inline int input_variant(std::uint64_t seed) { return int(seed % 8); }

void run_paper_epoch(const Options& options, Report& report);
void run_original_io(const Options& options, Report& report);
void run_live_pic(const Options& options, Report& report);

/// The traced iterations of a run: each window on the tracer's clock, its
/// wall time (the window plus any teardown the untraced iteration also
/// pays), and the untraced wall times of the iterations they pair with.
struct TracedWindows {
  std::vector<std::pair<double, double>> windows;
  std::vector<double> traced_s;
  std::vector<double> untraced_s;

  void add(double from_s, double to_s, double wall_s) {
    windows.push_back({from_s, to_s});
    traced_s.push_back(wall_s);
  }
};

/// Every per-layer metric of a traced run, from the recorded spans and the
/// last traced replay, normalized to one iteration: self time and share per
/// module layer, the per-call metrics, span coverage of the traced windows
/// and the tracing overhead.  Layers a workload bypasses report zero.
void report_layers(Report& report, const TracedWindows& traced,
                   const bitio::fsim::ReplayReport& replay);

/// Capture the Darshan log of a traced window, serialize it and parse it
/// back; true when the parsed log reserializes to the same bytes.
bool darshan_round_trip(const bitio::fsim::SharedFs& fs,
                        const bitio::fsim::ReplayReport& replay, int ranks);

/// Peak resident memory of the process so far, in MiB.  Sampled after the
/// first iteration: later iterations reuse memory the allocator kept, so
/// their high-water mark depends on how many ran.
double peak_rss_mb();

inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace perf
