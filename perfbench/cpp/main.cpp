// bitio_perf: one closed-loop workload of the end-to-end benchmark.
//
//   bitio_perf --workload paper_epoch|original_io|live_pic --seed N
//              --seconds S --trace 0|1 [--tiny] [--trace-json PATH]
//
// Prints one JSON object: raw samples per end-to-end metric, per-layer
// values (traced runs), the values golden.json pins, and every correctness
// check that ran.  perfbench/run.py builds this binary, summarizes the
// samples and checks the pinned values.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "spans.hpp"
#include "workloads.hpp"

namespace perf {

namespace {

constexpr const char* kLayers[] = {"picmc",   "smpi",     "core", "openpmd",
                                   "bp",      "compress", "fsim", "darshan"};

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void print_json(const Options& options, const Report& report) {
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"variant\":%d,"
              "\"trace\":%d,\"tiny\":%s,",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              input_variant(options.seed), options.trace ? 1 : 0,
              options.tiny ? "true" : "false");
  std::printf("\"build\":{\"compiler\":\"%s\",\"build_type\":\"%s\"},",
              BITIO_PERF_COMPILER, BITIO_PERF_BUILD_TYPE);
  std::printf("\"attempted\":%llu,\"failed\":%llu,",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  std::printf("\"checks\":{");
  const char* sep = "";
  for (const auto& [name, ok] : report.checks) {
    std::printf("%s\"%s\":%s", sep, name.c_str(), ok ? "true" : "false");
    sep = ",";
  }
  std::printf("},\"metrics\":{");
  sep = "";
  for (const auto& [name, series] : report.metrics) {
    std::printf("%s\"%s\":{\"unit\":\"%s\",\"samples\":[", sep, name.c_str(),
                series.unit.c_str());
    for (std::size_t i = 0; i < series.samples.size(); ++i)
      std::printf("%s%.17g", i ? "," : "", series.samples[i]);
    std::printf("]}");
    sep = ",";
  }
  std::printf("},\"layers\":{");
  sep = "";
  for (const auto& [name, v] : report.layers) {
    std::printf("%s\"%s\":{\"unit\":\"%s\",\"value\":%.17g}", sep,
                name.c_str(), v.unit.c_str(), v.value);
    sep = ",";
  }
  std::printf("},\"pinned\":{");
  sep = "";
  for (const auto& [name, value] : report.pinned) {
    std::printf("%s\"%s\":%.17g", sep, name.c_str(), value);
    sep = ",";
  }
  std::printf("}}\n");
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "bitio_perf: %s\nusage: bitio_perf --workload "
               "paper_epoch|original_io|live_pic --seed N --seconds S "
               "--trace 0|1 [--tiny] [--trace-json PATH]\n",
               why);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      options.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed takes a non-negative integer");
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options.seconds > 0.0))
        usage("--seconds takes a positive number");
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        usage("--trace takes 0 or 1");
      options.trace = value[0] == '1';
    } else if (arg == "--trace-json") {
      options.trace_json = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed) usage("--seed is required");
  return options;
}

}  // namespace

double peak_rss_mb() {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return double(self.ru_maxrss) / 1024.0;  // KiB on Linux
}

void report_layers(Report& report, const TracedWindows& traced,
                   const bitio::fsim::ReplayReport& replay) {
  Tracer& tracer = Tracer::instance();
  const auto totals = tracer.totals();
  const double n = double(std::max<std::size_t>(1, traced.windows.size()));
  auto span = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanTotal{} : it->second;
  };
  auto per_iteration = [&](const char* name) { return span(name).total_s / n; };
  auto per_call_ns = [&](const char* name) {
    const SpanTotal t = span(name);
    return t.calls ? t.total_s * 1e9 / double(t.calls) : 0.0;
  };

  std::map<std::string, double> self;
  double all_self = 0.0;
  for (const auto& [name, t] : totals) {
    self[layer_of(name)] += t.self_s;
    all_self += t.self_s;
  }
  for (const char* layer : kLayers) {
    const std::string l = layer;
    report.layer(l + ".self_s", "s", self[l] / n);
    report.layer(l + ".self_frac", "frac",
                 all_self > 0 ? self[l] / all_self : 0.0);
  }

  report.layer("picmc.step_s", "s", per_iteration("picmc.step"));
  // Self time: the density allreduce nested in the step is smpi's.
  const SpanTotal step = span("picmc.step");
  report.layer("picmc.ns_per_particle_step", "ns",
               step.calls ? step.self_s * 1e9 / double(step.calls) : 0.0);
  report.layer("smpi.barrier_wait_s", "s", per_iteration("smpi.barrier"));
  report.layer("smpi.allreduce_s", "s", per_iteration("smpi.allreduce"));
  report.layer("core.stage_s", "s", per_iteration("core.stage"));
  report.layer("core.flush_s", "s", per_iteration("core.flush"));
  report.layer("core.close_s", "s", per_iteration("core.close"));
  report.layer("core.restore_s", "s", per_iteration("core.restore"));
  report.layer("openpmd.read_s", "s", self["openpmd"] / n);
  report.layer("bp.put_s", "s", per_iteration("bp.put"));
  report.layer("bp.put_calls", "count", double(span("bp.put").calls) / n);
  report.layer("bp.ns_per_put", "ns", per_call_ns("bp.put"));
  report.layer("bp.end_step_s", "s", per_iteration("bp.end_step"));
  report.layer("bp.close_s", "s", per_iteration("bp.close"));
  report.layer("bp.verify_s", "s", per_iteration("bp.verify"));
  report.layer("bp.chunks_verified", "count",
               double(span("bp.verify").calls) / n);
  report.layer("fsim.posix_s", "s", per_iteration("fsim.posix"));
  report.layer("fsim.replay_s", "s", per_iteration("fsim.replay"));
  report.layer("fsim.trace_ops", "count",
               double(span("fsim.replay").calls) / n);
  report.layer("fsim.ns_per_replayed_op", "ns", per_call_ns("fsim.replay"));
  report.layer("darshan.capture_s", "s", per_iteration("darshan.capture"));
  report.layer("darshan.serialize_s", "s",
               per_iteration("darshan.serialize"));
  report.layer("darshan.parse_s", "s", per_iteration("darshan.parse"));
  report.layer("darshan.records", "count",
               double(span("darshan.capture").calls) / n);
  report.layer("darshan.log_bytes", "bytes",
               double(span("darshan.serialize").calls) / n);

  report.layer("compress.compress_s", "s", per_iteration("compress.compress"));
  report.layer("compress.compress_calls", "count",
               double(span("compress.compress").calls) / n);
  report.layer("compress.decompress_s", "s",
               per_iteration("compress.decompress"));

  // Model outputs of the last traced replay (simulated clock).
  double ost_busy_max = 0.0;
  for (double busy : replay.ost_busy_seconds)
    ost_busy_max = std::max(ost_busy_max, busy);
  report.layer("fsim.ost_busy_max_s", "sim_s", ost_busy_max);
  report.layer("fsim.mds_busy_s", "sim_s", replay.mds_busy_seconds);
  report.layer("fsim.mean_write_s", "sim_s", replay.mean_write_time());
  report.layer("fsim.mean_drain_s", "sim_s", replay.mean_drain_time());

  const auto [covered, window] = tracer.coverage(traced.windows);
  report.layer("span_coverage_frac", "frac",
               window > 0 ? covered / window : 0.0);
  const double untraced = median(traced.untraced_s);
  const double traced_wall = median(traced.traced_s);
  report.layer("traced_wall_s", "s", traced_wall);
  report.layer("trace_overhead_frac", "frac",
               untraced > 0 ? traced_wall / untraced - 1.0 : 0.0);
}

}  // namespace perf

int main(int argc, char** argv) {
  using namespace perf;
  const Options options = parse_args(argc, argv);
  Tracer::thread_id();  // the main thread is thread 0 in the trace
  Report report;
  try {
    if (options.workload == "paper_epoch")
      run_paper_epoch(options, report);
    else if (options.workload == "original_io")
      run_original_io(options, report);
    else if (options.workload == "live_pic")
      run_live_pic(options, report);
    else
      usage("unknown workload");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bitio_perf: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  if (options.trace && !options.trace_json.empty() &&
      !Tracer::instance().write_chrome_json(options.trace_json)) {
    std::fprintf(stderr, "bitio_perf: cannot write %s\n",
                 options.trace_json.c_str());
    return 1;
  }
  print_json(options, report);
  return 0;
}
