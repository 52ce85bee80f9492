// paper_epoch and original_io: one paper-scale output window per
// closed-loop iteration.
//
// Untraced, an iteration is exactly one call to core::run_openpmd_epoch or
// core::run_original_epoch.  Traced, the benchmark repeats the call
// sequence of src/core/workload.cpp through the public fsim/bp APIs with a
// span around every call (put loops aggregated into one span per variable),
// then captures, serializes and parses the window's Darshan log.  The
// mirror's result must equal the entry point's bit for bit, so the spans
// describe the code the untraced numbers time.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bp/engine.hpp"
#include "core/workload.hpp"
#include "darshan/darshan.hpp"
#include "fsim/system_profiles.hpp"
#include "spans.hpp"
#include "util/units.hpp"
#include "workloads.hpp"

namespace perf {

using namespace bitio;

namespace {

// Record sizes and input size of the original path (src/core/workload.cpp).
constexpr std::uint64_t kStdioRecord = 2 * KiB;
constexpr std::uint64_t kBinaryRecord = 64 * KiB;
constexpr std::uint64_t kInputBytes = 2 * KiB;

struct EpochSetup {
  fsim::SystemProfile profile;
  core::ScaleSpec spec;
  core::Bit1IoConfig config;  // paper_epoch only
};

/// The Fig 6 peak point: 200 Dardel nodes, BP4, 400 aggregators, no codec,
/// paper defaults otherwise.  Tiny sizes keep the structure at 2 nodes.
EpochSetup make_setup(const Options& options) {
  EpochSetup setup;
  setup.profile = fsim::system_profile("dardel");
  setup.spec = core::ScaleSpec::throughput(options.tiny ? 2 : 200);
  setup.spec.diag_run_bytes +=
      std::uint64_t(input_variant(options.seed)) * (64ull << 20);
  setup.config.mode = core::IoMode::openpmd;
  setup.config.engine = "bp4";
  setup.config.num_aggregators = options.tiny ? 4 : 400;
  setup.config.codec = "none";
  setup.config.validate();
  return setup;
}

std::uint32_t record_count(std::uint64_t bytes, std::uint64_t record) {
  return std::uint32_t(
      std::max<std::uint64_t>(1, (bytes + record - 1) / record));
}

/// Exact equality of every field an epoch reports.
bool same_result(const core::EpochResult& a, const core::EpochResult& b) {
  return a.makespan_s == b.makespan_s && a.bytes_written == b.bytes_written &&
         a.write_gibps == b.write_gibps &&
         a.bytes_gathered == b.bytes_gathered &&
         a.mean_meta_s == b.mean_meta_s && a.mean_write_s == b.mean_write_s &&
         a.mean_read_s == b.mean_read_s && a.mean_drain_s == b.mean_drain_s &&
         a.total_files == b.total_files &&
         a.avg_file_bytes == b.avg_file_bytes &&
         a.max_file_bytes == b.max_file_bytes && a.cpu_by_tag == b.cpu_by_tag;
}

/// The values golden.json pins for each input variant.
void pin(Report& report, const core::EpochResult& r) {
  report.pinned["makespan_s"] = r.makespan_s;
  report.pinned["bytes_written"] = double(r.bytes_written);
  report.pinned["mean_meta_s"] = r.mean_meta_s;
  report.pinned["mean_write_s"] = r.mean_write_s;
  report.pinned["total_files"] = double(r.total_files);
  report.pinned["avg_file_bytes"] = double(r.avg_file_bytes);
  report.pinned["max_file_bytes"] = double(r.max_file_bytes);
}

/// A traced window: its file system, replay and summary.
struct MirrorRun {
  std::unique_ptr<fsim::SharedFs> fs;
  fsim::ReplayReport replay;
  core::EpochResult result;
  std::uint64_t trace_ops = 0;
};

std::unique_ptr<fsim::SharedFs> open_fs(const fsim::SystemProfile& profile) {
  Scope span("fsim.shared_fs");
  auto fs = std::make_unique<fsim::SharedFs>(
      profile.ost_count, /*store_data=*/false, profile.default_stripe);
  fs->set_tracing(true);
  return fs;
}

/// Rank 0 writes the input file, every rank reads it.
void input_phase(fsim::SharedFs& fs, int ranks) {
  Scope span("fsim.posix", std::uint64_t(ranks) * 3 + 3);
  fsim::FsClient root(fs, 0);
  const int fd = root.open("bit1.inp", fsim::OpenMode::create);
  root.write_simulated(fd, kInputBytes, 1);
  root.close(fd);
  for (int r = 0; r < ranks; ++r) {
    fsim::FsClient client(fs, fsim::ClientId(r));
    const int in = client.open("bit1.inp", fsim::OpenMode::read);
    client.read_simulated(in, kInputBytes, 1);
    client.close(in);
  }
}

/// Replay the trace and take the census of `dir` (core's summarize()).
void finish_mirror(const fsim::SystemProfile& profile, int ranks,
                   const std::string& dir, MirrorRun& run) {
  run.trace_ops = run.fs->trace().size();
  {
    Scope span("fsim.replay", run.trace_ops);
    run.replay =
        fsim::replay_trace(profile, run.fs->store(), run.fs->trace(), ranks);
  }
  Scope span("fsim.census");
  const auto& replay = run.replay;
  core::EpochResult& result = run.result;
  result.makespan_s = replay.makespan;
  result.bytes_written = replay.bytes_written;
  result.write_gibps =
      replay.makespan > 0
          ? double(replay.bytes_written) / replay.makespan / double(GiB)
          : 0.0;
  result.bytes_gathered = replay.bytes_transferred;
  result.mean_meta_s = replay.mean_meta_time();
  result.mean_write_s = replay.mean_write_time();
  result.mean_read_s = replay.mean_read_time();
  result.mean_drain_s = replay.mean_drain_time();
  result.cpu_by_tag = replay.cpu_by_tag;
  std::uint64_t sum = 0;
  for (const auto* file : run.fs->store().list_recursive(dir)) {
    ++result.total_files;
    sum += file->size;
    result.max_file_bytes = std::max(result.max_file_bytes, file->size);
  }
  if (result.total_files > 0) result.avg_file_bytes = sum / result.total_files;
}

MirrorRun mirror_original(const EpochSetup& setup) {
  const core::ScaleSpec& spec = setup.spec;
  const int ranks = spec.ranks();
  const std::string dir = "run_original";
  MirrorRun run;
  run.fs = open_fs(setup.profile);
  fsim::SharedFs& fs = *run.fs;
  input_phase(fs, ranks);

  for (int dump = 0; dump < spec.dat_dumps; ++dump) {
    Scope span("fsim.posix", std::uint64_t(ranks) * 6 + 12);
    for (int r = 0; r < ranks; ++r) {
      fsim::FsClient client(fs, fsim::ClientId(r));
      const std::uint64_t bytes = spec.diag_bytes_for_rank(r);
      const std::uint64_t slow = bytes * 3 / 5;
      const std::uint64_t slow1 = bytes - slow;
      for (const auto& [stem, n] :
           {std::pair<const char*, std::uint64_t>{"slow_", slow},
            std::pair<const char*, std::uint64_t>{"slow1_", slow1}}) {
        const std::string path =
            dir + "/" + stem + std::to_string(r) + ".dat";
        const int fd = client.open(path, dump == 0 ? fsim::OpenMode::create
                                                   : fsim::OpenMode::append);
        client.write_simulated(fd, n, record_count(n, kStdioRecord));
        client.close(fd);
      }
    }
    fsim::FsClient root(fs, 0);
    for (const char* name :
         {"history.dat", "energy.dat", "pwall.dat", "iondiag.dat"}) {
      const std::string path = dir + "/" + std::string(name);
      const int fd = root.open(path, dump == 0 ? fsim::OpenMode::create
                                               : fsim::OpenMode::append);
      root.write_simulated(fd, 128, 1);
      root.close(fd);
    }
  }

  for (int c = 0; c < spec.checkpoints; ++c) {
    Scope span("fsim.posix", 4);
    fsim::FsClient root(fs, 0);
    const int fd =
        root.open(dir + "/bit1.dmp", fsim::OpenMode::create_or_truncate);
    root.write_simulated(fd, spec.checkpoint_bytes,
                         record_count(spec.checkpoint_bytes, kBinaryRecord));
    root.fsync(fd);
    root.close(fd);
  }
  finish_mirror(setup.profile, ranks, dir, run);
  return run;
}

bp::EngineConfig engine_config(const EpochSetup& setup, int aggregators,
                               bool profiling) {
  const core::Bit1IoConfig& config = setup.config;
  bp::EngineConfig engine;
  engine.num_aggregators = aggregators;
  engine.ranks_per_node = setup.spec.ranks_per_node;
  engine.codec = config.codec;
  engine.compress_threads = config.compress_threads;
  engine.compress_block_kb = std::size_t(config.compress_block_kb);
  engine.profiling = profiling;
  engine.synthetic_codec_ratio = 1.0;  // codec "none"
  engine.mem_bandwidth_bps = setup.profile.client_mem_bandwidth_bps;
  engine.async_write = config.async_write;
  engine.buffer_chunk_mb = std::size_t(config.buffer_chunk_mb);
  engine.io_batch_depth = config.io_batch_depth;
  engine.coalesce_writes = config.coalesce_writes;
  engine.aggregation = config.aggregation;
  engine.topology = config.topology;
  engine.numa_per_node = config.numa_per_node;
  engine.nics_per_node = config.nics_per_node;
  return engine;
}

/// Put one variable's chunk from every rank at exscan offsets; one span for
/// the whole loop keeps tracing off the per-call hot path.
void put_all_ranks(bp::Engine& engine, const std::string& var,
                   const std::vector<std::uint64_t>& offsets) {
  const std::size_t ranks = offsets.size() - 1;
  const std::uint64_t total = offsets[ranks];
  Scope span("bp.put", ranks);
  for (std::size_t r = 0; r < ranks; ++r)
    engine.put_synthetic(int(r), var, bp::Datatype::float64, {total},
                         {offsets[r]}, {offsets[r + 1] - offsets[r]});
}

MirrorRun mirror_openpmd(const EpochSetup& setup) {
  const core::ScaleSpec& spec = setup.spec;
  const core::Bit1IoConfig& config = setup.config;
  const int ranks = spec.ranks();
  const std::string dir = "run_openpmd";
  MirrorRun run;
  run.fs = open_fs(setup.profile);
  fsim::SharedFs& fs = *run.fs;
  {
    Scope span("fsim.posix", 1);
    fsim::FsClient(fs, 0).mkdir(dir);
  }
  input_phase(fs, ranks);

  std::unique_ptr<bp::Engine> diag, ckpt;
  {
    Scope span("bp.open", 2);
    diag = bp::make_engine(config.engine, fs, dir + "/dat_file." + config.engine,
                           engine_config(setup, config.num_aggregators,
                                         config.profiling),
                           ranks);
    ckpt = bp::make_engine(config.engine, fs, dir + "/dmp_file." + config.engine,
                           engine_config(setup, config.checkpoint_aggregators,
                                         false),
                           ranks);
  }

  const char* species[] = {"e", "D+", "D"};
  for (int dump = 0; dump < spec.dat_dumps; ++dump) {
    {
      Scope span("bp.begin_step");
      diag->begin_step(std::uint64_t(dump));
    }
    std::vector<std::uint64_t> offsets(std::size_t(ranks) + 1, 0);
    for (int r = 0; r < ranks; ++r) {
      const std::uint64_t elems =
          std::max<std::uint64_t>(1, spec.diag_bytes_for_rank(r) / 8 / 3);
      offsets[std::size_t(r) + 1] = offsets[std::size_t(r)] + elems;
    }
    for (const char* name : species)
      put_all_ranks(*diag, std::string("vdf_") + name, offsets);
    Scope span("bp.end_step");
    diag->end_step();
  }

  const char* arrays[] = {"position/x", "velocity/x", "velocity/y",
                          "velocity/z", "weighting"};
  for (int c = 0; c < spec.checkpoints; ++c) {
    {
      Scope span("bp.begin_step");
      ckpt->begin_step(0);
    }
    std::vector<std::uint64_t> offsets(std::size_t(ranks) + 1, 0);
    for (int r = 0; r < ranks; ++r) {
      const std::uint64_t elems = std::max<std::uint64_t>(
          1, spec.ckpt_bytes_for_rank(r) / 8 / (3 * 5));
      offsets[std::size_t(r) + 1] = offsets[std::size_t(r)] + elems;
    }
    for (const char* sp : species)
      for (const char* array : arrays)
        put_all_ranks(*ckpt, std::string("particles/") + sp + "/" + array,
                      offsets);
    Scope span("bp.end_step");
    ckpt->end_step();
  }
  {
    Scope span("bp.close", 2);
    diag->close();
    ckpt->close();
  }
  finish_mirror(setup.profile, ranks, dir, run);
  // The entry point frees its engines inside its window.
  Scope span("bp.release", 2);
  diag.reset();
  ckpt.reset();
  return run;
}

/// Logical payload of an openPMD window: every synthetic chunk's bytes.
std::uint64_t openpmd_payload_bytes(const core::ScaleSpec& spec) {
  std::uint64_t diag = 0, ckpt = 0;
  for (int r = 0; r < spec.ranks(); ++r) {
    diag += std::max<std::uint64_t>(1, spec.diag_bytes_for_rank(r) / 8 / 3);
    ckpt += std::max<std::uint64_t>(1, spec.ckpt_bytes_for_rank(r) / 8 / 15);
  }
  return 8 * (diag * 3 * std::uint64_t(spec.dat_dumps) +
              ckpt * 15 * std::uint64_t(spec.checkpoints));
}

/// Logical payload of an original window: every rank's .dat records, rank
/// 0's history records and the serial checkpoint.
std::uint64_t original_payload_bytes(const core::ScaleSpec& spec) {
  std::uint64_t per_dump = 4 * 128;
  for (int r = 0; r < spec.ranks(); ++r) per_dump += spec.diag_bytes_for_rank(r);
  return per_dump * std::uint64_t(spec.dat_dumps) +
         spec.checkpoint_bytes * std::uint64_t(spec.checkpoints);
}

/// The entry point's own set-up, timed on its own: file system creation,
/// the input-file phase and (openPMD) both engine opens.  The untraced
/// window contains the same work; timing it apart shows work moved into or
/// out of set-up.  Sampled twice before every iteration, so the samples
/// spread over the run like the iterations do.
void sample_setup(Report& report, const EpochSetup& setup, bool engines) {
  for (int i = 0; i < 2; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    auto fs = open_fs(setup.profile);
    input_phase(*fs, setup.spec.ranks());
    std::unique_ptr<bp::Engine> diag, ckpt;
    if (engines) {
      const std::string& engine = setup.config.engine;
      diag = bp::make_engine(
          engine, *fs, "setup/dat_file." + engine,
          engine_config(setup, setup.config.num_aggregators, false),
          setup.spec.ranks());
      ckpt = bp::make_engine(
          engine, *fs, "setup/dmp_file." + engine,
          engine_config(setup, setup.config.checkpoint_aggregators, false),
          setup.spec.ranks());
    }
    report.sample("setup_s", "s", seconds_since(t0));
  }
}

/// The closed loop shared by both epoch workloads.  `entry` is one call to
/// the core entry point; `mirror` is its traced re-enactment.  A traced run
/// pairs every timed untraced iteration with a traced one, alternating
/// which goes first so allocator state does not bias the tracing overhead.
template <typename Entry, typename Mirror>
void run_epoch_loop(const Options& options, Report& report,
                    const EpochSetup& setup, bool engines,
                    std::uint64_t expected_files, std::uint64_t payload_bytes,
                    Entry entry, Mirror mirror) {
  const int ranks = setup.spec.ranks();
  const auto start = std::chrono::steady_clock::now();
  std::unique_ptr<core::EpochResult> first;
  TracedWindows traced;
  fsim::ReplayReport replay;
  // Iteration 0 warms the allocator and caches and is checked, not timed.
  for (int i = 0; i < 2 || seconds_since(start) < options.seconds; ++i) {
    sample_setup(report, setup, engines);
    core::EpochResult result, mirrored;
    double wall = 0.0;
    bool darshan_ok = true;
    auto untraced = [&] {
      const auto t0 = std::chrono::steady_clock::now();
      result = entry();
      wall = seconds_since(t0);
    };
    auto traced_window = [&] {
      Tracer::set_enabled(true);
      Tracer& tracer = Tracer::instance();
      const double from = tracer.now_s();
      MirrorRun run = mirror();
      const double to = tracer.now_s();
      darshan_ok = report.check(
          "darshan_round_trip", darshan_round_trip(*run.fs, run.replay, ranks));
      report.pinned["trace_ops"] = double(run.trace_ops);
      mirrored = std::move(run.result);
      replay = std::move(run.replay);
      // The entry point frees its file system inside its window.
      const double release_from = tracer.now_s();
      {
        Scope span("fsim.release");
        run.fs.reset();
      }
      const double release_s = tracer.now_s() - release_from;
      Tracer::set_enabled(false);
      traced.add(from, to, to - from + release_s);
    };
    const bool traced_pair = options.trace && i > 0;
    const bool trace_first = traced_pair && i % 2 == 1;
    if (trace_first) traced_window();
    untraced();
    if (traced_pair && !trace_first) traced_window();
    if (traced_pair) traced.untraced_s.push_back(wall);

    ++report.attempted;
    bool ok =
        report.check("file_census", result.total_files == expected_files);
    if (!first) {
      first = std::make_unique<core::EpochResult>(result);
      pin(report, result);
      report.sample("peak_rss_mb", "MB", peak_rss_mb());
    }
    ok = report.check("repeat_identical", same_result(result, *first)) && ok;
    if (traced_pair)
      ok = report.check("mirror_matches_core", same_result(mirrored, result)) &&
           ok;
    ok = darshan_ok && ok;
    if (!ok) ++report.failed;
    if (i == 0) continue;
    report.sample("wall_s", "s", wall);
    report.sample("sim_write_gibps", "sim_GiB/s", result.write_gibps);
    report.sample("sim_meta_s", "sim_s", result.mean_meta_s);
    report.sample("stored_bytes_ratio", "ratio",
                  double(result.bytes_written) / double(payload_bytes));
  }
  if (options.trace) report_layers(report, traced, replay);
}

}  // namespace

bool darshan_round_trip(const fsim::SharedFs& fs,
                        const fsim::ReplayReport& replay, int ranks) {
  darshan::DarshanLog log;
  {
    Scope span("darshan.capture");
    log = darshan::capture(fs, replay,
                           {"bit1", std::uint32_t(ranks), 0.0, "/lustre"});
    span.set_calls(log.records.size());
  }
  std::vector<std::uint8_t> bytes;
  {
    Scope span("darshan.serialize");
    bytes = log.serialize();
    span.set_calls(bytes.size());
  }
  darshan::DarshanLog parsed;
  {
    Scope span("darshan.parse");
    parsed = darshan::DarshanLog::parse(bytes);
  }
  return parsed.records.size() == log.records.size() &&
         parsed.serialize() == bytes;
}

void run_paper_epoch(const Options& options, Report& report) {
  const EpochSetup setup = make_setup(options);
  // Both series: N subfiles + md.0 + md.idx, and 1 + 2 for the checkpoint.
  const std::uint64_t files = std::uint64_t(setup.config.num_aggregators) + 5;
  run_epoch_loop(
      options, report, setup, /*engines=*/true, files,
      openpmd_payload_bytes(setup.spec),
      [&] {
        return core::run_openpmd_epoch(setup.profile, setup.spec,
                                       setup.config);
      },
      [&] { return mirror_openpmd(setup); });
}

void run_original_io(const Options& options, Report& report) {
  const EpochSetup setup = make_setup(options);
  // Two .dat files per rank, four history files and bit1.dmp.
  const std::uint64_t files = 2 * std::uint64_t(setup.spec.ranks()) + 5;
  run_epoch_loop(
      options, report, setup, /*engines=*/false, files,
      original_payload_bytes(setup.spec),
      [&] { return core::run_original_epoch(setup.profile, setup.spec); },
      [&] { return mirror_original(setup); });
}

}  // namespace perf
