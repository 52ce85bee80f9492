// live_pic: a live 2-rank PIC run with real bytes through the whole stack,
// written and then read back, one run per closed-loop iteration.
//
// Set-up (timed as setup_s): the file system, the openPMD diagnostics sink
// (BP5, Blosc) and both ranks' Simulation::initialize.  Window (wall_s): the
// SPMD write phase with frequent diagnostics and periodic checkpoints in the
// program's stage, barrier, flush order, sink close, the read phase (restore
// every rank, load every diagnostic iteration, verify both containers), the
// storage-model replay and the Darshan round trip.  Two rank threads run.
//
// The engine writes synchronously, the program's default.  With
// async_write the diagnostics and checkpoint series drain on separate
// threads onto the same client lane of rank 0, their trace ops interleave
// in thread order, and the replayed times change from run to run, so the
// pinned model outputs could not be checked.

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bp/reader.hpp"
#include "core/adaptor.hpp"
#include "core/checkpoint_payload.hpp"
#include "core/diagnostics_sink.hpp"
#include "fsim/system_profiles.hpp"
#include "openpmd/series.hpp"
#include "picmc/diagnostics.hpp"
#include "smpi/comm.hpp"
#include "spans.hpp"
#include "util/units.hpp"
#include "workloads.hpp"

namespace perf {

using namespace bitio;

namespace {

constexpr int kRanks = 2;
// Enough pooled steps that the 99th percentile has 10 samples beyond it.
constexpr std::size_t kMinPooledSteps = 1000;

struct LiveSetup {
  fsim::SystemProfile profile;
  picmc::SimConfig sim;
  core::Bit1IoConfig io;
};

LiveSetup make_setup(const Options& options) {
  LiveSetup setup;
  setup.profile = fsim::system_profile("dardel");
  // The density reduction is one allreduce per grid node, two thread
  // hand-offs each, and a hand-off's cost swings with the load on a shared
  // host; 8 cells keep the hand-offs from setting the run time.  16384
  // particles per cell keep the 131 072 particles per species of a
  // 2048 x 64 run.
  setup.sim = picmc::SimConfig::ionization_case(8, options.tiny ? 128 : 16384);
  // One physics input per seed class, so golden.json can pin the outputs.
  setup.sim.seed = std::uint64_t(input_variant(options.seed));
  setup.sim.last_step = options.tiny ? 40 : 200;
  setup.sim.datfile = 10;
  // A multiple of the last step, so the final checkpoint holds the final
  // state the restore is compared against.
  setup.sim.dmpstep = options.tiny ? 20 : 50;
  setup.io.mode = core::IoMode::openpmd;
  setup.io.engine = "bp5";
  setup.io.codec = "blosc";
  setup.io.async_write = false;
  setup.io.ranks_per_node = kRanks;
  setup.io.validate();
  return setup;
}

bool same_state(const core::RankCheckpoint& a, const core::RankCheckpoint& b) {
  return a.x == b.x && a.vx == b.vx && a.vy == b.vy && a.vz == b.vz &&
         a.w == b.w && a.absorbed_left == b.absorbed_left &&
         a.absorbed_right == b.absorbed_right &&
         a.absorbed_weight == b.absorbed_weight && a.rng == b.rng &&
         a.step == b.step && a.ionization_events == b.ionization_events &&
         a.ionized_weight == b.ionized_weight;
}

/// What one rank staged at one diagnostics event.
struct StagedDiag {
  std::uint64_t step = 0;
  picmc::DiagnosticSnapshot snapshot;
};

/// One iteration's live state, set up before the measured window.
struct LiveRun {
  std::unique_ptr<fsim::SharedFs> fs;
  std::unique_ptr<core::DiagnosticsSink> sink;
  std::vector<std::unique_ptr<picmc::Simulation>> sims;
};

LiveRun set_up(const LiveSetup& setup) {
  LiveRun run;
  run.fs = std::make_unique<fsim::SharedFs>(
      setup.profile.ost_count, /*store_data=*/true,
      setup.profile.default_stripe);
  run.sink = core::make_diagnostics_sink(*run.fs, "run", setup.io, kRanks);
  for (int r = 0; r < kRanks; ++r) {
    run.sims.push_back(
        std::make_unique<picmc::Simulation>(setup.sim, r, kRanks));
    run.sims.back()->initialize();
  }
  return run;
}

/// Outcome of one iteration's window.
struct LiveResult {
  double write_s = 0.0;
  double readback_s = 0.0;
  std::vector<double> step_s;  // rank 0, output events included
  std::uint64_t payload_bytes = 0;
  std::uint64_t stored_bytes = 0;
  fsim::ReplayReport replay;
  bool ok = true;
};

/// The SPMD write phase: step, stage diagnostics and checkpoints on their
/// events, rank 0 flushes between barriers.
void write_phase(const LiveSetup& setup, LiveRun& run, LiveResult& result,
                 std::vector<std::vector<StagedDiag>>& staged) {
  const picmc::SimConfig& config = setup.sim;
  std::vector<std::uint64_t> payload(kRanks, 0);
  Scope spmd("smpi.run_spmd");
  const int spmd_id = spmd.id();
  smpi::run_spmd(kRanks, [&](smpi::Comm& comm) {
    Tracer::adopt_parent(spmd_id);
    const int rank = comm.rank();
    picmc::Simulation& sim = *run.sims[std::size_t(rank)];
    // The program's density reduction (examples/ionization_study.cpp):
    // one allreduce per grid node.
    auto reduce = [&](std::span<double> density) {
      Scope span("smpi.allreduce", density.size());
      for (auto& v : density) v = comm.allreduce(v, smpi::Op::sum);
    };
    while (sim.current_step() < config.last_step) {
      const auto t0 = std::chrono::steady_clock::now();
      {
        Scope span("picmc.step", sim.local_particles());
        sim.step(reduce);
      }
      const std::uint64_t step = sim.current_step();
      const bool diag = step % config.datfile == 0;
      const bool ckpt = step % config.dmpstep == 0;
      if (diag || ckpt) {
        if (diag) {
          auto snapshot = picmc::Diagnostics::sample_now(sim);
          {
            Scope span("core.stage");
            run.sink->stage_diagnostics(rank, sim, snapshot);
          }
          for (const auto& sp : snapshot.species)
            payload[std::size_t(rank)] +=
                8 * (sp.vdf_vx.size() + 3 + (rank == 0 ? sp.density.size() : 0));
          staged[std::size_t(rank)].push_back({step, std::move(snapshot)});
        }
        if (ckpt) {
          Scope span("core.stage");
          run.sink->stage_checkpoint(rank, sim);
          payload[std::size_t(rank)] += 5 * 8 * sim.local_particles();
        }
        {
          Scope span("smpi.barrier");
          comm.barrier();
        }
        if (rank == 0) {
          Scope span("core.flush");
          if (diag) run.sink->flush_diagnostics(step, double(step) * config.dt);
          if (ckpt) run.sink->flush_checkpoint();
        }
        Scope span("smpi.barrier");
        comm.barrier();
      }
      if (rank == 0) result.step_s.push_back(seconds_since(t0));
    }
  });
  for (std::uint64_t bytes : payload) result.payload_bytes += bytes;
}

/// Every diagnostic iteration read back through pmd::Series must hold
/// exactly what the ranks staged.
bool read_diagnostics(fsim::SharedFs& fs, const std::string& path,
                      const std::vector<std::vector<StagedDiag>>& staged) {
  std::unique_ptr<pmd::Series> series;
  {
    Scope span("openpmd.open");
    series = std::make_unique<pmd::Series>(fs, path, pmd::Access::read_only);
  }
  const auto iterations = series->iterations();
  bool ok = iterations.size() == staged[0].size();
  for (std::size_t i = 0; ok && i < iterations.size(); ++i) {
    const std::uint64_t step = staged[0][i].step;
    ok = iterations[i] == step;
    if (!ok) break;
    pmd::Iteration* iteration = nullptr;
    {
      Scope span("openpmd.read_iteration");
      iteration = &series->read_iteration(step);
    }
    const auto& species0 = staged[0][i].snapshot.species;
    for (std::size_t s = 0; ok && s < species0.size(); ++s) {
      const std::string& name = species0[s].name;
      std::vector<double> vdf, energy, weight, density, expect_vdf,
          expect_energy, expect_weight;
      std::vector<std::uint64_t> count, expect_count;
      {
        Scope span("openpmd.load", 5);
        vdf = iteration->mesh("vdf_" + name).component().load<double>();
        count = iteration->mesh("particle_count_" + name)
                    .component()
                    .load<std::uint64_t>();
        energy = iteration->mesh("energy_" + name).component().load<double>();
        weight = iteration->mesh("weight_" + name).component().load<double>();
        density =
            iteration->mesh("density_" + name).component().load<double>();
      }
      for (int r = 0; r < kRanks; ++r) {
        const StagedDiag& d = staged[std::size_t(r)][i];
        ok = ok && d.step == step;
        if (!ok) break;
        const auto& sp = d.snapshot.species[s];
        expect_vdf.insert(expect_vdf.end(), sp.vdf_vx.begin(), sp.vdf_vx.end());
        expect_count.push_back(sp.particle_count);
        expect_energy.push_back(sp.kinetic_energy);
        expect_weight.push_back(sp.total_weight);
      }
      ok = ok && vdf == expect_vdf && count == expect_count &&
           energy == expect_energy && weight == expect_weight &&
           density == species0[s].density;
    }
  }
  return ok;
}

/// Re-checksum every chunk of a container.  Counts the chunks checked.
bool verify_container(fsim::SharedFs& fs, const std::string& path,
                      std::uint64_t& chunks) {
  Scope span("bp.verify");
  auto reader = bp::Reader::open(fs, 0, path);
  const auto verdicts = reader.verify();
  chunks += verdicts.size();
  span.set_calls(verdicts.size());
  return !verdicts.empty() && bp::Reader::all_ok(verdicts);
}

LiveResult run_window(const LiveSetup& setup, LiveRun& run, Report& report) {
  LiveResult result;
  std::vector<std::vector<StagedDiag>> staged(kRanks);
  const auto write_start = std::chrono::steady_clock::now();
  write_phase(setup, run, result, staged);
  {
    Scope span("core.close");
    run.sink->close();
  }
  result.write_s = seconds_since(write_start);

  const auto read_start = std::chrono::steady_clock::now();
  bool restored = true;
  for (int r = 0; r < kRanks; ++r) {
    picmc::Simulation sim(setup.sim, r, kRanks);
    {
      Scope span("core.restore");
      core::Bit1OpenPmdAdaptor::restore(*run.fs, "run", setup.io, sim);
    }
    restored = restored && same_state(core::capture_rank_state(sim),
                                      core::capture_rank_state(
                                          *run.sims[std::size_t(r)]));
  }
  const std::string diag_path = "run/dat_file." + setup.io.engine;
  const std::string ckpt_path = "run/dmp_file." + setup.io.engine;
  const bool loaded = read_diagnostics(*run.fs, diag_path, staged);
  std::uint64_t chunks = 0;
  const bool verified = verify_container(*run.fs, diag_path, chunks) &&
                        verify_container(*run.fs, ckpt_path, chunks);
  result.readback_s = seconds_since(read_start);

  {
    Scope span("fsim.replay", run.fs->trace().size());
    result.replay = fsim::replay_trace(setup.profile, run.fs->store(),
                                       run.fs->trace(), kRanks);
  }
  const bool darshan = darshan_round_trip(*run.fs, result.replay, kRanks);
  for (const auto* file : run.fs->store().list_recursive("run"))
    result.stored_bytes += file->size;

  result.ok = report.check("restore_bit_exact", restored) &
              report.check("diagnostics_read_back", loaded) &
              report.check("bp_verify_all_ok", verified) &
              report.check("darshan_round_trip", darshan) &
              report.check("steps_completed",
                           result.step_s.size() == setup.sim.last_step);
  return result;
}

/// The deterministic outputs of one iteration.
struct Fingerprint {
  std::uint64_t stored_bytes = 0;
  std::uint64_t bytes_written = 0;
  double makespan_s = 0.0;
  double mean_meta_s = 0.0;

  bool operator==(const Fingerprint&) const = default;
};

}  // namespace

void run_live_pic(const Options& options, Report& report) {
  const LiveSetup setup = make_setup(options);
  const auto start = std::chrono::steady_clock::now();
  // step_p99_ms is reported by untraced paper-size runs only.
  const std::size_t min_steps =
      options.tiny || options.trace ? 0 : kMinPooledSteps;
  std::vector<double> step_s;
  TracedWindows traced;
  fsim::ReplayReport replay;
  Fingerprint first;
  // Iteration 0 warms the allocator and caches and is checked, not timed;
  // a traced run needs a traced and a timed untraced iteration after it.
  const int min_iterations = options.trace ? 3 : 2;
  for (int i = 0; i < min_iterations ||
                  seconds_since(start) < options.seconds ||
                  step_s.size() < min_steps;
       ++i) {
    // A traced run alternates traced and untraced iterations.
    const bool trace_this = options.trace && i % 2 == 1;
    const auto t0 = std::chrono::steady_clock::now();
    LiveRun run = set_up(setup);
    report.sample("setup_s", "s", seconds_since(t0));

    if (trace_this) Tracer::set_enabled(true);
    const double from = Tracer::instance().now_s();
    const auto w0 = std::chrono::steady_clock::now();
    LiveResult result = run_window(setup, run, report);
    const double wall = seconds_since(w0);
    const double to = Tracer::instance().now_s();
    Tracer::set_enabled(false);

    ++report.attempted;
    if (!result.ok) ++report.failed;
    // Stored bytes and replayed times of a seed are deterministic; a change
    // between iterations means the output is not.
    const Fingerprint print{result.stored_bytes, result.replay.bytes_written,
                            result.replay.makespan,
                            result.replay.mean_meta_time()};
    if (i == 0) {
      first = print;
      report.sample("peak_rss_mb", "MB", peak_rss_mb());
      // golden.json holds these per seed class.
      report.pinned["stored_bytes"] = double(print.stored_bytes);
      report.pinned["payload_bytes"] = double(result.payload_bytes);
      report.pinned["bytes_written"] = double(print.bytes_written);
      report.pinned["makespan_s"] = print.makespan_s;
      report.pinned["mean_meta_s"] = print.mean_meta_s;
    }
    if (!report.check("repeat_identical", print == first) && result.ok)
      ++report.failed;

    if (trace_this) {
      traced.add(from, to, wall);
      replay = std::move(result.replay);
      continue;
    }
    if (i == 0) continue;
    if (options.trace) traced.untraced_s.push_back(wall);
    report.sample("wall_s", "s", wall);
    report.sample("readback_s", "s", result.readback_s);
    report.sample("steps_per_s", "1/s",
                  double(result.step_s.size()) / result.write_s);
    report.sample("sim_write_gibps", "sim_GiB/s",
                  result.replay.makespan > 0
                      ? double(result.replay.bytes_written) /
                            result.replay.makespan / double(GiB)
                      : 0.0);
    report.sample("sim_meta_s", "sim_s", result.replay.mean_meta_time());
    report.sample("stored_bytes_ratio", "ratio",
                  double(result.stored_bytes) / double(result.payload_bytes));
    step_s.insert(step_s.end(), result.step_s.begin(), result.step_s.end());
  }
  // Pooled per-step times: the percentile needs the whole pool, so it is
  // one sample per run with its pool size alongside.
  std::sort(step_s.begin(), step_s.end());
  const std::size_t rank99 = (step_s.size() * 99 + 99) / 100;  // ceil
  report.sample("step_p99_ms", "ms",
                step_s.empty() ? 0.0 : 1e3 * step_s[rank99 - 1]);
  report.sample("step_samples", "count", double(step_s.size()));
  report.sample("steps_beyond_p99", "count", double(step_s.size() - rank99));

  if (!options.trace) return;
  report_layers(report, traced, replay);
}

}  // namespace perf
