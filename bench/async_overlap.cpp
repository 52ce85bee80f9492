// Compute/I-O overlap study for the asynchronous aggregation drain (the BP5
// AsyncWrite path): the same diagnostics-heavy window is replayed twice,
// once draining synchronously on the rank critical path and once handing
// each step to the background drain lane while the ranks charge the next
// step's compute.  With enough compute between dumps the async makespan
// approaches max(compute, I/O) instead of compute + I/O.
#include "bench_common.hpp"
#include "bp/engine.hpp"

using namespace bitio;
using namespace bitio::benchkit;

namespace {

struct OverlapRun {
  fsim::ReplayReport replay;
  std::uint64_t bytes = 0;
};

OverlapRun run_window(const fsim::SystemProfile& profile, int nodes,
                      int dumps, double compute_s_per_dump, bool async) {
  const int ranks = nodes * 128;
  fsim::SharedFs fs(profile.ost_count, /*store_data=*/false,
                    profile.default_stripe);
  fs.set_tracing(true);

  bp::EngineConfig config;
  config.num_aggregators = 2 * nodes;  // the paper's sweet spot, 2 per node
  config.ranks_per_node = 128;
  config.mem_bandwidth_bps = profile.client_mem_bandwidth_bps;
  config.async_write = async;
  config.buffer_chunk_mb = 16;

  fsim::FsClient root(fs, 0);
  root.mkdir("run");

  std::uint64_t bytes = 0;
  {
    auto writer = bp::make_engine("bp5", fs, "run/dat_file.bp5", config,
                                  ranks);
    const std::uint64_t elems = 96 * KiB;  // doubles per rank per variable
    const char* species[] = {"e", "D+", "D"};
    for (int dump = 0; dump < dumps; ++dump) {
      writer->begin_step(std::uint64_t(dump));
      for (const char* name : species) {
        const std::string var = std::string("vdf_") + name;
        for (int r = 0; r < ranks; ++r) {
          const std::uint64_t rr = std::uint64_t(r);
          writer->put_synthetic(r, var, bp::Datatype::float64,
                                {std::uint64_t(ranks) * elems}, {rr * elems},
                                {elems});
          bytes += elems * 8;
        }
      }
      writer->end_step();
      // The next PIC step's particle push / collisions, charged on every
      // rank's critical path.  The async drain overlaps with exactly this.
      for (int r = 0; r < ranks; ++r)
        fsim::FsClient(fs, fsim::ClientId(r))
            .charge_cpu(compute_s_per_dump, fsim::OpTag::compute);
    }
    writer->close();
  }

  OverlapRun run;
  run.replay = replay_trace(profile, fs.store(), fs.trace(), ranks);
  run.bytes = bytes;
  return run;
}

}  // namespace

int main() {
  print_header(
      "Compute/I-O overlap — BP5 AsyncWrite drain vs synchronous end_step",
      "async end_step returns at submit; drain lanes overlap the next "
      "step's compute");
  const auto profile = fsim::dardel();
  const int nodes = 4;
  const int dumps = 8;
  const double compute_s = 0.25;  // per rank, between successive dumps

  TextTable table;
  table.header({"mode", "makespan_s", "GiB/s", "t_drain_mean_s"});
  double sync_makespan = 0.0, async_makespan = 0.0;
  for (const bool async : {false, true}) {
    const auto run =
        run_window(profile, nodes, dumps, compute_s, async);
    (async ? async_makespan : sync_makespan) = run.replay.makespan;
    table.row({async ? "async" : "sync",
               strfmt("%.3f", run.replay.makespan),
               gibps(double(run.bytes) / run.replay.makespan / double(GiB)),
               strfmt("%.4f", run.replay.mean_drain_time())});
  }
  std::printf("%s\n", table.render().c_str());

  const double speedup =
      async_makespan > 0 ? sync_makespan / async_makespan : 0.0;
  std::printf("async/sync makespan: %.3f / %.3f s  (speedup %.2fx)\n",
              async_makespan, sync_makespan, speedup);
  std::printf(async_makespan < sync_makespan
                  ? "overlap verified: async window is shorter\n"
                  : "WARNING: async window is not shorter than sync\n");
  return async_makespan < sync_makespan ? 0 : 1;
}
