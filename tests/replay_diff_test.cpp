// Differential test for the timing replay: fsim::replay_trace must agree
// bit for bit, on every ReplayReport field, with a frozen copy of the
// straightforward implementation it replaced (per-sequence vectors grouped
// through a std::map, a std::set page cache, string-keyed cpu sums).  The
// reference lives only here, like the CRC and codec references: it is the
// definition the library is checked against, never the reverse.
//
// The traces are recorded through the public FsClient / SubmissionQueue
// API from a seeded util::Rng, and cover several lanes per client, small
// and streaming writes, doorbell-delimited batches (coalesced and not),
// shm and net gathers, every cpu tag, repeated reads of shared files (the
// page-cache path), metadata ops and injected faults.  The noise-free
// generic profile makes most service times equal, so the replay is full of
// equal-time heap entries whose pop order is model output.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <queue>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fsim/des.hpp"
#include "fsim/posix_fs.hpp"
#include "fsim/storage_model.hpp"
#include "fsim/system_profiles.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bitio::fsim {
namespace {

int ost_for_offset(const StripeLayout& layout, std::uint64_t offset) {
  const auto& s = layout.settings;
  const std::uint64_t stripe_index = (offset / s.stripe_size) %
                                     std::uint64_t(s.stripe_count);
  return layout.ost_indices[std::size_t(stripe_index)];
}

/// The replay as it stood before the flat sequence index: frozen, do not
/// optimize.
ReplayReport reference_replay(const SystemProfile& profile,
                              const ObjectStore& store,
                              const std::vector<TraceOp>& trace,
                              int nclients) {
  if (nclients <= 0) throw UsageError("reference_replay: nclients must be > 0");

  // Group op indices into FIFO sequences keyed by (client, lane),
  // preserving program order within each sequence.  Lane 0 is the client's
  // critical path; every drain lane is an independent concurrent program of
  // the same client (all lanes start at t = 0 and share the client's node
  // link and the OSTs).
  struct Sequence {
    ClientId client = 0;
    std::uint32_t lane = 0;
    std::vector<std::uint32_t> ops;
  };
  std::vector<Sequence> sequences;
  std::map<std::pair<ClientId, std::uint32_t>, std::size_t> sequence_of;
  for (std::uint32_t i = 0; i < trace.size(); ++i) {
    const TraceOp& op = trace[i];
    if (op.client >= ClientId(nclients))
      throw UsageError("reference_replay: client id out of range");
    const auto key = std::make_pair(op.client, op.lane);
    auto [it, inserted] = sequence_of.try_emplace(key, sequences.size());
    if (inserted) sequences.push_back({op.client, op.lane, {}});
    sequences[it->second].ops.push_back(i);
  }

  const int nnodes =
      (nclients + profile.ranks_per_node - 1) / profile.ranks_per_node;

  FifoResource mds(profile.mds_slots);
  std::vector<FifoResource> osts(std::size_t(profile.ost_count),
                                 FifoResource(1));
  // One FIFO per (node, NIC); nics_per_node = 1 keeps the historical
  // one-link-per-node layout (and byte-identical replay timings).
  const int nics = std::max(1, profile.nics_per_node);
  std::vector<FifoResource> links(std::size_t(nnodes) * std::size_t(nics),
                                  FifoResource(1));
  const auto link_of = [&](ClientId client) -> FifoResource& {
    const int node = int(client) / profile.ranks_per_node;
    return links[std::size_t(node) * std::size_t(nics) +
                 std::size_t(int(client) % nics)];
  };
  // Intra-node shared-memory channel, one per node (xfer gathers).
  std::vector<FifoResource> shm(std::size_t(nnodes), FifoResource(1));
  NoiseStream noise(profile.noise_amplitude, profile.noise_seed);

  ReplayReport report;
  report.clients.assign(std::size_t(nclients), ClientTimes{});
  report.op_durations.assign(trace.size(), 0.0);

  // Min-heap of (ready time, sequence, next op index within the sequence).
  struct Pending {
    double time;
    std::size_t sequence;
    std::uint32_t index;
    bool operator>(const Pending& other) const { return time > other.time; }
  };
  std::priority_queue<Pending, std::vector<Pending>, std::greater<>> heap;
  for (std::size_t s = 0; s < sequences.size(); ++s)
    if (!sequences[s].ops.empty()) heap.push({0.0, s, 0});

  // Files already read once: later readers hit the page cache.
  std::set<FileId> first_read;

  while (!heap.empty()) {
    const Pending pending = heap.top();
    heap.pop();
    const Sequence& seq = sequences[pending.sequence];
    const std::uint32_t trace_index = seq.ops[pending.index];
    const TraceOp& op = trace[trace_index];
    ClientTimes& times = report.clients[std::size_t(seq.client)];
    // Drain lanes accumulate into `drain` only; the critical-path buckets
    // stay untouched by overlapped work.
    const bool drain_lane = seq.lane > 0;
    const auto charge = [&](double ClientTimes::* member, double dt) {
      if (drain_lane)
        times.drain += dt;
      else
        times.*member += dt;
    };
    const double t0 = pending.time;
    double done = t0;

    // Dispatch on the op's service class (exhaustive over ServiceClass —
    // a new OpKind must pick its bucket in fsim/types.hpp first).
    switch (service_class(op.kind)) {
    case ServiceClass::meta: {
      const double service =
          (op.kind == OpKind::create || op.kind == OpKind::mkdir)
              ? profile.mds_create_service_s
              : profile.mds_meta_service_s;
      done = mds.submit(t0, service * noise.next() * double(op.op_count));
      charge(&ClientTimes::meta, done - t0);
      if (!drain_lane) times.meta_ops += op.op_count;
      break;
    }
    case ServiceClass::cpu: {
      done = t0 + op.cpu_seconds;
      charge(&ClientTimes::cpu, op.cpu_seconds);
      report.cpu_by_tag[tag_name(op.tag)] += op.cpu_seconds;
      break;
    }
    case ServiceClass::net: {
      // Rank-to-rank gather transfer (topology-modeled aggregation).  The
      // *receiving* rank records the op — seq.client is the gatherer,
      // op.peer the sender — so the fan-in gates the receiver's later
      // ops (its forward hop or container write).  The tag carries the
      // gather level: kShmGatherTag streams through the node's shared-
      // memory channel (with a NUMA penalty when sender and receiver sit
      // in different domains); anything else is an inter-node hop that
      // occupies the sender's NIC and then the receiver's NIC store-and-
      // forward, so concurrent gathers into one aggregator contend on its
      // link.
      if (op.peer >= ClientId(nclients))
        throw UsageError("reference_replay: xfer peer out of range");
      const int recv_node = int(seq.client) / profile.ranks_per_node;
      if (op.tag == kShmGatherTag) {
        double service = profile.shm_latency_s * double(op.op_count) +
                         double(op.bytes) / profile.shm_bandwidth_bps;
        const int per_numa =
            std::max(1, profile.ranks_per_node /
                            std::max(1, profile.numa_per_node));
        const int recv_numa =
            (int(seq.client) % profile.ranks_per_node) / per_numa;
        const int send_numa =
            (int(op.peer) % profile.ranks_per_node) / per_numa;
        if (recv_numa != send_numa) service *= profile.shm_numa_factor;
        done = shm[std::size_t(recv_node)].submit(t0, service * noise.next());
      } else {
        const double occupancy =
            double(op.bytes) / profile.link_bandwidth_bps;
        FifoResource& snd = link_of(op.peer);
        FifoResource& rcv = link_of(seq.client);
        const double sent = snd.submit(
            t0, (profile.link_latency_s * double(op.op_count) + occupancy) *
                    noise.next());
        done = (&rcv == &snd) ? sent : rcv.submit(sent, occupancy);
      }
      charge(&ClientTimes::write, done - t0);
      report.bytes_transferred += op.bytes;
      break;
    }
    case ServiceClass::data: {
      const StripeLayout& layout = store.file_by_id(op.file).layout;
      FifoResource& link = link_of(seq.client);
      const std::uint64_t record =
          op.op_count > 0 ? op.bytes / op.op_count : op.bytes;
      const bool is_batch = op.kind == OpKind::batch_write;
      const bool is_write = op.kind == OpKind::write || is_batch;

      if (op.kind == OpKind::write && record < profile.sync_write_threshold) {
        // Small records (stdio lines, tiny buffered appends): per-record
        // lock/ack round trips charge the caller (meta + data split), while
        // the payload drains through write-back caching — the OST service
        // extends the job makespan but not the caller's syscall time.  All
        // records of this coalesced op hit the stripe object holding the
        // starting offset.
        const double meta_serial = double(op.op_count) *
                                   profile.small_write_meta_s * noise.next();
        const double data_serial =
            double(op.op_count) * profile.small_write_data_s;
        FifoResource& ost =
            osts[std::size_t(ost_for_offset(layout, op.offset))];
        const double per_record =
            profile.ost_small_service_s +
            (op.op_count >= 2 ? profile.ost_sync_extra_s : 0.0);
        const double service =
            double(op.op_count) * per_record * noise.next() +
            double(op.bytes) / profile.ost_bandwidth_bps;
        const double drain_done = ost.submit(t0, service);
        report.makespan = std::max(report.makespan, drain_done);
        done = t0 + meta_serial + data_serial;
        charge(&ClientTimes::meta, meta_serial);
        charge(&ClientTimes::write, data_serial);
        if (drain_lane)
          times.drain_calls += op.op_count;
        else
          times.write_calls += op.op_count;
        report.bytes_written += op.bytes;
        report.op_durations[trace_index] = done - t0;
        times.end = std::max(times.end, done);
        report.makespan = std::max(report.makespan, done);
        const std::uint32_t next_index = pending.index + 1;
        if (next_index < seq.ops.size())
          heap.push({done, pending.sequence, next_index});
        continue;
      }
      if (op.kind == OpKind::read && !first_read.insert(op.file).second) {
        // Page-cache hit: everyone after the first reader of this file.
        done = link.submit(t0, profile.cached_read_service_s +
                                   double(op.bytes) /
                                       profile.link_bandwidth_bps);
        charge(&ClientTimes::read, done - t0);
        if (!drain_lane) times.read_calls += op.op_count;
        report.bytes_read += op.bytes;
        report.op_durations[trace_index] = done - t0;
        times.end = std::max(times.end, done);
        report.makespan = std::max(report.makespan, done);
        const std::uint32_t next_index = pending.index + 1;
        if (next_index < seq.ops.size())
          heap.push({done, pending.sequence, next_index});
        continue;
      }
      {
        // Streaming path: syscall overhead, then sliced transfers through
        // the node link and the stripe-mapped OSTs.  OST request latency
        // pipelines across queued slices (it delays completion, not server
        // occupancy); one client's pipeline is capped at its streaming
        // bandwidth.  A batch_write reaches here regardless of record size
        // (the ring bypasses the small-record synchronous round trip) and
        // pays one doorbell plus a tiny per-sqe charge instead of
        // per-call syscalls.
        const double setup =
            is_batch ? (op.tag == kBatchDoorbellTag ? profile.batch_setup_s
                                                    : 0.0) +
                           double(op.op_count) * profile.sqe_overhead_s
                     : double(op.op_count) * profile.syscall_overhead_s;
        const double t_start = t0 + setup;
        // RPC size: stripe size clamped to [64 KiB, slice_bytes].
        const std::uint64_t slice = std::clamp<std::uint64_t>(
            layout.settings.stripe_size, 64 * 1024, profile.slice_bytes);
        const std::uint64_t nslices = (op.bytes + slice - 1) / slice;
        const std::uint64_t osts_touched = std::min<std::uint64_t>(
            std::uint64_t(layout.settings.stripe_count), nslices);
        done = t_start + double(nslices) * profile.rpc_overhead_s +
               double(osts_touched) * profile.stripe_lock_overhead_s +
               double(op.bytes) / profile.client_stream_bandwidth_bps;
        std::uint64_t remaining = op.bytes;
        std::uint64_t offset = op.offset;
        while (remaining > 0) {
          const std::uint64_t n = std::min<std::uint64_t>(remaining, slice);
          const double link_done = link.submit(
              t_start, profile.link_latency_s +
                           double(n) / profile.link_bandwidth_bps);
          FifoResource& ost =
              osts[std::size_t(ost_for_offset(layout, offset))];
          const double occupancy =
              double(n) / profile.ost_bandwidth_bps * noise.next();
          done = std::max(done, ost.submit(link_done, occupancy) +
                                    profile.ost_stream_latency_s);
          remaining -= n;
          offset += n;
        }
      }

      if (is_write) {
        charge(&ClientTimes::write, done - t0);
        if (drain_lane)
          times.drain_calls += op.op_count;
        else
          times.write_calls += op.op_count;
        report.bytes_written += op.bytes;
      } else {
        charge(&ClientTimes::read, done - t0);
        if (!drain_lane) times.read_calls += op.op_count;
        report.bytes_read += op.bytes;
      }
      break;
    }
    }

    report.op_durations[trace_index] = done - t0;
    times.end = std::max(times.end, done);
    report.makespan = std::max(report.makespan, done);
    const std::uint32_t next = pending.index + 1;
    if (next < seq.ops.size())
      heap.push({done, pending.sequence, next});
  }
  for (const auto& ost : osts) {
    report.ost_busy_seconds.push_back(ost.busy_seconds());
    report.ost_busy_until.push_back(ost.busy_until());
  }
  report.mds_busy_seconds = mds.busy_seconds();
  return report;
}

constexpr OpTag kCpuTags[] = {
    OpTag::compress,     OpTag::memcopy,       OpTag::crc32c,
    OpTag::decompress,   OpTag::backoff,       OpTag::recovery,
    OpTag::degrade,      OpTag::delta_commit,  OpTag::dedup,
    OpTag::restore_chain, OpTag::fault,        OpTag::compute,
};

struct TraceShape {
  int clients = 24;
  int lanes = 3;           // lanes per client: 0 plus lanes - 1 drain lanes
  int actions = 1500;
  bool faults = false;
};

std::string own_file(ClientId client, std::uint64_t k) {
  return "run/c" + std::to_string(client) + "/f" + std::to_string(k) +
         ".dat";
}

/// Record a seeded random trace into `fs`.  Every client owns a few files;
/// rank 0 also creates shared files that everyone reads and that gathers
/// feed.  Injected eio/enospc surface as IoError from the posix path and
/// are swallowed here (the failed attempt is already traced).
void record_trace(SharedFs& fs, const TraceShape& shape, std::uint64_t seed) {
  Rng rng(seed);
  constexpr int kOwnFiles = 3;
  constexpr int kSharedFiles = 4;
  FsClient root(fs, 0);
  root.mkdir("run");
  root.setstripe("run/wide", {3, 256 * 1024});
  std::vector<int> shared_fds;
  for (int k = 0; k < kSharedFiles; ++k) {
    const std::string path = (k % 2 ? "run/wide/s" : "run/s") +
                             std::to_string(k) + ".dat";
    const int fd = root.open(path, OpenMode::create);
    root.write_simulated(fd, 4 << 20, 4);
    shared_fds.push_back(fd);
  }
  for (ClientId c = 0; c < ClientId(shape.clients); ++c) {
    FsClient client(fs, c);
    for (int k = 0; k < kOwnFiles; ++k)
      client.close(client.open(own_file(c, std::uint64_t(k)),
                               OpenMode::create));
  }
  if (shape.faults) {
    std::vector<FaultRule> rules;
    for (FaultKind kind : {FaultKind::torn_write, FaultKind::bit_flip,
                           FaultKind::eio, FaultKind::enospc}) {
      FaultRule rule;
      rule.kind = kind;
      rule.probability = 0.04;
      rule.times = 0;
      rules.push_back(rule);
    }
    fs.set_fault_plan(FaultPlan(seed, std::move(rules)));
  }

  for (int step = 0; step < shape.actions; ++step) {
    const ClientId c = ClientId(rng.below(std::uint64_t(shape.clients)));
    const auto lane = std::uint32_t(rng.below(std::uint64_t(shape.lanes)));
    FsClient client(fs, c, lane);
    const std::string own = own_file(c, rng.below(kOwnFiles));
    switch (rng.below(9)) {
      case 0:
      case 1: {  // appends: stdio-sized (small-record path) or streaming
        const bool small = rng.below(2) == 0;
        const auto calls = std::uint32_t(1 + rng.below(6));
        const std::uint64_t record =
            small ? 64 + rng.below(32 * 1024) : (64 << 10) + rng.below(3 << 20);
        const int fd = client.open(own, OpenMode::append);
        try {
          client.write_simulated(fd, record * calls, calls);
          if (rng.below(3) == 0) client.write_simulated(fd, record, 1);
        } catch (const IoError&) {
        }
        client.close(fd);
        break;
      }
      case 2: {  // queue-pair batch: doorbell + per-sqe (or coalesced) runs
        const int fd = client.open(own, OpenMode::write);
        SubmissionQueue sq(client, 8, rng.below(2) == 0);
        std::uint64_t offset = rng.below(1 << 20);
        const int nsqes = 1 + int(rng.below(7));
        for (int i = 0; i < nsqes; ++i) {
          Sqe sqe;
          sqe.fd = fd;
          sqe.offset = offset;
          sqe.simulated_bytes = 512 + rng.below(200 * 1024);
          offset += sqe.simulated_bytes + (rng.below(4) == 0 ? 4096 : 0);
          sq.push(std::move(sqe));
        }
        sq.submit();
        (void)sq.reap_all();
        client.close(fd);
        break;
      }
      case 3: {  // gather into a shared file: in-node or across nodes
        const ClientId peer = ClientId(rng.below(std::uint64_t(shape.clients)));
        client.transfer(shared_fds[std::size_t(rng.below(kSharedFiles))],
                        peer, 1 + rng.below(8 << 20), rng.below(2) == 0,
                        std::uint32_t(1 + rng.below(3)));
        break;
      }
      case 4: {  // every cpu tag, with byte / count annotations
        const OpTag tag = kCpuTags[rng.below(std::size(kCpuTags))];
        // Marker tags are charged zero seconds, as the library does: their
        // cpu_by_tag entries exist with a value of exactly 0.
        const bool marker = tag == OpTag::degrade ||
                            tag == OpTag::delta_commit ||
                            tag == OpTag::dedup || tag == OpTag::fault;
        const double seconds =
            marker || rng.below(4) == 0 ? 0.0 : rng.uniform(0, 2e-3);
        client.charge_cpu(seconds, tag, rng.below(4096),
                          std::uint32_t(1 + rng.below(4)));
        break;
      }
      case 5: {  // re-reads of shared files (first read, then page cache)
        const std::string path =
            fs.store().file_by_id(std::uint64_t(rng.below(kSharedFiles))).path;
        const int fd = client.open(path, OpenMode::read);
        client.read_simulated(fd, 1 + rng.below(6 << 20),
                              std::uint32_t(1 + rng.below(4)));
        client.close(fd);
        break;
      }
      case 6: {  // metadata mix
        (void)client.stat_size(own);
        const int fd = client.open(own, OpenMode::append);
        client.fsync(fd);
        client.close(fd);
        break;
      }
      case 7: {  // temporary file: create, write, rename, unlink
        const std::string tmp = own + ".tmp" + std::to_string(step);
        const int fd = client.open(tmp, OpenMode::create);
        try {
          client.write_simulated(fd, 1 + rng.below(100 * 1024), 1);
        } catch (const IoError&) {
        }
        client.close(fd);
        if (rng.below(2) == 0) {
          client.rename(tmp, tmp + ".done");
          client.unlink(tmp + ".done");
        } else {
          client.unlink(tmp);
        }
        break;
      }
      case 8:  // harness-level fault marker (zero-cost tagged cpu op)
        client.note_fault(FaultKind::rank_crash);
        break;
    }
  }
  for (const int fd : shared_fds) root.close(fd);
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

std::vector<std::uint64_t> bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  out.reserve(values.size());
  for (const double v : values) out.push_back(bits(v));
  return out;
}

void expect_identical(const ReplayReport& got, const ReplayReport& want) {
  ASSERT_EQ(got.clients.size(), want.clients.size());
  for (std::size_t i = 0; i < want.clients.size(); ++i) {
    SCOPED_TRACE("client " + std::to_string(i));
    const ClientTimes& g = got.clients[i];
    const ClientTimes& w = want.clients[i];
    EXPECT_EQ(bits(g.meta), bits(w.meta));
    EXPECT_EQ(bits(g.write), bits(w.write));
    EXPECT_EQ(bits(g.read), bits(w.read));
    EXPECT_EQ(bits(g.cpu), bits(w.cpu));
    EXPECT_EQ(bits(g.drain), bits(w.drain));
    EXPECT_EQ(bits(g.end), bits(w.end));
    EXPECT_EQ(g.meta_ops, w.meta_ops);
    EXPECT_EQ(g.write_calls, w.write_calls);
    EXPECT_EQ(g.read_calls, w.read_calls);
    EXPECT_EQ(g.drain_calls, w.drain_calls);
  }
  EXPECT_EQ(bits(got.makespan), bits(want.makespan));
  EXPECT_EQ(got.bytes_written, want.bytes_written);
  EXPECT_EQ(got.bytes_read, want.bytes_read);
  EXPECT_EQ(got.bytes_transferred, want.bytes_transferred);
  ASSERT_EQ(got.cpu_by_tag.size(), want.cpu_by_tag.size());
  for (const auto& [tag, seconds] : want.cpu_by_tag) {
    ASSERT_TRUE(got.cpu_by_tag.count(tag)) << tag;
    EXPECT_EQ(bits(got.cpu_by_tag.at(tag)), bits(seconds)) << tag;
  }
  EXPECT_EQ(bits(got.op_durations), bits(want.op_durations));
  EXPECT_EQ(bits(got.ost_busy_seconds), bits(want.ost_busy_seconds));
  EXPECT_EQ(bits(got.ost_busy_until), bits(want.ost_busy_until));
  EXPECT_EQ(bits(got.mds_busy_seconds), bits(want.mds_busy_seconds));
}

/// Small cluster geometry so the 24 clients span several nodes, NICs and
/// NUMA domains.
SystemProfile small_cluster(SystemProfile profile) {
  profile.ranks_per_node = 4;
  profile.nics_per_node = 2;
  profile.numa_per_node = 2;
  profile.shm_numa_factor = 1.5;
  profile.ost_count = 6;
  return profile;
}

/// The recorded trace exercises every path the test claims to cover.
void expect_coverage(const std::vector<TraceOp>& trace, bool faults) {
  std::set<OpKind> kinds;
  std::set<OpTag> tags;
  std::set<FaultKind> injected;
  std::map<FileId, int> reads;
  bool drain_lane = false, small_write = false, streaming_write = false;
  bool coalesced_batch = false;
  for (const TraceOp& op : trace) {
    kinds.insert(op.kind);
    tags.insert(op.tag);
    injected.insert(op.fault);
    drain_lane |= op.lane > 0;
    if (op.kind == OpKind::read) ++reads[op.file];
    if (op.kind == OpKind::write && op.op_count > 0) {
      const std::uint64_t record = op.bytes / op.op_count;
      small_write |= record > 0 && record < 64 * 1024;
      streaming_write |= record >= 64 * 1024;
    }
    coalesced_batch |= op.kind == OpKind::batch_write && op.op_count >= 2;
  }
  for (OpKind kind : {OpKind::create, OpKind::open, OpKind::close,
                      OpKind::fsync, OpKind::stat, OpKind::unlink,
                      OpKind::mkdir, OpKind::rename, OpKind::write,
                      OpKind::read, OpKind::xfer, OpKind::cpu,
                      OpKind::batch_write})
    EXPECT_TRUE(kinds.count(kind)) << op_name(kind);
  for (std::size_t t = 0; t < kOpTagCount; ++t)
    EXPECT_TRUE(tags.count(OpTag(t))) << tag_name(OpTag(t));
  EXPECT_TRUE(drain_lane);
  EXPECT_TRUE(small_write);
  EXPECT_TRUE(streaming_write);
  EXPECT_TRUE(coalesced_batch);
  EXPECT_TRUE(std::any_of(reads.begin(), reads.end(),
                          [](const auto& entry) { return entry.second > 1; }));
  if (!faults) return;
  for (FaultKind kind : {FaultKind::torn_write, FaultKind::bit_flip,
                         FaultKind::eio, FaultKind::enospc})
    EXPECT_TRUE(injected.count(kind)) << fault_name(kind);
}

void check_against_reference(const SystemProfile& profile,
                             const TraceShape& shape, std::uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  SharedFs fs(profile.ost_count, /*store_data=*/false);
  record_trace(fs, shape, seed);
  expect_coverage(fs.trace(), shape.faults);
  const ReplayReport want =
      reference_replay(profile, fs.store(), fs.trace(), shape.clients);
  const ReplayReport got =
      replay_trace(profile, fs.store(), fs.trace(), shape.clients);
  expect_identical(got, want);
}

TEST(ReplayDifferential, NoiseFreeGenericProfileWithTies) {
  const SystemProfile profile = small_cluster(SystemProfile{});
  ASSERT_EQ(profile.noise_amplitude, 0.0);
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    check_against_reference(profile, TraceShape{}, seed);
}

TEST(ReplayDifferential, NoisyVegaProfile) {
  const SystemProfile profile = small_cluster(system_profile("vega"));
  ASSERT_GT(profile.noise_amplitude, 0.0);
  for (std::uint64_t seed = 11; seed <= 14; ++seed)
    check_against_reference(profile, TraceShape{}, seed);
}

TEST(ReplayDifferential, InjectedFaults) {
  TraceShape shape;
  shape.faults = true;
  for (std::uint64_t seed = 21; seed <= 24; ++seed) {
    check_against_reference(small_cluster(SystemProfile{}), shape, seed);
    check_against_reference(small_cluster(system_profile("vega")), shape,
                            seed);
  }
}

TEST(ReplayDifferential, SingleLaneOpenAppendCloseStorm) {
  // The original-I/O shape: every rank appends to its own files in
  // lockstep, so each round's opens, writes and closes tie across ranks.
  const SystemProfile profile = small_cluster(system_profile("dardel"));
  SharedFs fs(profile.ost_count, /*store_data=*/false);
  constexpr int kRanks = 64;
  for (int dump = 0; dump < 4; ++dump)
    for (ClientId r = 0; r < kRanks; ++r) {
      FsClient client(fs, r);
      for (const char* stem : {"slow_", "slow1_"}) {
        const int fd = client.open(
            "run/" + std::string(stem) + std::to_string(r) + ".dat",
            dump == 0 ? OpenMode::create : OpenMode::append);
        client.write_simulated(fd, 40 * 2048, 40);
        client.close(fd);
      }
    }
  expect_identical(replay_trace(profile, fs.store(), fs.trace(), kRanks),
                   reference_replay(profile, fs.store(), fs.trace(), kRanks));
}

TEST(ReplayDifferential, EmptyTrace) {
  SharedFs fs(2);
  const SystemProfile profile = small_cluster(SystemProfile{});
  expect_identical(replay_trace(profile, fs.store(), fs.trace(), 3),
                   reference_replay(profile, fs.store(), fs.trace(), 3));
}

}  // namespace
}  // namespace bitio::fsim
