#include "bp/writer.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>

#include "util/binio.hpp"
#include "util/crc32c.hpp"
#include "util/error.hpp"
#include "util/hash64.hpp"
#include "util/thread_pool.hpp"

namespace bitio::bp {

namespace {

/// The no-operator marshalling copy lands in a recycled pool buffer that is
/// already resident and write-warmed from earlier steps, so it runs at
/// roughly twice the cold-buffer bandwidth the seed model charged (no page
/// faults, no allocator traffic).  memcopy_us stays nonzero — the copy is
/// real — but drops accordingly in profiling.json / Darshan accounting.
constexpr double kWarmCopyFactor = 2.0;

/// Zero-copy marshal (put_borrowed, no operator): the one remaining copy
/// reads the caller's SoA arrays exactly once — no staged intermediate, a
/// single pass through the SIMD block marshal with streaming stores into
/// the warm aggregation buffer — so the staging write+read round trip of
/// the put() path is gone and the charge runs at about twice the warm
/// staged-copy bandwidth.  Fig 8's "warm-copy factor" for these chunks.
constexpr double kZeroCopyFactor = 4.0;

/// Real steps carrying fewer raw bytes than this encode on the caller: a
/// fork/join costs more than it saves on a few small chunks.
constexpr std::size_t kParallelEncodeMinBytes = 256 * 1024;

/// Chunks below this size ride along in an encode wave without counting
/// towards its width (a checkpoint interleaves each species' five particle
/// arrays with a few one-element records).
constexpr std::size_t kEncodeWaveChunkBytes = 64 * 1024;

/// Submit everything pushed into `sq` and surface any failed completion as
/// the IoError a per-op pwrite would have thrown, so the drain retry and
/// watchdog machinery behave identically on both paths.  Torn writes are
/// reported short in their cqe but not failed — matching posix pwrite's
/// silent-torn semantics, which keeps batched and per-op containers in
/// byte agreement under the same fault plan.
void submit_and_reap(fsim::SubmissionQueue& sq) {
  if (sq.pending() == 0) return;
  sq.submit();
  for (const fsim::Cqe& cqe : sq.reap_all())
    if (!cqe.ok) throw IoError(cqe.error);
}

/// Push onto the ring, draining it first when full (extra doorbells beyond
/// one per lane only appear when a step outgrows io_batch_depth).
void ring_push(fsim::SubmissionQueue& sq, fsim::Sqe sqe) {
  if (sq.pending() == sq.depth()) submit_and_reap(sq);
  sq.push(std::move(sqe));
}

}  // namespace

StreamPolicy stream_policy_of(const std::string& name) {
  if (name == "block") return StreamPolicy::block;
  if (name == "drop_oldest" || name == "drop-oldest")
    return StreamPolicy::drop_oldest;
  if (name == "disconnect") return StreamPolicy::disconnect;
  throw UsageError(
      "bp: unknown stream_policy '" + name +
      "' (expected \"block\", \"drop_oldest\", or \"disconnect\")");
}

EngineConfig EngineConfig::from_json(const Json& adios2) {
  EngineConfig config;
  // Switches are booleans or ADIOS2-style "On"/"Off" strings.
  auto on = [](const Json& v) {
    return v.is_string() ? v.as_string() == "On" : v.as_bool();
  };
  if (adios2.contains("engine")) {
    const Json& engine = adios2.at("engine");
    const std::string type =
        engine.get_or("type", Json("bp4")).as_string();
    if (type == "bp4") config.engine = EngineType::bp4;
    else if (type == "bp5") config.engine = EngineType::bp5;
    else if (type == "stream") config.engine = EngineType::stream;
    else throw UsageError("adios2 config: unknown engine '" + type + "'");
    if (engine.contains("parameters")) {
      const Json& params = engine.at("parameters");
      auto set_int = [&](const char* key, int& field) {
        if (params.contains(key)) field = int(params.at(key).as_int());
      };
      auto set_on = [&](const char* key, bool& field) {
        if (params.contains(key)) field = on(params.at(key));
      };
      auto set_str = [&](const char* key, std::string& field) {
        if (params.contains(key)) field = params.at(key).as_string();
      };
      // The paper uses OPENPMD_ADIOS2_BP5_NumAgg; accept both spellings.
      set_int("NumAggregators", config.num_aggregators);
      set_int("NumAgg", config.num_aggregators);
      set_on("Profile", config.profiling);
      set_on("AsyncWrite", config.async_write);
      if (params.contains("BufferChunkSize"))
        config.buffer_chunk_mb =
            std::size_t(params.at("BufferChunkSize").as_uint());
      // Batched queue-pair submission knobs (core::Bit1IoConfig emits them
      // only when set, so legacy configs parse unchanged).
      set_int("IoBatchDepth", config.io_batch_depth);
      set_on("CoalesceWrites", config.coalesce_writes);
      set_int("DrainTimeoutMs", config.drain_timeout_ms);
      set_int("MaxDrainRetries", config.max_drain_retries);
      // Stream-engine window knobs (ignored by the file engines).
      set_int("StreamMaxSteps", config.stream_max_steps);
      set_str("StreamPolicy", config.stream_policy);
      // Topology-modeled gather path (core::Bit1IoConfig::adios2_toml emits
      // these only when something differs from flat-on-flat, so legacy
      // configs parse unchanged).
      set_str("Aggregation", config.aggregation);
      set_str("Topology", config.topology);
      set_int("NumaPerNode", config.numa_per_node);
      set_int("NicsPerNode", config.nics_per_node);
    }
  }
  if (adios2.contains("dataset")) {
    const Json& dataset = adios2.at("dataset");
    if (dataset.contains("operators")) {
      const auto& ops = dataset.at("operators").as_array();
      if (ops.size() > 1)
        throw UsageError("adios2 config: at most one operator is supported");
      if (!ops.empty()) {
        config.codec = ops[0].at("type").as_string();
        if (ops[0].contains("typesize"))
          config.codec_typesize =
              std::size_t(ops[0].at("typesize").as_uint());
        // Block-parallel pipeline knobs ride on the operator entry.
        if (ops[0].contains("threads"))
          config.compress_threads = int(ops[0].at("threads").as_int());
        if (ops[0].contains("block_kb"))
          config.compress_block_kb =
              std::size_t(ops[0].at("block_kb").as_uint());
      }
    }
  }
  return config;
}

topo::Mapper Writer::build_mapper(const EngineConfig& config, int nranks) {
  if (nranks <= 0 || config.ranks_per_node <= 0)
    return topo::Mapper(topo::Cluster::flat(), 1);
  topo::Cluster cluster = topo::Cluster::preset(config.topology);
  // The engine's ranks_per_node knob stays the single source of the node
  // size; a hierarchical preset contributes the NUMA/NIC shape (which the
  // explicit overrides may in turn replace).
  if (cluster.multi_node()) {
    cluster.ranks_per_node = config.ranks_per_node;
    // A preset describes a fully-populated node; when ranks_per_node
    // undersubscribes it, scale the NUMA-domain count to the occupied
    // slots so the shape stays coherent (an explicit numa_per_node below
    // is still validated strictly).
    cluster.numa_per_node =
        std::gcd(cluster.numa_per_node, cluster.ranks_per_node);
  }
  if (config.numa_per_node > 0) cluster.numa_per_node = config.numa_per_node;
  if (config.nics_per_node > 0) cluster.nics_per_node = config.nics_per_node;
  cluster.validate();
  return topo::Mapper(cluster, nranks);
}

EngineConfig Writer::validated(EngineConfig config, int nranks) {
  if (nranks <= 0) throw UsageError("bp::Writer: nranks must be positive");
  if (config.engine == EngineType::stream)
    throw UsageError(
        "bp::Writer: the stream engine has no file container — construct it "
        "via bp::make_engine(\"stream\", ...)");
  if (config.ranks_per_node <= 0)
    throw UsageError("bp::Writer: ranks_per_node must be positive");
  if (config.max_inflight_steps < 1)
    throw UsageError("bp::Writer: max_inflight_steps must be >= 1");
  if (config.drain_timeout_ms < 0)
    throw UsageError("bp::Writer: drain_timeout_ms must be >= 0");
  if (config.max_drain_retries < 0)
    throw UsageError("bp::Writer: max_drain_retries must be >= 0");
  if (config.io_batch_depth < 0)
    throw UsageError("bp::Writer: io_batch_depth must be >= 0");
  return config;
}

Writer::DrainPlan Writer::make_plan(const EngineConfig& config,
                                    const topo::Mapper& mapper, bool codec) {
  DrainPlan plan;
  // Keep the accepted strings in lockstep with core::kBit1IoAggregationModes
  // (the topology-registry lint rule checks both sites).
  if (config.aggregation == "flat")
    plan.gather = DrainPlan::Gather::flat;
  else if (config.aggregation == "two_level")
    plan.gather = DrainPlan::Gather::two_level;
  else
    throw UsageError("bp::Writer: unknown aggregation '" + config.aggregation +
                     "' (expected \"flat\" or \"two_level\")");
  // Only a multi-node topology records gather ops: on the flat topology the
  // trace is exactly the pre-topology writer's, byte for byte.
  if (!mapper.multi_node()) plan.gather = DrainPlan::Gather::none;
  plan.marshal_tag = codec ? fsim::OpTag::compress : fsim::OpTag::memcopy;
  plan.ring_depth = std::size_t(config.io_batch_depth);
  plan.coalesce = config.coalesce_writes;
  if (config.async_write) {
    // Marshalling runs on each aggregator's drain lane, off the ranks'
    // critical path, and the subfile append goes out in slices.
    plan.data_lane = kDataLane;
    plan.meta_lane = kMetaLane;
    plan.slice = std::max<std::uint64_t>(1, config.buffer_chunk_mb) << 20;
    plan.charge_leader = true;
    plan.marshal_us = &DrainTotals::drain_us;
  } else {
    plan.slice = std::numeric_limits<std::uint64_t>::max();
    plan.marshal_us =
        codec ? &DrainTotals::compress_us : &DrainTotals::memcopy_us;
  }
  return plan;
}

Writer::Writer(ForEngineFactory, fsim::SharedFs& fs, std::string path,
               EngineConfig config, int nranks)
    : fs_(fs), path_(std::move(path)),
      config_(validated(std::move(config), nranks)), nranks_(nranks),
      mapper_(build_mapper(config_, nranks_)),
      codec_(make_chunk_codec("bp::Writer", config_, buffer_pool_)),
      plan_(make_plan(config_, mapper_, codec_ != nullptr)) {
  const int nnodes =
      (nranks_ + config_.ranks_per_node - 1) / config_.ranks_per_node;
  num_aggregators_ = std::min(
      config_.num_aggregators > 0 ? config_.num_aggregators : nnodes, nranks_);

  pending_.resize(std::size_t(nranks_));

  // Create the container: every aggregator leader creates its subfile, rank
  // 0 creates the metadata files.  (This is the file population Table II
  // counts: M data files + md.0 + md.idx [+ profiling.json, mmd.0].)
  for (int a = 0; a < num_aggregators_; ++a) {
    fsim::FsClient client(fs_, fsim::ClientId(leader_of(a)));
    data_fds_.push_back(client.open(path_ + "/data." + std::to_string(a),
                                    fsim::OpenMode::create));
    data_offsets_.push_back(0);
  }
  fsim::FsClient root(fs_, 0);
  md_fd_ = root.open(path_ + "/md.0", fsim::OpenMode::create);
  idx_fd_ = root.open(path_ + "/md.idx", fsim::OpenMode::create);
  write_index_header();  // the count is patched at close

  if (config_.async_write) {
    drain_thread_ = std::thread([this] { drain_loop(); });
    if (config_.drain_timeout_ms > 0)
      watchdog_thread_ = std::thread([this] { watchdog_loop(); });
  }
}

Writer::~Writer() {
  bool need_close;
  {
    util::MutexLock lock(mutex_);
    need_close = !closed_;
  }
  if (need_close) {
    try {
      close();
    } catch (...) {
      // Destructors must not throw; an incomplete container is detectable
      // by the reader via the md.idx count.
    }
  }
  stop_drain_thread();
  stop_watchdog_thread();
}

int Writer::leader_of(int aggregator) const {
  return int(std::int64_t(aggregator) * nranks_ / num_aggregators_);
}

int Writer::aggregator_of(int rank) const {
  if (rank < 0 || rank >= nranks_)
    throw UsageError("bp::Writer: rank out of range");
  return int(std::int64_t(rank) * num_aggregators_ / nranks_);
}

void Writer::begin_step(std::uint64_t step) {
  util::MutexLock lock(mutex_);
  if (closed_) throw UsageError("bp::Writer: engine is closed");
  if (step_open_) throw UsageError("bp::Writer: step already open");
  if (config_.async_write) {
    // Backpressure: with a bound of K, step N+K may not open until step
    // N's drain has landed.
    util::MutexLock dlock(drain_mutex_);
    while (!drain_error_ && inflight_ >= config_.max_inflight_steps)
      drain_done_cv_.wait(dlock);
    if (drain_error_) std::rethrow_exception(drain_error_);
  }
  step_open_ = true;
  current_step_ = step;
  attributes_.clear();
  step_vars_.clear();
  step_var_ids_.clear();
  step_payload_ = StepPayload::none;
}

Writer::PendingChunk& Writer::add_pending(int rank, const std::string& name,
                                          Datatype dtype, const Dims& shape,
                                          const Dims& offset,
                                          const Dims& count,
                                          StepPayload payload) {
  if (!step_open_) throw UsageError("bp::Writer: put outside a step");
  check_put("bp::Writer", rank, nranks_, name, shape, offset, count);
  // Intern the name; later puts must agree with the first one's
  // shape/dtype.
  std::uint32_t id;
  if (const auto it = step_var_ids_.find(name); it != step_var_ids_.end()) {
    id = it->second;
    const StepVar& var = step_vars_[id];
    if (var.dtype != dtype || var.shape != shape)
      throw UsageError("bp::Writer: inconsistent shape/dtype for '" + name +
                       "'");
  } else {
    id = std::uint32_t(step_vars_.size());
    step_vars_.push_back({name, dtype, shape});
    step_var_ids_.emplace(name, id);
  }
  note_payload("bp::Writer", step_payload_, payload);
  ++step_vars_[id].chunks;
  return pending_[std::size_t(rank)].emplace_back(
      PendingChunk{id, offset, count, {}, {}});
}

void Writer::put(int rank, const std::string& name, const Dims& shape,
                 const ChunkView& view) {
  util::MutexLock lock(mutex_);
  PendingChunk& chunk = add_pending(rank, name, view.dtype(), shape,
                                    view.offset(), view.count(),
                                    StepPayload::real);
  // Stage the payload in a recycled pool buffer: steady-state puts do no
  // heap allocation (the buffer returns to the pool after the drain).
  chunk.data = buffer_pool_.acquire(view.bytes().size());
  if (!view.bytes().empty())
    std::memcpy(chunk.data.data(), view.bytes().data(), view.bytes().size());
  ++stage_copies_total_;
}

void Writer::put_borrowed(int rank, const std::string& name,
                          const Dims& shape, const ChunkView& view) {
  util::MutexLock lock(mutex_);
  // No staging: the drain marshals straight from the caller's bytes (which
  // the deferred-Put contract keeps valid until the step lands).
  add_pending(rank, name, view.dtype(), shape, view.offset(), view.count(),
              StepPayload::real)
      .borrowed = view.bytes();
}

void Writer::put_synthetic(int rank, const std::string& name, Datatype dtype,
                           const Dims& shape, const Dims& offset,
                           const Dims& count) {
  util::MutexLock lock(mutex_);
  add_pending(rank, name, dtype, shape, offset, count, StepPayload::synthetic);
}

void Writer::add_attribute(const std::string& name, AttrValue value) {
  util::MutexLock lock(mutex_);
  if (!step_open_)
    throw UsageError("bp::Writer: attribute outside a step");
  attributes_.emplace_back(name, std::move(value));
}

std::vector<ChunkRecord> Writer::encode_real_step(
    const StepJob& job, std::vector<std::vector<std::uint8_t>>& agg) {
  // The chunks in rank-major order — the order their frames are appended
  // in — and each aggregator's worst-case byte count.
  struct Ref {
    const PendingChunk* chunk;
    Datatype dtype;
    std::size_t aggregator;
  };
  std::vector<Ref> refs;
  std::vector<std::size_t> reserve(agg.size(), 0);
  std::size_t raw_total = 0;
  for (int rank = 0; rank < nranks_; ++rank) {
    const std::size_t a = std::size_t(aggregator_of(rank));
    for (const PendingChunk& chunk : job.chunks[std::size_t(rank)]) {
      const std::size_t n = chunk.payload().size();
      refs.push_back({&chunk, job.vars[chunk.var].dtype, a});
      reserve[a] += codec_ ? codec_->max_frame_size(n) : n;
      raw_total += n;
    }
  }
  // One acquire per aggregator at its final size: appends never regrow
  // the buffer, and steady-state steps are pool hits.
  for (std::size_t a = 0; a < agg.size(); ++a)
    if (reserve[a] > 0) agg[a] = buffer_pool_.acquire_reserve(reserve[a]);

  // Encode in waves of `width` chunks (small chunks ride along): each
  // chunk's frame, CRC32C, statistics and content hash depend on that chunk
  // alone, so a wave's chunks run in parallel; the wave's frames are then
  // appended in order and released at once.  Which frames are live
  // together depends on the chunk sizes only, never on the schedule.
  util::ThreadPool& pool = util::ThreadPool::shared();
  const std::size_t width =
      raw_total >= kParallelEncodeMinBytes ? std::size_t(pool.workers()) + 1
                                           : 1;
  std::vector<ChunkRecord> encoded(refs.size());
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::size_t first = 0, count = 0; first < refs.size();
       first += count) {
    count = 0;
    for (std::size_t large = 0; first + count < refs.size() && large < width;
         ++count)
      if (width == 1 || refs[first + count].chunk->payload().size() >=
                            kEncodeWaveChunkBytes)
        ++large;
    if (frames.size() < count) frames.resize(count);
    touch_heartbeat();
    pool.parallel_for(count, int(width), [&](std::size_t i) {
      const Ref& ref = refs[first + i];
      const std::span<const std::uint8_t> payload = ref.chunk->payload();
      std::span<const std::uint8_t> stored = payload;
      if (codec_) {
        std::vector<std::uint8_t>& frame = frames[i];
        frame = buffer_pool_.acquire_reserve(
            codec_->max_frame_size(payload.size()));
        codec_->compress_append(payload, frame);
        stored = frame;
      }
      ChunkRecord& e = encoded[first + i];
      e.offset = ref.chunk->offset;
      e.count = ref.chunk->count;
      e.raw_bytes = payload.size();
      e.stored_bytes = stored.size();
      if (codec_) e.operator_name = codec_->name();
      compute_stats(payload, ref.dtype, e.stat_min, e.stat_max);
      // End-to-end integrity: the CRC32C of the stored bytes; content
      // identity (format v6): FNV-1a 64 of the raw bytes, the dedup key the
      // incremental-checkpoint layer compares across epochs.
      e.crc32c = crc32c(stored);
      e.has_crc = true;
      e.content_hash = util::hash64(payload);
      e.has_content_hash = true;
    });
    for (std::size_t i = 0; i < count; ++i) {
      const Ref& ref = refs[first + i];
      std::vector<std::uint8_t>& dst = agg[ref.aggregator];
      const std::span<const std::uint8_t> stored =
          codec_ ? std::span<const std::uint8_t>(frames[i])
                 : ref.chunk->payload();
      dst.insert(dst.end(), stored.begin(), stored.end());
      buffer_pool_.release(std::move(frames[i]));
    }
  }
  return encoded;
}

void Writer::end_step() {
  StepJob job;
  {
    util::MutexLock lock(mutex_);
    if (!step_open_) throw UsageError("bp::Writer: no open step");
    step_open_ = false;
    job.step = current_step_;
    job.payload = step_payload_;
    job.attributes = std::move(attributes_);
    attributes_.clear();
    job.vars = std::move(step_vars_);  // begin_step() resets the table
    job.chunks = std::move(pending_);
    pending_.assign(std::size_t(nranks_), {});
    ++steps_written_;
  }
  if (!config_.async_write) {
    drain_step(job);
    recycle_job(job);
    return;
  }
  {
    util::MutexLock lock(drain_mutex_);
    if (drain_error_) std::rethrow_exception(drain_error_);
    drain_queue_.push_back(std::move(job));
    ++inflight_;
    peak_inflight_ = std::max(peak_inflight_, inflight_);
  }
  drain_cv_.notify_one();
}

void Writer::drain_step(const StepJob& job) {
  touch_heartbeat();
  const std::size_t naggs = std::size_t(num_aggregators_);
  // Aggregation buffers: a real step marshals every chunk up front into
  // them; a synthetic step has only sizes, and writes size-only.
  const bool real = job.payload == StepPayload::real;
  std::vector<std::vector<std::uint8_t>> agg(naggs);
  std::vector<ChunkRecord> encoded;
  if (real) encoded = encode_real_step(job, agg);

  // Stage 1: record every chunk in rank-major order.  Per rank, the
  // gather's first hop ships its bytes towards the aggregator leader and
  // its marshalling/CRC CPU is charged or set aside for the leader.
  StepRecord record;
  record.step = job.step;
  record.attributes = job.attributes;
  // var_slot[id] is the record.variables index of step-local variable
  // `id`, once seen (first-seen rank-major order).
  constexpr std::size_t kUnseen = ~std::size_t(0);
  std::vector<std::size_t> var_slot(job.vars.size(), kUnseen);
  std::vector<std::uint64_t> agg_bytes(naggs, 0);
  // One ring sqe per marshalled chunk extent (coalescing may merge them).
  std::vector<std::vector<std::uint64_t>> agg_extents(naggs);
  std::vector<CpuCharge> leader_cpu(naggs);
  // Two-level: bytes each node forwards to each aggregator (second hop).
  std::map<std::pair<int, int>, std::uint64_t> node_agg_bytes;
  std::size_t next = 0;  // rank-major index into encoded
  for (int rank = 0; rank < nranks_; ++rank) {
    const auto& chunks = job.chunks[std::size_t(rank)];
    if (chunks.empty()) continue;
    touch_heartbeat();
    const std::size_t a = std::size_t(aggregator_of(rank));
    CpuCharge cpu;
    std::uint64_t rank_stored = 0;
    for (const PendingChunk& chunk : chunks) {
      const StepVar& info = job.vars[chunk.var];
      ChunkRecord meta =
          real ? std::move(encoded[next++])
               : synthetic_chunk(chunk.offset, chunk.count, info.dtype,
                                 codec_.get(), config_.synthetic_codec_ratio);
      meta.writer_rank = std::uint32_t(rank);
      meta.subfile = std::uint32_t(a);
      meta.file_offset = data_offsets_[a] + agg_bytes[a];
      // With an operator the frame went straight into the aggregation
      // buffer: compression is charged, no separate memcopy (Fig 8).
      // Without one, the marshalling copy: staged puts copy between warm
      // pool buffers (kWarmCopyFactor); a borrowed chunk skipped staging,
      // so its single pass runs at kZeroCopyFactor.
      const double marshal_s =
          codec_ ? compress_cpu_seconds(*codec_, config_, meta.raw_bytes)
                 : double(meta.raw_bytes) /
                       (config_.mem_bandwidth_bps *
                        (chunk.is_borrowed() ? kZeroCopyFactor
                                             : kWarmCopyFactor));
      cpu.marshal += marshal_s;
      totals_.*plan_.marshal_us += marshal_s * 1e6;
      if (meta.has_crc) {
        const double crc_s = double(meta.stored_bytes) / kCrcBandwidthBps;
        cpu.crc += crc_s;
        totals_.crc_us += crc_s * 1e6;
      }
      if (chunk.is_borrowed()) ++totals_.zero_copy_chunks;
      totals_.raw_bytes += meta.raw_bytes;
      totals_.stored_bytes += meta.stored_bytes;
      agg_bytes[a] += meta.stored_bytes;
      if (meta.stored_bytes > 0) agg_extents[a].push_back(meta.stored_bytes);
      rank_stored += meta.stored_bytes;

      std::size_t& slot = var_slot[chunk.var];
      if (slot == kUnseen) {
        slot = record.variables.size();
        record.variables.push_back({info.name, info.dtype, info.shape, {}});
        record.variables.back().chunks.reserve(info.chunks);
      }
      record.variables[slot].chunks.push_back(std::move(meta));
    }
    // First gather hop, recorded on the *receiving* rank's sequence: a
    // gatherer cannot forward or write bytes it has not received, so the
    // fan-in must gate the receiver's later ops (recorded on the sender it
    // would replay off the critical path and cost nothing).
    if (plan_.gather != DrainPlan::Gather::none && rank_stored > 0) {
      const bool two_level = plan_.gather == DrainPlan::Gather::two_level;
      const int receiver =
          two_level ? mapper_.leader_of(rank) : leader_of(int(a));
      if (rank != receiver)
        fsim::FsClient(fs_, fsim::ClientId(receiver), plan_.data_lane)
            .transfer(data_fds_[a], fsim::ClientId(rank), rank_stored,
                      mapper_.same_node(rank, receiver));
      if (two_level) node_agg_bytes[{mapper_.node_of(rank), int(a)}] +=
          rank_stored;
    }
    if (plan_.charge_leader)
      leader_cpu[a].add(cpu);
    else
      charge(fsim::FsClient(fs_, fsim::ClientId(rank)), cpu);
  }

  // Stage 2 (two-level only): each node leader ships its node's combined
  // payload per aggregator; a node leader that is the aggregator leader
  // already holds the bytes.  Recorded on the receiver, ahead of its
  // writes, for the same critical-path reason as the first hop.
  for (const auto& [key, bytes] : node_agg_bytes) {
    const int from = mapper_.node_leader(key.first);
    const int to = leader_of(key.second);
    if (from == to) continue;
    fsim::FsClient(fs_, fsim::ClientId(to), plan_.data_lane)
        .transfer(data_fds_[std::size_t(key.second)], fsim::ClientId(from),
                  bytes, mapper_.same_node(from, to));
  }

  // Stage 3: each aggregator leader takes its CPU charge (async) and
  // appends its step buffer to its subfile.
  for (std::size_t a = 0; a < naggs; ++a) {
    const fsim::FsClient leader(fs_, fsim::ClientId(leader_of(int(a))),
                                plan_.data_lane);
    charge(leader, leader_cpu[a]);
    if (agg_bytes[a] == 0) continue;
    touch_heartbeat();
    write_subfile(leader, a, agg[a], agg_bytes[a], agg_extents[a]);
    data_offsets_[a] += agg_bytes[a];
  }
  // Aggregation buffers go back to the pool (with whatever capacity they
  // grew to) for the next step's drain.
  for (auto& buffer : agg) buffer_pool_.release(std::move(buffer));

  // Stage 4: rank 0 appends the step metadata and its index entry.
  write_metadata(job.step, record);
}

void Writer::charge(fsim::FsClient client, const CpuCharge& cpu) const {
  if (cpu.marshal > 0.0) client.charge_cpu(cpu.marshal, plan_.marshal_tag);
  if (cpu.crc > 0.0) client.charge_cpu(cpu.crc, fsim::OpTag::crc32c);
}

void Writer::write_subfile(fsim::FsClient client, std::size_t aggregator,
                           std::span<const std::uint8_t> data,
                           std::uint64_t bytes,
                           const std::vector<std::uint64_t>& extents) {
  // `data` is empty for a synthetic step: every write is size-only.
  const int fd = data_fds_[aggregator];
  const std::uint64_t base = data_offsets_[aggregator];
  if (plan_.ring_depth > 0) {
    // Queue-pair path: the same bytes at the same offsets, one sqe per
    // chunk extent through one ring per lane.  Without coalescing every
    // extent is its own device record (paying its own per-record RPC cost,
    // like N separate pwritevs); coalescing merges adjacent extents into
    // vectored records without changing what lands on disk.
    fsim::SubmissionQueue sq(client, plan_.ring_depth, plan_.coalesce);
    std::uint64_t pos = 0;
    for (const std::uint64_t n : extents) {
      touch_heartbeat();
      ring_push(sq, data.empty()
                        ? fsim::Sqe{fd, base + pos, {}, n, pos}
                        : fsim::Sqe{fd, base + pos, {data.subspan(pos, n)},
                                    0, pos});
      pos += n;
    }
    submit_and_reap(sq);
  } else if (data.empty()) {
    client.seek(fd, base);
    client.write_simulated(fd, bytes,
                           std::uint32_t((bytes - 1) / plan_.slice + 1));
  } else {
    // One sequential write, in plan_.slice pieces.
    for (std::uint64_t pos = 0; pos < bytes; pos += plan_.slice) {
      touch_heartbeat();
      const std::uint64_t n = std::min(plan_.slice, bytes - pos);
      client.pwrite(fd, base + pos, data.subspan(pos, n));
    }
  }
}

void Writer::write_metadata(std::uint64_t step, const StepRecord& record) {
  touch_heartbeat();
  fsim::FsClient root(fs_, 0, plan_.meta_lane);
  std::vector<std::uint8_t> md = encode_step(record);
  // The block ends in the CRC32C of everything before it, so the index
  // entry's CRC of the whole block continues from that stored value over
  // the last four bytes instead of reading the block again.
  const auto md_tail = std::span<const std::uint8_t>(md).last(4);
  const IndexEntry entry{step, md_offset_, md.size(),
                         crc32c(md_tail, BinReader(md_tail).u32())};
  // The entry's md.idx bytes: encode_index's record after its header.
  const std::vector<std::uint8_t> idx = encode_index({entry});
  const auto idx_bytes = std::span<const std::uint8_t>(idx).subspan(8);
  const std::uint64_t idx_offset = 8 + index_.size() * kIdxEntryBytesV5;
  if (plan_.ring_depth > 0) {
    // The two tiny per-step appends ride one doorbell.  Per-op, each pays
    // the synchronous small-record round trip every step: the metadata
    // cost the queue pair amortizes away at scale.
    fsim::SubmissionQueue mq(root, 2, plan_.coalesce);
    mq.push({md_fd_, md_offset_, {std::span<const std::uint8_t>(md)}, 0, 0});
    mq.push({idx_fd_, idx_offset, {idx_bytes}, 0, 1});
    submit_and_reap(mq);
  } else {
    root.pwrite(md_fd_, md_offset_, md);
    root.pwrite(idx_fd_, idx_offset, idx_bytes);
  }
  md_offset_ += md.size();
  index_.push_back(entry);
  // The footer index close() appends repeats this exact block.
  footer_steps_.push_back(std::move(md));
}

void Writer::recycle_job(StepJob& job) {
  for (auto& rank_chunks : job.chunks)
    for (auto& chunk : rank_chunks)
      buffer_pool_.release(std::move(chunk.data));
}

Writer::DrainSnapshot Writer::snapshot_drain_state() const {
  return {data_offsets_, md_offset_, index_.size(), footer_steps_.size(),
          totals_};
}

void Writer::restore_drain_state(const DrainSnapshot& snap) {
  data_offsets_ = snap.data_offsets;
  md_offset_ = snap.md_offset;
  index_.resize(snap.index_size);
  footer_steps_.resize(snap.footer_steps);
  totals_ = snap.totals;
}

void Writer::drain_job_with_retries(const StepJob& job) {
  // Bounded retry of a failed or watchdog-cancelled attempt.  Each attempt
  // starts from a rolled-back snapshot, so a partially landed attempt is
  // overwritten in place (same pwrite offsets) and the container stays
  // consistent.  Past the bound the step is abandoned with a typed error;
  // the poisoned queue then skips later jobs, so close() cannot hang.
  const int attempts = 1 + std::max(0, config_.max_drain_retries);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    const DrainSnapshot snap = snapshot_drain_state();
    drain_active_.store(true, std::memory_order_release);
    touch_heartbeat();
    try {
      drain_step(job);
      drain_active_.store(false, std::memory_order_release);
      return;
    } catch (...) {
      drain_active_.store(false, std::memory_order_release);
      restore_drain_state(snap);
      if (attempt + 1 < attempts) {
        drain_retries_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      steps_abandoned_.fetch_add(1, std::memory_order_relaxed);
      std::string cause = "unknown error";
      try {
        throw;
      } catch (const std::exception& e) {
        cause = e.what();
      } catch (...) {
      }
      util::MutexLock lock(drain_mutex_);
      if (!drain_error_)
        drain_error_ = std::make_exception_ptr(TimeoutError(
            "bp::Writer: drain of step " + std::to_string(job.step) +
            " abandoned after " + std::to_string(attempts) +
            " attempts: " + cause));
    }
  }
}

void Writer::drain_loop() {
  for (;;) {
    StepJob job;
    bool skip = false;
    {
      util::MutexLock lock(drain_mutex_);
      while (!drain_stop_ && drain_queue_.empty()) drain_cv_.wait(lock);
      if (drain_queue_.empty()) return;  // stop requested, queue drained
      job = std::move(drain_queue_.front());
      drain_queue_.pop_front();
      skip = drain_error_ != nullptr;  // poisoned: count down, don't write
    }
    if (!skip) drain_job_with_retries(job);
    // After the final attempt (or a skip) nothing reads the staged
    // payloads again: hand them back to the pool.
    recycle_job(job);
    {
      util::MutexLock lock(drain_mutex_);
      --inflight_;
    }
    drain_done_cv_.notify_all();
  }
}

void Writer::watchdog_loop() {
  const auto timeout = std::chrono::milliseconds(config_.drain_timeout_ms);
  const auto poll = std::max(timeout / 8, std::chrono::milliseconds(1));
  std::uint64_t last_beat = heartbeat_.load(std::memory_order_relaxed);
  auto last_progress = std::chrono::steady_clock::now();
  util::MutexLock lock(watchdog_mutex_);
  for (;;) {
    // A spurious wake just re-runs the (cheap) heartbeat check early.
    watchdog_cv_.wait_for(lock, poll);
    if (watchdog_stop_) return;
    const auto now = std::chrono::steady_clock::now();
    const std::uint64_t beat = heartbeat_.load(std::memory_order_relaxed);
    if (beat != last_beat || !drain_active_.load(std::memory_order_acquire)) {
      last_beat = beat;
      last_progress = now;
      continue;
    }
    if (now - last_progress >= timeout) {
      // The active job has not heartbeated within drain_timeout: a lane is
      // wedged.  Cancel the stalled simulated I/O; the drain worker's
      // attempt fails with TimeoutError and is retried or abandoned.  The
      // cancelled-op count is uninteresting here — the timeout counter
      // below is the observable.
      (void)fs_.cancel_stalls();
      watchdog_timeouts_.fetch_add(1, std::memory_order_relaxed);
      last_progress = now;  // fresh window for the retry
    }
  }
}

void Writer::stop_watchdog_thread() {
  if (!watchdog_thread_.joinable()) return;
  {
    util::MutexLock lock(watchdog_mutex_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  watchdog_thread_.join();
}

Writer::WatchdogStats Writer::watchdog_stats() const {
  WatchdogStats stats;
  stats.timeouts = watchdog_timeouts_.load(std::memory_order_relaxed);
  stats.retries = drain_retries_.load(std::memory_order_relaxed);
  stats.steps_abandoned = steps_abandoned_.load(std::memory_order_relaxed);
  return stats;
}

void Writer::wait_drains() {
  if (!config_.async_write) return;
  util::MutexLock lock(drain_mutex_);
  while (inflight_ != 0) drain_done_cv_.wait(lock);
  if (drain_error_) std::rethrow_exception(drain_error_);
}

int Writer::peak_inflight() const {
  util::MutexLock lock(drain_mutex_);
  return peak_inflight_;
}

void Writer::stop_drain_thread() {
  if (!drain_thread_.joinable()) return;
  {
    util::MutexLock lock(drain_mutex_);
    drain_stop_ = true;
  }
  drain_cv_.notify_all();
  drain_thread_.join();
}

void Writer::publish_index() {
  // The caller must have joined outstanding drains (wait_drains), so this
  // thread owns the drain-side index state (see the member comment).
  {
    util::MutexLock lock(mutex_);
    if (closed_) return;
    if (step_open_)
      throw UsageError("bp::Writer: publish_index with an open step");
  }
  // The same header bytes close() writes — the final container is
  // unchanged, the count just becomes visible to mid-run readers early.
  write_index_header();
}

void Writer::write_index_header() {
  BinWriter header;
  header.u32(kIdxMagicV5);
  header.u32(std::uint32_t(index_.size()));
  fsim::FsClient(fs_, 0).pwrite(idx_fd_, 0, header.buffer());
}

void Writer::close() {
  {
    util::MutexLock lock(mutex_);
    if (closed_) return;
    if (step_open_) throw UsageError("bp::Writer: close with an open step");
    closed_ = true;
  }
  // Join outstanding drains before touching the files; the worker owns the
  // offset tables and profiling accumulators until it goes quiet.  The
  // watchdog must outlive the drain join — it is what unwedges a stalled
  // lane so the join can complete.
  stop_drain_thread();
  stop_watchdog_thread();

  util::MutexLock lock(mutex_);
  fsim::FsClient root(fs_, 0);
  write_index_header();  // the final step count

  // Footer index (format v6): the complete step records appended after the
  // last metadata block, then a fixed trailer pointing back at them.  A
  // reader opens from the trailer in O(1) seeks; md.idx entries all point
  // below md_offset_, so the v5 scan path is unaffected by the tail.
  {
    const std::vector<std::uint8_t> footer = encode_footer(footer_steps_);
    // The blocks now live in `footer`; free them before the store copies it.
    footer_steps_ = {};
    BinWriter trailer;
    trailer.u64(md_offset_);
    trailer.u64(footer.size());
    trailer.u32(crc32c(footer));
    trailer.u32(kFtrMagic);
    root.pwrite(md_fd_, md_offset_, footer);
    root.pwrite(md_fd_, md_offset_ + footer.size(), trailer.buffer());
  }

  if (config_.engine == EngineType::bp5) {
    // BP5's second metadata file: a duplicate of the index for fast open.
    const auto mmd = encode_index(index_);
    root.write_file(path_ + "/mmd.0", mmd);
  }

  if (config_.profiling) {
    Json profile{JsonObject{}};
    profile["engine"] = engine_name(config_.engine);
    profile["aggregators"] = num_aggregators_;
    profile["ranks"] = nranks_;
    profile["steps"] = steps_written_;
    profile["async_write"] = config_.async_write;
    if (config_.aggregation != "flat" || config_.topology != "flat") {
      // Gated so flat-on-flat profiling.json stays byte-identical to the
      // pre-topology writer's output.
      profile["aggregation"] = config_.aggregation;
      profile["topology"] = config_.topology;
      profile["nodes"] = mapper_.nodes();
    }
    profile["transport_0"]["memcopy_us"] = totals_.memcopy_us;
    profile["transport_0"]["compress_us"] = totals_.compress_us;
    // Overlapped drain-lane time, kept apart from the critical-path
    // memcopy/compress numbers (zero without async_write).
    profile["transport_0"]["drain_us"] = totals_.drain_us;
    // Per-chunk CRC32C cost (format v5 end-to-end integrity).
    profile["transport_0"]["crc_us"] = totals_.crc_us;
    profile["transport_0"]["raw_bytes"] = totals_.raw_bytes;
    profile["transport_0"]["stored_bytes"] = totals_.stored_bytes;
    if (config_.io_batch_depth > 0) {
      // Gated so per-op containers keep the legacy profiling.json.
      profile["transport_0"]["io_batch_depth"] = config_.io_batch_depth;
      profile["transport_0"]["coalesce_writes"] = config_.coalesce_writes;
    }
    if (totals_.zero_copy_chunks > 0) {
      // Fig 8 extension: copies per path.  Gated so staged-only containers
      // keep the legacy profile byte-for-byte.
      profile["transport_0"]["zero_copy_chunks"] = totals_.zero_copy_chunks;
      profile["transport_0"]["stage_copies"] = stage_copies_total_;
    }
    if (config_.drain_timeout_ms > 0) {
      const WatchdogStats wd = watchdog_stats();
      profile["transport_0"]["drain_timeouts"] = wd.timeouts;
      profile["transport_0"]["drain_retries"] = wd.retries;
      profile["transport_0"]["steps_abandoned"] = wd.steps_abandoned;
    }
    const std::string text = profile.dump(2);
    root.write_file(path_ + "/profiling.json",
                    std::span<const std::uint8_t>(
                        reinterpret_cast<const std::uint8_t*>(text.data()),
                        text.size()));
  }

  for (std::size_t a = 0; a < data_fds_.size(); ++a) {
    fsim::FsClient client(fs_, fsim::ClientId(leader_of(int(a))));
    client.fsync(data_fds_[a]);
    client.close(data_fds_[a]);
  }
  root.close(md_fd_);
  root.close(idx_fd_);
  // Surface the first drain failure to the caller, after the container has
  // been closed out (the md.idx count still reflects only drained steps).
  // The drain worker has been joined, but the error slot is drain-lock
  // state like any other — read it under its lock rather than relying on
  // the join's happens-before alone.
  util::MutexLock dlock(drain_mutex_);
  if (drain_error_) std::rethrow_exception(drain_error_);
}

}  // namespace bitio::bp
