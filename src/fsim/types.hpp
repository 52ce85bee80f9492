#pragma once
// Shared vocabulary types for the storage simulator.

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace bitio::fsim {

using FileId = std::uint64_t;
using ClientId = std::uint32_t;

inline constexpr FileId kNoFile = ~FileId(0);

/// Lustre-style striping parameters.  `lfs setstripe -c <count> -S <size>`.
struct StripeSettings {
  int stripe_count = 1;                    // -c; number of OSTs per file
  std::uint64_t stripe_size = 1 << 20;     // -S; bytes per stripe
};

/// Resolved layout of one file, as `lfs getstripe` reports it.
struct StripeLayout {
  StripeSettings settings;
  int stripe_offset = 0;           // first OST index (lmm_stripe_offset)
  std::vector<int> ost_indices;    // obdidx list, RAID0 round-robin order
  std::vector<std::uint64_t> object_ids;  // objid per OST object
  std::string pattern = "raid0";
};

/// Kinds of operation in an I/O trace.  `create` implies `open`.
enum class OpKind : std::uint8_t {
  create,   // metadata: allocate file + objects
  open,     // metadata: lookup
  close,    // metadata: size/commit update
  fsync,    // metadata: commit
  stat,     // metadata: attribute read
  unlink,   // metadata: remove
  mkdir,    // metadata: directory create
  rename,   // metadata: atomic namespace swap (manifest commit)
  write,    // data transfer to OSTs
  read,     // data transfer from OSTs
  xfer,     // rank-to-rank gather transfer (shm in-node, NIC across nodes)
  cpu,      // client-local compute charged by upper layers (compress, copy)
  batch_write,  // queue-pair submission: op_count sqes in one ring doorbell
};

/// Subcategory of a trace record.  Cpu records name what the client spent
/// its time on (`cpu_by_tag` keys, Darshan job counters); xfer records name
/// the gather level; the first batch_write record of a submit() carries the
/// doorbell.  Every other record is untagged.  tag_name() is the exhaustive
/// enumerator -> name mapping (a new enumerator without a case fails the
/// strict build's -Wswitch).
enum class OpTag : std::uint8_t {
  none,
  // OpKind::cpu
  compress,
  memcopy,
  crc32c,
  decompress,
  backoff,        // checkpoint retry wait (resil::CheckpointManager)
  recovery,       // shrink-restart / ladder step-up (Darshan recoveries)
  degrade,        // I/O ladder step-down (Darshan degradations)
  delta_commit,   // delta checkpoint epoch (Darshan delta_epochs)
  dedup,          // bytes skipped by referencing a base epoch
  restore_chain,  // delta-chain restore (Darshan blocks_restored)
  fault,          // harness-level fault marker (FsClient::note_fault)
  compute,        // modeled application compute (bench programs)
  // OpKind::xfer
  shm_gather,
  net_gather,
  // OpKind::batch_write
  doorbell,  // keep last: kOpTagCount counts up to it
};

/// Number of OpTag enumerators (for per-tag tables).
inline constexpr std::size_t kOpTagCount = std::size_t(OpTag::doorbell) + 1;

inline const char* tag_name(OpTag tag) {
  switch (tag) {
    case OpTag::none: return "";
    case OpTag::compress: return "compress";
    case OpTag::memcopy: return "memcopy";
    case OpTag::crc32c: return "crc32c";
    case OpTag::decompress: return "decompress";
    case OpTag::backoff: return "backoff";
    case OpTag::recovery: return "recovery";
    case OpTag::degrade: return "degrade";
    case OpTag::delta_commit: return "delta_commit";
    case OpTag::dedup: return "dedup";
    case OpTag::restore_chain: return "restore_chain";
    case OpTag::fault: return "fault";
    case OpTag::compute: return "compute";
    case OpTag::shm_gather: return "shm_gather";
    case OpTag::net_gather: return "net_gather";
    case OpTag::doorbell: return "doorbell";
  }
  return "?";
}

/// Tags carried by OpKind::xfer records, naming the gather level of the
/// two-level aggregation path.  The recording site (bp::Writer via
/// FsClient::transfer) picks the tag from the topo::Mapper placement; the
/// timing replay selects the modeled channel from it and Darshan capture
/// buckets the per-level gather counters by it.
inline constexpr OpTag kShmGatherTag = OpTag::shm_gather;
inline constexpr OpTag kNetGatherTag = OpTag::net_gather;

/// Tag carried by the first OpKind::batch_write record of each
/// SubmissionQueue::submit() call (the ring doorbell).  The timing replay
/// charges SystemProfile::batch_setup_s only on doorbell-tagged records, so
/// the setup cost is amortized over the whole batch while every record pays
/// the tiny per-sqe charge; Darshan capture counts doorbells as
/// batches_submitted and uses them to delimit the ops-per-batch histogram.
inline constexpr OpTag kBatchDoorbellTag = OpTag::doorbell;

/// How the timing replay and Darshan capture bucket an operation: against
/// the metadata server, as a data transfer to/from the OSTs, or as
/// client-local compute.  service_class() is the exhaustive mapping —
/// tools/lint_invariants checks that every OpKind enumerator has a case
/// here, in op_name(), and in the Darshan capture switch, so a new kind
/// cannot silently fall into a catch-all bucket.
enum class ServiceClass : std::uint8_t { meta, data, net, cpu };

inline ServiceClass service_class(OpKind kind) {
  switch (kind) {
    case OpKind::create: return ServiceClass::meta;
    case OpKind::open: return ServiceClass::meta;
    case OpKind::close: return ServiceClass::meta;
    case OpKind::fsync: return ServiceClass::meta;
    case OpKind::stat: return ServiceClass::meta;
    case OpKind::unlink: return ServiceClass::meta;
    case OpKind::mkdir: return ServiceClass::meta;
    case OpKind::rename: return ServiceClass::meta;
    case OpKind::write: return ServiceClass::data;
    case OpKind::read: return ServiceClass::data;
    case OpKind::xfer: return ServiceClass::net;
    case OpKind::cpu: return ServiceClass::cpu;
    case OpKind::batch_write: return ServiceClass::data;
  }
  return ServiceClass::meta;
}

inline bool is_meta(OpKind kind) {
  return service_class(kind) == ServiceClass::meta;
}

inline const char* op_name(OpKind kind) {
  switch (kind) {
    case OpKind::create: return "create";
    case OpKind::open: return "open";
    case OpKind::close: return "close";
    case OpKind::fsync: return "fsync";
    case OpKind::stat: return "stat";
    case OpKind::unlink: return "unlink";
    case OpKind::mkdir: return "mkdir";
    case OpKind::rename: return "rename";
    case OpKind::write: return "write";
    case OpKind::read: return "read";
    case OpKind::xfer: return "xfer";
    case OpKind::cpu: return "cpu";
    case OpKind::batch_write: return "batch_write";
  }
  return "?";
}

/// Kinds of fault the resilience layer can inject at the FsClient boundary
/// (see fsim::FaultPlan).  Tagged on the TraceOp of the affected operation
/// so Darshan capture and timing replay can attribute every injection.
enum class FaultKind : std::uint8_t {
  none = 0,
  torn_write,   // only a prefix of the extent was persisted
  bit_flip,     // one bit inside the persisted extent was flipped
  eio,          // transient I/O error: the call throws, nothing persisted
  enospc,       // transient out-of-space: the call throws, nothing persisted
  rank_crash,   // the rank dies at a configured step (harness-level)
  stall,        // the write wedges until SharedFs::cancel_stalls() aborts it
};

inline const char* fault_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::none: return "none";
    case FaultKind::torn_write: return "torn_write";
    case FaultKind::bit_flip: return "bit_flip";
    case FaultKind::eio: return "eio";
    case FaultKind::enospc: return "enospc";
    case FaultKind::rank_crash: return "rank_crash";
    case FaultKind::stall: return "stall";
  }
  return "?";
}

/// One record of a client I/O trace.  Consecutive sequential writes by the
/// same client to the same descriptor are coalesced into a single record
/// with op_count > 1 so huge runs stay tractable; the timing model charges
/// per-op overhead `op_count` times.  A paper-scale window records millions
/// of these, so the record is kept trivially copyable and at most 56 bytes
/// (fields ordered by alignment; build one with designated initializers).
struct TraceOp {
  ClientId client = 0;
  OpKind kind = OpKind::open;
  OpTag tag = OpTag::none;
  // Logical execution lane within the client.  Lane 0 is the rank's
  // critical path; lanes > 0 are overlapped drain lanes (BP5 AsyncWrite):
  // their ops replay concurrently with lane 0 and are attributed to
  // ClientTimes::drain instead of meta/write/read.
  std::uint16_t lane = 0;
  FileId file = kNoFile;
  std::uint64_t offset = 0;      // starting byte offset (write/read)
  std::uint64_t bytes = 0;       // total bytes (write/read)
  double cpu_seconds = 0.0;      // only for OpKind::cpu
  std::uint32_t op_count = 1;    // number of coalesced calls
  // Remote endpoint of an OpKind::xfer gather transfer — the *sending*
  // rank (the receiver records the op so the fan-in gates its later trace
  // ops); unused by every other kind.  The replay derives the remote node
  // / NIC from it.
  ClientId peer = 0;
  // Fault injected into this operation, if any.  For torn writes `bytes`
  // is the *persisted* prefix; for eio/enospc the write threw and `bytes`
  // is 0.  Faulted ops are never coalesced.
  FaultKind fault = FaultKind::none;
};

static_assert(sizeof(TraceOp) <= 56, "one TraceOp per traced call");
static_assert(std::is_trivially_copyable_v<TraceOp>);

}  // namespace bitio::fsim
