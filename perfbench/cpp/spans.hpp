#pragma once
// In-memory span recorder for the traced benchmark run.
//
// A span is one call (or one aggregated loop of calls) from the benchmark
// into a bitio module: name "<layer>.<call>", start, end, calling thread and
// the span that caused it.  Spans stay in memory until the run ends, when
// they are reduced to per-layer self time (span minus the union of its
// children) and written out as Chrome trace-event JSON, which Perfetto and
// chrome://tracing open.
//
// Tracing is off unless Tracer::set_enabled(true) was called: a Scope then
// costs one load and one branch, so the untraced measurements run the same
// binary.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perf {

struct Span {
  const char* name = "";  // "<layer>.<call>"; string literals only
  double start_s = 0.0;   // seconds since the tracer was enabled
  double end_s = 0.0;
  int parent = -1;        // index of the causing span; -1 at top level
  int thread = 0;         // small per-thread id, 0 = first thread seen
  std::uint64_t calls = 1;  // calls aggregated into this span

  double duration_s() const { return end_s - start_s; }
};

/// Total and self seconds, and calls, of every span with one name.
struct SpanTotal {
  double total_s = 0.0;
  double self_s = 0.0;
  std::uint64_t calls = 0;
};

class Tracer {
 public:
  /// The process-wide recorder, on or off.
  static Tracer& instance();
  /// The recorder while tracing is on, else nullptr.
  static Tracer* active();
  /// Start or stop recording.  Spans recorded while on are kept across an
  /// off period; a span open when recording stops still gets its end time.
  static void set_enabled(bool on);

  /// Open a span under the calling thread's innermost open span (or under
  /// the thread's adopted parent).  Returns its id.
  int begin(const char* name, std::uint64_t calls);
  void end(int id);
  /// Replace a span's call count once the count is known (records parsed,
  /// chunks verified).
  void set_calls(int id, std::uint64_t calls);

  /// Make `parent` the parent of the calling thread's top-level spans: a
  /// rank thread started inside a span of the launching thread.
  static void adopt_parent(int parent);

  double now_s() const;

  /// Snapshot of every span recorded so far (call after worker threads
  /// joined).
  std::vector<Span> spans() const;

  /// Per-name totals over every span recorded.
  std::map<std::string, SpanTotal> totals() const;

  /// How much of the traced windows the layer spans cover, over every
  /// thread whose extent is known: on the calling thread the windows
  /// themselves, on a thread that adopted a parent span the parent's
  /// extent.  Returns {covered seconds, window seconds}.  Threads that
  /// adopted no parent, such as library worker threads, are left out:
  /// their idle time is unknown.
  std::pair<double, double> coverage(
      const std::vector<std::pair<double, double>>& windows) const;

  /// Id of the calling thread as recorded in Span::thread.
  static int thread_id();

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  bool write_chrome_json(const std::string& path) const;

 private:
  Tracer();
  /// Self time of every span: duration minus the union of its children.
  std::vector<double> self_times() const;

  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// RAII span: records nothing while tracing is off.
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t calls = 1)
      : tracer_(Tracer::active()),
        id_(tracer_ ? tracer_->begin(name, calls) : -1) {}
  ~Scope() {
    if (tracer_) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void set_calls(std::uint64_t calls) {
    if (tracer_) tracer_->set_calls(id_, calls);
  }
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Layer of a span name: the text before the first '.'.
std::string layer_of(const std::string& span_name);

}  // namespace perf
