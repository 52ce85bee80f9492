#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>

namespace perf {

namespace {

std::atomic<Tracer*> g_tracer{nullptr};
std::atomic<int> g_next_thread{0};

struct ThreadState {
  int id = g_next_thread.fetch_add(1);
  int adopted_parent = -1;
  std::vector<int> open;  // ids of the spans open on this thread
};
thread_local ThreadState t_state;

/// Length of the union of [start, end) intervals.
double union_length(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0, cur_start = 0.0, cur_end = -1.0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (open && start <= cur_end) {
      cur_end = std::max(cur_end, end);
      continue;
    }
    if (open) total += cur_end - cur_start;
    cur_start = start;
    cur_end = end;
    open = true;
  }
  if (open) total += cur_end - cur_start;
  return total;
}

}  // namespace

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

Tracer& Tracer::instance() {
  // Lives until the process exits: a Scope opened while recording was on
  // keeps the pointer after it is switched off.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer* Tracer::active() {
  return g_tracer.load(std::memory_order_acquire);
}

void Tracer::set_enabled(bool on) {
  g_tracer.store(on ? &instance() : nullptr, std::memory_order_release);
}

double Tracer::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int Tracer::thread_id() { return t_state.id; }

void Tracer::adopt_parent(int parent) { t_state.adopted_parent = parent; }

int Tracer::begin(const char* name, std::uint64_t calls) {
  Span span;
  span.name = name;
  span.parent =
      t_state.open.empty() ? t_state.adopted_parent : t_state.open.back();
  span.thread = t_state.id;
  span.calls = calls;
  int id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = int(spans_.size());
    span.start_s = now_s();
    spans_.push_back(span);
  }
  t_state.open.push_back(id);
  return id;
}

void Tracer::end(int id) {
  const double end = now_s();
  if (!t_state.open.empty() && t_state.open.back() == id)
    t_state.open.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[std::size_t(id)].end_s = end;
}

void Tracer::set_calls(int id, std::uint64_t calls) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[std::size_t(id)].calls = calls;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> Tracer::self_times() const {
  const auto all = spans();
  std::vector<std::vector<std::pair<double, double>>> children(all.size());
  for (const auto& span : all) {
    if (span.parent < 0) continue;
    const Span& parent = all[std::size_t(span.parent)];
    const double start = std::max(span.start_s, parent.start_s);
    const double end = std::min(span.end_s, parent.end_s);
    if (end > start) children[std::size_t(span.parent)].push_back({start, end});
  }
  std::vector<double> self(all.size(), 0.0);
  for (std::size_t i = 0; i < all.size(); ++i)
    self[i] = all[i].duration_s() - union_length(std::move(children[i]));
  return self;
}

std::map<std::string, SpanTotal> Tracer::totals() const {
  const auto all = spans();
  const auto self = self_times();
  std::map<std::string, SpanTotal> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    SpanTotal& t = out[all[i].name];
    t.total_s += all[i].duration_s();
    t.self_s += self[i];
    t.calls += all[i].calls;
  }
  return out;
}

std::pair<double, double> Tracer::coverage(
    const std::vector<std::pair<double, double>>& windows) const {
  const auto all = spans();
  const int self_thread = thread_id();
  // Windows per thread, and the top-level spans of each thread (a span
  // whose parent runs on another thread is top-level on its own).
  std::map<int, std::vector<std::pair<double, double>>> window_of, top_of;
  window_of[self_thread] = windows;
  for (const auto& span : all) {
    const bool top = span.parent < 0 ||
                     all[std::size_t(span.parent)].thread != span.thread;
    if (!top) continue;
    top_of[span.thread].push_back({span.start_s, span.end_s});
    if (span.parent >= 0) {
      const Span& parent = all[std::size_t(span.parent)];
      window_of[span.thread].push_back({parent.start_s, parent.end_s});
    }
  }
  double covered = 0.0, total = 0.0;
  for (auto& [thread, thread_windows] : window_of) {
    std::sort(thread_windows.begin(), thread_windows.end());
    thread_windows.erase(
        std::unique(thread_windows.begin(), thread_windows.end()),
        thread_windows.end());
    for (const auto& [from, to] : thread_windows) {
      std::vector<std::pair<double, double>> inside;
      for (const auto& [start, end] : top_of[thread]) {
        const double a = std::max(start, from), b = std::min(end, to);
        if (b > a) inside.push_back({a, b});
      }
      covered += union_length(std::move(inside));
      total += to - from;
    }
  }
  return {covered, total};
}

bool Tracer::write_chrome_json(const std::string& path) const {
  const auto all = spans();
  const auto self = self_times();
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> out(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!out) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", out.get());
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(out.get(),
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"calls\":%llu,\"self_us\":%.3f}}",
                 i == 0 ? "" : ",", s.name, layer_of(s.name).c_str(),
                 s.thread, s.start_s * 1e6, s.duration_s() * 1e6, i,
                 s.parent, static_cast<unsigned long long>(s.calls),
                 self[i] * 1e6);
  }
  std::fputs("\n]}\n", out.get());
  return std::ferror(out.get()) == 0;
}

std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

}  // namespace perf
