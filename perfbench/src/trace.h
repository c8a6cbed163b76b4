// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own files only: around each call into a layer (phase spans,
// request spans from the load generator) and around every IO transfer (the
// timing io::Engine decorator). They stay in memory and are written out
// when the run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

std::int64_t now_ns();

struct SpanRecord {
  const char* name = "";     // static string
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t request = 0; // shared by the spans of one request (0 = none)
  std::int64_t start_ns = 0, end_ns = 0;
};

class Tracer {
 public:
  static Tracer& get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  std::uint64_t new_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void record(const SpanRecord& span);

  /// The span IO transfers parent to: the phase the benchmark is in. IO
  /// completions run on engine and pool threads, so the parent is carried
  /// here rather than in thread-local state.
  std::uint64_t phase() const { return phase_.load(std::memory_order_relaxed); }
  void set_phase(std::uint64_t id) { phase_.store(id, std::memory_order_relaxed); }

  std::vector<SpanRecord> spans() const;
  void clear();

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> phase_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// Records one span over its lifetime when tracing is on. A phase span also
/// becomes the parent of the IO spans issued while it is open.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::uint64_t parent, std::uint64_t request = 0,
             bool is_phase = false);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return rec_.id; }

 private:
  SpanRecord rec_;
  bool active_;
  bool is_phase_;
  std::uint64_t prev_phase_ = 0;
};

/// Per span name: count, summed duration, and self time (duration minus the
/// part of the span's interval its child spans cover).
struct LayerTime {
  std::string name;
  std::uint64_t count = 0;
  double total_s = 0.0, self_s = 0.0;
};
std::vector<LayerTime> self_times(const std::vector<SpanRecord>& spans);

/// Writes spans as CSV (name,id,parent,request,start_us,end_us).
bool write_spans_csv(const std::string& path, const std::vector<SpanRecord>& spans);

}  // namespace perfbench
