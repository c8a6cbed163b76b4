#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::record(const SpanRecord& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  spans_.shrink_to_fit();
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t parent, std::uint64_t request,
                       bool is_phase)
    : active_(Tracer::get().enabled()), is_phase_(is_phase) {
  if (!active_) return;
  Tracer& t = Tracer::get();
  rec_.name = name;
  rec_.id = t.new_id();
  rec_.parent = parent;
  rec_.request = request;
  if (is_phase_) {
    prev_phase_ = t.phase();
    t.set_phase(rec_.id);
  }
  rec_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  rec_.end_ns = now_ns();
  Tracer& t = Tracer::get();
  if (is_phase_) t.set_phase(prev_phase_);
  t.record(rec_);
}

std::vector<LayerTime> self_times(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> kids;
  for (const SpanRecord& s : spans)
    if (s.parent != 0) kids[s.parent].emplace_back(s.start_ns, s.end_ns);
  std::map<std::string, LayerTime> by_name;
  for (const SpanRecord& s : spans) {
    const std::int64_t dur = s.end_ns - s.start_ns;
    std::int64_t covered = 0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_lo = 0, cur_hi = -1;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    LayerTime& lt = by_name[s.name];
    lt.name = s.name;
    ++lt.count;
    lt.total_s += dur * 1e-9;
    lt.self_s += (dur - covered) * 1e-9;
  }
  std::vector<LayerTime> out;
  for (auto& [name, lt] : by_name) out.push_back(lt);
  return out;
}

bool write_spans_csv(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "name,id,parent,request,start_us,end_us\n");
  for (const SpanRecord& s : spans)
    std::fprintf(f, "%s,%llu,%llu,%llu,%.3f,%.3f\n", s.name,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.start_ns * 1e-3,
                 s.end_ns * 1e-3);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
