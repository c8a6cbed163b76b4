// Per-layer metrics of the traced run. Layers the end-to-end phases cannot
// isolate (gf kernel, compiled schedule, Codec batch) are timed here by
// calling their public functions on the workload's own geometry and masks;
// the rest are derived from what the traced pass counted.
#pragma once

#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  // 0: a count or ratio, not a sampled timing
};

/// p in (0, 1]; nearest-rank on a copy. 0 when empty.
double percentile(std::vector<double> v, double p);
double median(const std::vector<double>& v);

/// Every timed end-to-end metric is taken per slice of the run and the run
/// reports the quartile of its slices toward better. A slice is one pass of
/// encode_file, decode_file or rebuild_device, one time window of the request
/// loop, or one window of consecutive completions. The host this runs on
/// stalls for stretches of a second to many seconds (its other tenants); a
/// stall makes some slices slower and leaves the others alone, so the better
/// quartile follows the program, while a change to the program moves every
/// slice.
double upper_quartile(const std::vector<double>& v);

/// Latency samples in completion order, cut into consecutive windows of
/// `window` samples (one window when fewer than two fit): the lower quartile
/// over windows of each window's p-th percentile.
double windowed_percentile(const std::vector<double>& v, double p, std::size_t window);

/// The end-to-end metrics of one pass, in BENCHMARK.json order.
std::vector<Metric> end_to_end(const RunResult& r);

/// True when a larger value of end-to-end metric `name` is better.
bool higher_is_better(const std::string& name);

/// Every per-layer metric: probes on `spec`'s geometry plus the traced
/// pass's counters, and trace.overhead_pct.<metric> of `traced` against
/// `untraced`.
std::vector<Metric> per_layer(const Spec& spec, std::uint64_t seed, const RunResult& traced,
                              const std::vector<Metric>& traced_e2e,
                              const std::vector<Metric>& untraced_e2e);

/// The waterfall from region kernel to served write, over the same stripe
/// bytes, each row with its fraction of the row above.
std::vector<std::string> waterfall(const std::vector<Metric>& layer,
                                   const std::vector<Metric>& traced_e2e,
                                   const RunResult& traced);

}  // namespace perfbench
