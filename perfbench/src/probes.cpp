#include "probes.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "content.h"
#include "gf/gf.h"
#include "gf/region.h"
#include "stair/codec.h"
#include "stair/stair_code.h"
#include "trace.h"

namespace perfbench {

namespace {

constexpr double kMiB = 1048576.0;
constexpr double kProbeSeconds = 0.25;
// Latency windows: 100 reads beyond each window's p95, 10 writes beyond its
// p90.
constexpr std::size_t kReadWindow = 2000;
constexpr std::size_t kWriteWindow = 100;

double value_of(const std::vector<Metric>& v, const std::string& name) {
  for (const Metric& m : v)
    if (m.name == name) return m.value;
  return 0.0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Runs `batch` (which processes `bytes` per call) for kProbeSeconds in five
/// slices and returns the median slice rate in MiB/s.
template <typename F>
double rate_mbps(double bytes, F&& batch) {
  std::vector<double> rates;
  for (int slice = 0; slice < 5; ++slice) {
    const std::int64_t t0 = now_ns();
    std::size_t calls = 0;
    do {
      batch();
      ++calls;
    } while ((now_ns() - t0) * 1e-9 < kProbeSeconds / 5);
    rates.push_back(calls * bytes / kMiB / ((now_ns() - t0) * 1e-9));
  }
  return median(rates);
}

void fill_stripe(stair::StripeBuffer& buf, std::uint64_t seed, std::size_t index) {
  std::vector<std::uint8_t> data(buf.data_size());
  fill_stripe_bytes(seed, index, 0, 0, data);
  buf.set_data(data);
}

/// The erased data symbols a point read of four symbols would want.
std::vector<std::size_t> wanted_symbols(const stair::StairCode& code,
                                        const std::vector<bool>& mask) {
  const stair::StairConfig& cfg = code.config();
  std::vector<std::size_t> wanted;
  for (std::size_t i = 0; i < cfg.r && wanted.size() < 4; ++i)
    for (std::size_t j = 0; j < cfg.n && wanted.size() < 4; ++j)
      if (mask[i * cfg.n + j] && code.layout().is_data(i, j))
        wanted.push_back(code.layout().stored_index(i, j));
  return wanted;
}

}  // namespace

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(std::ceil(p * v.size()));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double upper_quartile(const std::vector<double>& v) { return percentile(v, 0.75); }

double windowed_percentile(const std::vector<double>& v, double p, std::size_t window) {
  const std::size_t windows = std::max<std::size_t>(1, v.size() / window);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto lo = v.begin() + static_cast<std::ptrdiff_t>(w * v.size() / windows);
    const auto hi = v.begin() + static_cast<std::ptrdiff_t>((w + 1) * v.size() / windows);
    if (lo != hi) per_window.push_back(percentile(std::vector<double>(lo, hi), p));
  }
  return percentile(per_window, 0.25);
}

std::vector<Metric> end_to_end(const RunResult& r) {
  return {
      {"encode_MBps", upper_quartile(r.encode_mbps), "MB/s", r.encode_mbps.size()},
      {"decode_MBps", upper_quartile(r.decode_mbps), "MB/s", r.decode_mbps.size()},
      {"rebuild_MBps", upper_quartile(r.rebuild_mbps), "MB/s", r.rebuild_mbps.size()},
      {"throughput_rps", upper_quartile(r.rps_windows), "1/s", r.read_ms.size() + r.write_ms.size()},
      {"read_p50_ms", windowed_percentile(r.read_ms, 0.50, kReadWindow), "ms", r.read_ms.size()},
      {"read_p95_ms", windowed_percentile(r.read_ms, 0.95, kReadWindow), "ms", r.read_ms.size()},
      {"write_p50_ms", windowed_percentile(r.write_ms, 0.50, kWriteWindow), "ms", r.write_ms.size()},
      {"write_p90_ms", windowed_percentile(r.write_ms, 0.90, kWriteWindow), "ms", r.write_ms.size()},
      {"space_amplification", r.space_amplification, "ratio", 0},
      {"setup_s", median(r.setup_s), "s", r.setup_s.size()},
      {"peak_rss_MB", r.peak_rss_mb, "MB", 0},
  };
}

bool higher_is_better(const std::string& name) {
  return name == "encode_MBps" || name == "decode_MBps" || name == "rebuild_MBps" ||
         name == "throughput_rps";
}

std::vector<Metric> per_layer(const Spec& spec, std::uint64_t seed, const RunResult& t,
                              const std::vector<Metric>& traced_e2e,
                              const std::vector<Metric>& untraced_e2e) {
  std::vector<Metric> out;
  auto add = [&](const char* name, double value, const char* unit, std::size_t n = 0) {
    out.push_back({name, value, unit, n});
  };
  const stair::StairCode code(bench_config());
  const std::size_t symbol = spec.symbol_bytes;
  const double stripe_user = static_cast<double>(code.data_symbol_count() * symbol);

  // gf: the region kernel alone, on one symbol-size region.
  {
    const stair::gf::Field& f = stair::gf::field(8);
    std::vector<std::uint8_t> src(symbol), dst(symbol, 0);
    fill_stripe_bytes(seed, 0, 0, 0, src);
    Rng rng(seed);
    std::uint32_t coefs[8];
    for (auto& c : coefs) c = 2 + static_cast<std::uint32_t>(rng.below(254));
    add("gf.mult_xor_MBps", rate_mbps(8.0 * symbol, [&] {
          for (std::uint32_t c : coefs) stair::gf::mult_xor_region(f, c, src, dst);
        }),
        "MB/s", 5);
  }

  // compiled_schedule: serial encode of one in-memory stripe, and the
  // degraded-read slice (build + execute) on the workload's masks.
  stair::StripeBuffer one(code, symbol);
  fill_stripe(one, seed, 0);
  add("compiled_schedule.encode_MBps",
      rate_mbps(stripe_user, [&] { code.encode(one.view()); }), "MB/s", 5);
  add("compiled_schedule.mult_xors_per_stripe",
      static_cast<double>(code.mult_xor_count(code.select_method())), "count");
  {
    code.encode(one.view());
    const std::size_t count = std::min<std::size_t>(t.masks.size(), 64);
    std::size_t calls = 0;
    const std::int64_t t0 = now_ns();
    do {
      for (std::size_t k = 0; k < count; ++k) {
        const std::vector<bool>& mask = t.masks[k];
        auto slice = code.build_degraded_read_schedule(mask, wanted_symbols(code, mask));
        if (slice) code.execute(*slice, one.view());
        ++calls;
      }
    } while ((now_ns() - t0) * 1e-9 < kProbeSeconds);
    add("compiled_schedule.degraded_slice_us",
        calls ? (now_ns() - t0) * 1e-3 / static_cast<double>(calls) : 0.0, "us", calls);
  }

  // matrix: inversions per degraded stripe the request phase served.
  add("matrix.inversions_per_degraded_stripe",
      ratio(static_cast<double>(t.inversions), static_cast<double>(t.degraded_stripes_served)),
      "ratio");

  // codec: a batch of in-memory stripes through submit_encode/submit_decode.
  double batch_encode = 0.0;
  {
    stair::Codec codec(bench_config());
    const std::size_t batch = std::max<std::size_t>(4, (32u << 20) / (code.config().n * code.config().r * symbol));
    std::vector<std::unique_ptr<stair::StripeBuffer>> stripes;
    for (std::size_t i = 0; i < batch; ++i) {
      stripes.push_back(std::make_unique<stair::StripeBuffer>(code, symbol));
      fill_stripe(*stripes.back(), seed, i);
    }
    batch_encode = rate_mbps(stripe_user * batch, [&] {
      for (auto& s : stripes) codec.submit_encode(s->view());
      codec.wait_all();
    });
    add("codec.encode_batch_MBps", batch_encode, "MB/s", 5);
    std::size_t next = 0;
    add("codec.decode_batch_MBps", rate_mbps(stripe_user * batch, [&] {
          for (auto& s : stripes) codec.submit_decode(s->view(), t.masks[next++ % t.masks.size()]);
          codec.wait_all();
        }),
        "MB/s", 5);
  }
  add("codec.jobs", static_cast<double>(t.codec_jobs), "count");

  // plan_cache: the run's session cache.
  add("plan_cache.hits", static_cast<double>(t.plan_hits), "count");
  add("plan_cache.misses", static_cast<double>(t.plan_misses), "count");
  add("plan_cache.hit_ratio",
      ratio(static_cast<double>(t.plan_hits), static_cast<double>(t.plan_hits + t.plan_misses)),
      "ratio");
  add("plan_cache.distinct_masks", static_cast<double>(t.distinct_masks), "count");

  // io_pipeline.
  add("io_pipeline.fraction_of_codec", ratio(value_of(traced_e2e, "encode_MBps"), batch_encode),
      "ratio");
  add("io_pipeline.bytes_read_per_user_byte",
      ratio(static_cast<double>(t.decode_bytes_read), static_cast<double>(t.decode_user_bytes)),
      "ratio");

  // stripe_io: the timing decorator.
  const double requests = static_cast<double>(t.loop_requests);
  std::vector<double> read_us, write_us;
  for (std::int64_t ns : t.io_read_ns) read_us.push_back(ns * 1e-3);
  for (std::int64_t ns : t.io_write_ns) write_us.push_back(ns * 1e-3);
  add("stripe_io.reads_per_request", ratio(static_cast<double>(t.request_phase_reads), requests),
      "ratio");
  add("stripe_io.opens_per_request", ratio(static_cast<double>(t.request_phase_opens), requests),
      "ratio");
  add("stripe_io.read_bytes_per_served_byte",
      ratio(static_cast<double>(t.request_phase_read_bytes), static_cast<double>(t.served_read_bytes)),
      "ratio");
  add("stripe_io.read_p50_us", percentile(read_us, 0.50), "us", read_us.size());
  add("stripe_io.read_p99_us", percentile(read_us, 0.99), "us", read_us.size());
  add("stripe_io.write_p99_us", percentile(write_us, 0.99), "us", write_us.size());
  add("stripe_io.busy_s", t.io_busy_s, "s");
  add("stripe_io.inflight_mean", t.io_inflight_mean, "count");

  // service.
  add("service.queue_ms_p99", percentile(t.queue_ms, 0.99), "ms", t.queue_ms.size());
  add("service.service_ms_p99", percentile(t.service_ms, 0.99), "ms", t.service_ms.size());
  add("service.reads", static_cast<double>(t.node_reads), "count");
  add("service.degraded_reads", static_cast<double>(t.node_degraded_reads), "count");
  add("service.degraded_read_share",
      ratio(static_cast<double>(t.node_degraded_reads), static_cast<double>(t.node_reads)), "ratio");
  add("service.batched_reads", static_cast<double>(t.node_batched_reads), "count");
  add("service.manifest_bytes", static_cast<double>(t.manifest_bytes), "bytes");
  add("service.manifest_save_ms", median(t.manifest_save_ms), "ms", t.manifest_save_ms.size());

  // scrub_repair: the last rebuild of the pass.
  add("scrub_repair.bytes_read_per_rebuilt_byte",
      ratio(static_cast<double>(t.last_rebuild.bytes_read), static_cast<double>(t.device_bytes)),
      "ratio");
  add("scrub_repair.sectors_repaired", static_cast<double>(t.last_rebuild.sectors_repaired), "count");
  add("scrub_repair.throttle_stalls", static_cast<double>(t.last_rebuild.throttle_stalls), "count");

  // trace: how much worse each end-to-end metric read with tracing on.
  for (const Metric& u : untraced_e2e) {
    const double tv = value_of(traced_e2e, u.name);
    const double worse = higher_is_better(u.name) ? u.value - tv : tv - u.value;
    out.push_back({"trace.overhead_pct." + u.name, ratio(worse, u.value) * 100.0, "%", 0});
  }
  return out;
}

std::vector<std::string> waterfall(const std::vector<Metric>& layer,
                                   const std::vector<Metric>& traced_e2e,
                                   const RunResult& t) {
  const stair::StairCode code(bench_config());
  const double data_symbols = static_cast<double>(code.data_symbol_count());
  const double kernel_bound = value_of(layer, "gf.mult_xor_MBps") * data_symbols /
                              value_of(layer, "compiled_schedule.mult_xors_per_stripe");
  const double write_p50_s = value_of(traced_e2e, "write_p50_ms") * 1e-3;
  struct Row {
    const char* layer;
    const char* what;
    double mbps;
  };
  const Row rows[] = {
      {"gf", "mult_xor_region x mult_xors/stripe, 1 core", kernel_bound},
      {"compiled_schedule", "StairCode::encode of 1 stripe, serial",
       value_of(layer, "compiled_schedule.encode_MBps")},
      {"codec", "submit_encode batch, pool", value_of(layer, "codec.encode_batch_MBps")},
      {"io_pipeline", "encode_file, file to store", value_of(traced_e2e, "encode_MBps")},
      {"service", "one whole-stripe write at p50", ratio(t.stripe_data / kMiB, write_p50_s)},
  };
  std::vector<std::string> lines;
  char buf[256];
  std::snprintf(buf, sizeof buf, "%-18s %-44s %10s  %s", "layer", "what (user MB/s of stripe data)",
                "MB/s", "fraction of row above");
  lines.push_back(buf);
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    if (i == 0) {
      std::snprintf(buf, sizeof buf, "%-18s %-44s %10.1f  -", rows[i].layer, rows[i].what, rows[i].mbps);
    } else {
      std::snprintf(buf, sizeof buf, "%-18s %-44s %10.1f  %.3f of %s", rows[i].layer, rows[i].what,
                    rows[i].mbps, ratio(rows[i].mbps, rows[i - 1].mbps), rows[i - 1].layer);
    }
    lines.push_back(buf);
  }
  return lines;
}

}  // namespace perfbench
