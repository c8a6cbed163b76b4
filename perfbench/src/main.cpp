// perfbench — the repository's benchmark harness.
//
//   perfbench --workload ingest|serve|degraded --seed N --seconds S
//             --trace 0|1 --work DIR [--spans FILE]
//   perfbench --selftest --work DIR
//
// --trace 0 measures one untraced pass and reports the end-to-end metrics.
// --trace 1 measures an untraced and a traced pass of S/2 seconds each and
// reports the per-layer metrics, trace.overhead_pct of every end-to-end
// metric, the self time per span name and the layer waterfall. The last
// line of stdout is the result object; the process exits 1 when any output
// was wrong or any operation failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "content.h"
#include "gf/kernel.h"
#include "stair/stair_code.h"
#include "probes.h"
#include "trace.h"
#include "workloads.h"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string work;
  std::string spans;
  bool selftest = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = std::stoi(value());
    else if (k == "--work") a.work = value();
    else if (k == "--spans") a.spans = value();
    else if (k == "--selftest") a.selftest = true;
    else usage(("unknown argument " + k).c_str());
  }
  if (a.work.empty()) usage("--work is required");
  if (!a.selftest && !find_spec(a.workload)) usage("unknown --workload");
  if (!(a.seconds > 0) || (a.trace != 0 && a.trace != 1)) usage("bad --seconds or --trace");
  return a;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + json_number(ms[i].value) + ", \"unit\": \"" +
         ms[i].unit + "\"}";
  }
  return s + "}";
}

void print_metrics(const char* kind, const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    if (m.samples)
      std::printf("%s %-42s %14.6g %-6s samples=%zu\n", kind, m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    else
      std::printf("%s %-42s %14.6g %s\n", kind, m.name.c_str(), m.value, m.unit.c_str());
  }
}

double share(std::uint64_t part, std::uint64_t whole) {
  return whole ? static_cast<double>(part) / static_cast<double>(whole) : 0.0;
}

void print_fingerprint(const Args& a, const RunResult& r) {
  std::printf(
      "fingerprint {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %u, \"gf_backend\": \"%s\", "
      "\"io_backend\": \"%s\", \"store_fs\": \"%s\", \"direct_opens\": %llu, "
      "\"direct_fallbacks\": %llu, \"build_type\": \"%s\", "
      "\"flush_policy\": \"buffered writes, no fsync (Engine::flush waits for completions only)\", "
      "\"two_stripe_read_share\": %.6f, \"damaged_stripe_read_share\": %.6f, "
      "\"degraded_read_share\": %.6f, \"rebuilt_device\": %zu}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed),
      std::thread::hardware_concurrency(),
      stair::gf::backend_name(stair::gf::active_backend()), r.io_backend.c_str(),
      r.store_fs.c_str(), static_cast<unsigned long long>(r.direct_opens),
      static_cast<unsigned long long>(r.direct_fallbacks), PERFBENCH_BUILD_TYPE,
      share(r.two_stripe_reads, r.reads_done), share(r.damaged_stripe_reads, r.reads_done),
      share(r.degraded_reads, r.reads_done), r.lost_device);
  std::printf(
      "note: latency is this host's with the store on %s through the page cache; fsync cost is "
      "not represented.\n",
      r.store_fs.c_str());
}

int selftest(const Args& a) {
  int failures = 0;
  auto check = [&](bool ok, const char* what) {
    std::printf("selftest %-64s %s\n", what, ok ? "ok" : "FAILED");
    if (!ok) ++failures;
  };
  const Spec& spec = *find_spec("degraded");
  const stair::StairConfig cfg = bench_config();
  const std::size_t stripe_data = stair::StairCode(cfg).data_symbol_count() * spec.symbol_bytes;

  {
    OpSequence x(7, spec.stripes, stripe_data, 5), y(7, spec.stripes, stripe_data, 5),
        z(8, spec.stripes, stripe_data, 5);
    bool same = true, differs = false;
    for (int i = 0; i < 20000; ++i) {
      const Op p = x.next(), q = y.next(), o = z.next();
      same = same && p.write == q.write && p.tenant == q.tenant && p.offset == q.offset &&
             p.length == q.length && p.stripe == q.stripe;
      differs = differs || p.offset != o.offset || p.stripe != o.stripe;
    }
    check(same, "same seed gives the same op sequence");
    check(differs, "another seed gives another op sequence");
  }
  {
    const DamagePlan p = make_damage_plan(7, spec.stripes, cfg.n, cfg.r, cfg.m);
    const DamagePlan q = make_damage_plan(7, spec.stripes, cfg.n, cfg.r, cfg.m);
    bool same = p.lost_devices == q.lost_devices && p.sectors.size() == q.sectors.size() &&
                p.sector_damaged == q.sector_damaged;
    for (std::size_t i = 0; same && i < p.sectors.size(); ++i)
      same = p.sectors[i].stripe == q.sectors[i].stripe &&
             p.sectors[i].device == q.sectors[i].device && p.sectors[i].row == q.sectors[i].row;
    check(same, "same seed gives the same damage plan");
    check(p.distinct_masks(spec.stripes, cfg.n, cfg.r).size() > 64,
          "degraded masks outnumber the plan cache's 64 entries");
  }
  {
    RunOptions o;
    o.seed = 7;
    o.outstanding = 1;
    o.max_requests = 300;
    o.setup_reps = 1;
    o.stripes = 128;
    o.requests_only = true;
    o.seconds = 60.0;
    RunResult r[2];
    for (int i = 0; i < 2; ++i) {
      const fs::path dir = fs::path(a.work) / ("selftest" + std::to_string(i));
      fs::remove_all(dir);
      r[i] = run_workload(spec, o, dir);
      fs::remove_all(dir);
    }
    check(r[0].failed == 0 && r[1].failed == 0 && r[0].mismatched == 0 && r[1].mismatched == 0,
          "every request succeeded with the right bytes");
    check(r[0].degraded_stripes_served > 0, "degraded stripes were served");
    check(r[0].distinct_masks == r[1].distinct_masks, "plan_cache.distinct_masks repeats exactly");
    check(r[0].inversions * r[1].degraded_stripes_served ==
              r[1].inversions * r[0].degraded_stripes_served &&
              r[0].degraded_stripes_served == r[1].degraded_stripes_served,
          "matrix.inversions_per_degraded_stripe repeats exactly at 1 outstanding");
    std::printf("selftest distinct_masks=%zu inversions=%llu degraded_stripes=%llu\n",
                r[0].distinct_masks, static_cast<unsigned long long>(r[0].inversions),
                static_cast<unsigned long long>(r[0].degraded_stripes_served));
  }
  std::printf("selftest %s\n", failures ? "FAILED" : "passed");
  return failures ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  try {
    if (a.selftest) return selftest(a);
    const Spec& spec = *find_spec(a.workload);
    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", a.workload.c_str(),
                static_cast<unsigned long long>(a.seed), a.seconds, a.trace);

    RunOptions o;
    o.seed = a.seed;
    o.seconds = a.trace ? a.seconds / 2 : a.seconds;
    const RunResult u = run_workload(spec, o, a.work);
    const std::vector<Metric> ue = end_to_end(u);
    std::uint64_t attempted = u.attempted, failed = u.failed + u.mismatched;
    std::vector<std::string> errors = u.errors;
    std::vector<Metric> reported = ue;
    const RunResult* shown = &u;
    RunResult t;

    if (a.trace) {
      o.traced = true;
      Tracer::get().set_enabled(true);
      t = run_workload(spec, o, a.work);
      Tracer::get().set_enabled(false);
      const std::vector<SpanRecord> spans = Tracer::get().spans();
      if (!a.spans.empty() && !write_spans_csv(a.spans, spans))
        std::printf("warning: could not write spans to %s\n", a.spans.c_str());
      const std::vector<Metric> te = end_to_end(t);
      reported = per_layer(spec, a.seed, t, te, ue);
      attempted += t.attempted;
      failed += t.failed + t.mismatched;
      errors.insert(errors.end(), t.errors.begin(), t.errors.end());
      shown = &t;

      print_metrics("untraced", ue);
      print_metrics("traced", te);
      std::printf("self time per span (%zu spans):\n", spans.size());
      for (const LayerTime& lt : self_times(spans))
        std::printf("  %-16s count=%-8llu total=%9.4f s self=%9.4f s\n", lt.name.c_str(),
                    static_cast<unsigned long long>(lt.count), lt.total_s, lt.self_s);
      std::printf("waterfall (%s):\n", a.workload.c_str());
      for (const std::string& line : waterfall(reported, te, t)) std::printf("  %s\n", line.c_str());
    }

    print_fingerprint(a, *shown);
    print_metrics("metric", reported);
    // Printed but not gated: see NOTES.md, "End-to-end metrics".
    const Metric info[] = {
        {"read_p99_ms", percentile(shown->read_ms, 0.99), "ms", shown->read_ms.size()},
        {"read_p999_ms", percentile(shown->read_ms, 0.999), "ms", shown->read_ms.size()},
        {"write_p99_ms", percentile(shown->write_ms, 0.99), "ms", shown->write_ms.size()},
    };
    print_metrics("info  ", std::vector<Metric>(std::begin(info), std::end(info)));
    std::printf("metric %-42s %14.6g ratio attempted=%llu failed=%llu\n", "error_rate",
                share(failed, attempted), static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (const std::string& e : errors) std::printf("error: %s\n", e.c_str());
    const bool correct = failed == 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), metrics_json(reported).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
