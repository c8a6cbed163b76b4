// The three workloads and the phases they run over the public API
// (IoPipeline, StorageNode, Scrubber, Codec).
//
// Every workload reports every end-to-end metric, so each runs the same
// phase script over its own store; what differs is the input (symbol size,
// store size, damage, request mix) and where the run's time goes:
//
//   setup    Codec construction (with the autotune probe), encode_file of
//            the input into the store, StorageNode start — repeated, timed
//   encode   encode_file of the whole file, repeated (ingest also decodes
//            the store back after each encode and byte-compares it)
//   rebuild  Scrubber::rebuild_device of one device, byte-compared with its
//            pre-damage copy
//   requests closed loop over a StorageNode: one generator thread, at most
//            `outstanding` requests in flight over 2 tenants, point reads of
//            4-64 KiB (serve mixes in 5% whole-stripe writes), every read
//            byte-compared; ingest and degraded then run a write-only loop
//   decode   decode_file of the whole store, byte-compared with the shadow
//            (the generated file plus every acknowledged write)
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "stair/scrub_repair.h"
#include "stair/stair_config.h"

namespace perfbench {

struct Spec {
  const char* name;
  std::size_t symbol_bytes;
  std::size_t stripes;
  bool damaged;
  bool mixed;  // the read loop carries 5% writes (else a write-only loop follows)
  // Shares of the measured seconds per phase.
  double encode, rebuild, requests, writes, decode;
};

/// The benchmark's code: STAIR(n=8, r=16, m=2, e=(1,2)) over GF(2^8).
stair::StairConfig bench_config();
const Spec* find_spec(const std::string& name);

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;           // timing engine + spans
  std::size_t outstanding = 4;   // closed-loop window
  std::size_t max_requests = 0;  // > 0: stop after this many requests
  std::size_t setup_reps = 5;
  std::size_t stripes = 0;       // > 0: override the spec's store size
  bool requests_only = false;    // setup + requests (the self-test)
};

/// What one pass measured: end-to-end samples, oracle counts, and the
/// layer counters the traced run reports.
struct RunResult {
  // End-to-end samples.
  std::vector<double> setup_s, encode_mbps, decode_mbps, rebuild_mbps;
  std::vector<double> read_ms, write_ms;  // in completion order
  std::vector<double> rps_windows;  // completed requests/s per time window
  double space_amplification = 0.0;
  double peak_rss_mb = 0.0;

  // Oracle.
  std::uint64_t attempted = 0, failed = 0, mismatched = 0;

  // Fingerprint.
  std::string io_backend;
  std::string store_fs;
  std::uint64_t direct_opens = 0, direct_fallbacks = 0;
  std::uint64_t reads_done = 0, writes_done = 0;
  std::uint64_t two_stripe_reads = 0, damaged_stripe_reads = 0, degraded_reads = 0;

  // Layers.
  std::size_t stripe_data = 0, device_bytes = 0;
  std::uint64_t codec_jobs = 0, plan_hits = 0, plan_misses = 0;
  std::size_t distinct_masks = 0;
  std::uint64_t inversions = 0, degraded_stripes_served = 0;
  std::uint64_t loop_requests = 0;  // completed in the main request loop
  std::uint64_t decode_bytes_read = 0, decode_user_bytes = 0;
  std::vector<double> queue_ms, service_ms;
  std::uint64_t node_reads = 0, node_degraded_reads = 0, node_batched_reads = 0;
  std::uint64_t manifest_bytes = 0;
  std::vector<double> manifest_save_ms;
  std::uint64_t request_phase_reads = 0, request_phase_opens = 0;
  std::uint64_t request_phase_read_bytes = 0, served_read_bytes = 0;
  stair::ScrubReport last_rebuild;
  std::vector<std::vector<bool>> masks;  // distinct damage masks (probe input)
  std::size_t lost_device = 0;
  // Timing engine summary (traced only).
  std::vector<std::int64_t> io_read_ns, io_write_ns;
  double io_busy_s = 0.0, io_inflight_mean = 0.0;

  std::vector<std::string> errors;  // first few failures, for the log
};

/// Runs one pass of `spec` in `work` (a scratch directory it owns). The
/// input file is generated once per directory and reused by later passes.
RunResult run_workload(const Spec& spec, const RunOptions& options,
                       const std::filesystem::path& work);

}  // namespace perfbench
