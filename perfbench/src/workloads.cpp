#include "workloads.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "content.h"
#include "matrix/matrix.h"
#include "probes.h"
#include "stair/autotune.h"
#include "stair/codec.h"
#include "stair/io_pipeline.h"
#include "stair/service.h"
#include "timing_engine.h"
#include "trace.h"

namespace fs = std::filesystem;

namespace perfbench {

namespace {

// ingest  64 KiB symbols (8 MiB stripes, larger than a core's 2 MiB L2):
//         encode_file/decode_file of the whole file take half the run, so the
//         gf kernels, compiled schedules, Codec batching and the pipeline's
//         staging and sector hashing carry the work. The store is clean: no
//         decode plan is built outside the one rebuild mask.
// serve   4 KiB symbols (one symbol per sector), a clean 256-stripe store
//         under the mixed 95/5 read/write loop: the scheduler, range lock,
//         sector-granular read_range happy path and the write path (re-encode,
//         n chunk writes, whole-manifest re-save) carry the work. Reads run
//         beside writes, so a write-path gain that costs reads shows up.
// degraded the same geometry, 1024 stripes, two devices lost and sector
//         damage in a quarter of the stripes, read-only loop: the plan cache,
//         matrix inversion, degraded-read slicing and the rebuild are on the
//         critical path, and the distinct masks outnumber the plan cache's 64.
// ingest and degraded measure writes in a write-only loop of their own, so
// their slow whole-stripe writes do not hold the read loop's lanes.
constexpr Spec kSpecs[] = {
    // name, symbol, stripes, damaged, mixed, encode, rebuild, requests, writes, decode
    {"ingest", 64 * 1024, 44, false, false, 0.50, 0.10, 0.25, 0.15, 0.0},
    {"serve", 4 * 1024, 256, false, true, 0.10, 0.10, 0.65, 0.0, 0.15},
    {"degraded", 4 * 1024, 1024, true, false, 0.10, 0.20, 0.35, 0.15, 0.20},
};

constexpr std::size_t kCompareChunk = 4u << 20;
constexpr std::size_t kRounds = 10;

double seconds_since(std::int64_t t0) { return (now_ns() - t0) * 1e-9; }

std::uint64_t size_of(const fs::path& p) {
  std::error_code ec;
  const auto s = fs::file_size(p, ec);
  return ec ? 0 : s;
}

std::string fs_name(const fs::path& p) {
  struct statfs sb{};
  if (::statfs(p.c_str(), &sb) != 0) return "unknown";
  switch (static_cast<unsigned long>(sb.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "fs-0x%lx", static_cast<unsigned long>(sb.f_type));
      return buf;
    }
  }
}

void write_all(int fd, const std::uint8_t* data, std::size_t len, std::uint64_t offset) {
  while (len > 0) {
    const ssize_t n = ::pwrite(fd, data, len, static_cast<off_t>(offset));
    if (n <= 0) throw std::runtime_error("benchmark write failed: " + std::string(std::strerror(errno)));
    data += n;
    len -= static_cast<std::size_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
}

std::size_t read_full(int fd, std::uint8_t* data, std::size_t len, std::uint64_t offset) {
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::pread(fd, data + got, len - got, static_cast<off_t>(offset + got));
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  return got;
}

class Fd {
 public:
  Fd(const fs::path& p, int flags) : fd_(::open(p.c_str(), flags, 0644)) {
    if (fd_ < 0) throw std::runtime_error("benchmark cannot open " + p.string());
  }
  ~Fd() { ::close(fd_); }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  int get() const { return fd_; }

 private:
  int fd_;
};

/// Byte-compares a file with the shadow (generated content at `versions`).
bool file_matches(const fs::path& path, std::uint64_t seed, std::size_t stripe_data,
                  const std::vector<std::uint32_t>& versions, std::uint64_t size) {
  if (size_of(path) != size) return false;
  Fd fd(path, O_RDONLY);
  std::vector<std::uint8_t> got(kCompareChunk), want(kCompareChunk);
  for (std::uint64_t at = 0; at < size; at += kCompareChunk) {
    const std::size_t len = static_cast<std::size_t>(std::min<std::uint64_t>(kCompareChunk, size - at));
    if (read_full(fd.get(), got.data(), len, at) != len) return false;
    fill_file_bytes(seed, stripe_data, versions, at, std::span(want.data(), len));
    if (std::memcmp(got.data(), want.data(), len) != 0) return false;
  }
  return true;
}

bool files_equal(const fs::path& a, const fs::path& b) {
  const std::uint64_t size = size_of(a);
  if (size != size_of(b)) return false;
  Fd fa(a, O_RDONLY), fb(b, O_RDONLY);
  std::vector<std::uint8_t> x(kCompareChunk), y(kCompareChunk);
  for (std::uint64_t at = 0; at < size; at += kCompareChunk) {
    const std::size_t len = static_cast<std::size_t>(std::min<std::uint64_t>(kCompareChunk, size - at));
    if (read_full(fa.get(), x.data(), len, at) != len ||
        read_full(fb.get(), y.data(), len, at) != len ||
        std::memcmp(x.data(), y.data(), len) != 0)
      return false;
  }
  return true;
}

double peak_rss_mb() {
  struct rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void add_engine_stats(RunResult& res, const stair::io::Engine& engine) {
  const stair::io::Engine::Stats s = engine.stats();
  res.direct_opens += s.direct_opens;
  res.direct_fallbacks += s.direct_fallbacks;
  res.io_backend = stair::io::backend_name(engine.backend());
}

/// One pass: owns the store directory and the shadow of the file.
class Pass {
 public:
  Pass(const Spec& spec, const RunOptions& opt, const fs::path& work)
      : spec_(spec),
        opt_(opt),
        cfg_(bench_config()),
        stripes_(opt.stripes ? opt.stripes : spec.stripes),
        input_(work / "input.bin"),
        store_(work / "store"),
        out_(work / "decoded.bin"),
        copy_(work / "device.copy") {
    const stair::StairCode probe_code(cfg_);
    stripe_data_ = probe_code.data_symbol_count() * spec.symbol_bytes;
    file_size_ = std::uint64_t{stripes_} * stripe_data_;
    versions_.assign(stripes_, 0);
    res_.stripe_data = stripe_data_;
    if (opt.traced) {
      timing_ = std::make_unique<TimingEngine>(stair::io::Engine::create(stair::io::Backend::kAuto));
      engine_ = timing_.get();
    }
    if (spec.damaged) {
      plan_ = make_damage_plan(opt.seed, stripes_, cfg_.n, cfg_.r, cfg_.m);
      lost_device_ = plan_.lost_devices[0];
    } else {
      Rng rng(mix64(opt.seed ^ 0x4EB1D));
      lost_device_ = static_cast<std::size_t>(rng.below(cfg_.n - cfg_.m));
      plan_.sector_damaged.assign(stripes_, false);
    }
    res_.lost_device = lost_device_;
  }

  RunResult run() {
    ensure_input();
    for (std::size_t rep = 0; rep < std::max<std::size_t>(1, opt_.setup_reps); ++rep) setup_rep();
    res_.space_amplification = space_amplification();

    stair::Codec codec(cfg_);
    store_meta_ = stair::StripeStore::load(store_.string());
    res_.device_bytes = stripes_ * store_meta_.padded_chunk_bytes();
    copy_device();
    // The phases run in short rounds, so each phase samples the host at ten
    // points of the run: a stall of the host lands on some slices of every
    // phase rather than on the whole of one, and the better quartile over
    // slices (probes.h) follows the program. Each round starts from a freshly
    // encoded store, so no store file outlives a round.
    const std::size_t rounds = opt_.requests_only ? 1 : kRounds;
    for (std::size_t round = 0; round < rounds; ++round) {
      if (!opt_.requests_only) encode_phase(codec);
      if (spec_.damaged) apply_damage();
      if (!opt_.requests_only) rebuild_phase(codec);
      request_phase(codec);
      if (!opt_.requests_only) decode_phase(codec);
    }

    res_.codec_jobs = codec.jobs_submitted();
    res_.plan_hits = codec.plan_cache().hits();
    res_.plan_misses = codec.plan_cache().misses();
    res_.distinct_masks = collect_masks();
    if (opt_.traced) {
      manifest_probe();
      TimingEngine::Summary s = timing_->summary();
      res_.io_read_ns = std::move(s.read_ns);
      res_.io_write_ns = std::move(s.write_ns);
      res_.io_busy_s = s.busy_s;
      res_.io_inflight_mean = s.inflight_mean;
      add_engine_stats(res_, *timing_);
    }
    res_.store_fs = fs_name(store_);
    res_.peak_rss_mb = peak_rss_mb();
    return std::move(res_);
  }

 private:
  stair::IoPipeline::Options pipeline_options() const {
    stair::IoPipeline::Options o;
    o.symbol_bytes = spec_.symbol_bytes;
    o.engine = engine_;
    return o;
  }

  stair::StorageNode::Options node_options() const {
    stair::StorageNode::Options o;
    o.io.engine = engine_;
    return o;
  }

  /// End of a phase that takes `share` of one round.
  std::int64_t deadline(double share) const {
    const double rounds = opt_.requests_only ? 1.0 : static_cast<double>(kRounds);
    return now_ns() + static_cast<std::int64_t>(share * opt_.seconds / rounds * 1e9);
  }

  /// The copy the rebuilt device is compared with. Every encode of the input
  /// lays down the same bytes, so one copy serves every round.
  void copy_device() {
    fs::copy_file(device(lost_device_), copy_, fs::copy_options::overwrite_existing);
    Fd fd(copy_, O_RDONLY);
    if (::fdatasync(fd.get()) != 0) throw std::runtime_error("benchmark cannot sync the copy");
  }

  void fail(const std::string& what) {
    ++res_.failed;
    if (res_.errors.size() < 8) res_.errors.push_back(what);
  }

  void mismatch(const std::string& what) {
    ++res_.mismatched;
    if (res_.errors.size() < 8) res_.errors.push_back(what);
  }

  void ensure_input() {
    if (size_of(input_) == file_size_) return;
    fs::create_directories(input_.parent_path());
    Fd fd(input_, O_WRONLY | O_CREAT | O_TRUNC);
    std::vector<std::uint8_t> buf(kCompareChunk);
    for (std::uint64_t at = 0; at < file_size_; at += kCompareChunk) {
      const std::size_t len = static_cast<std::size_t>(std::min<std::uint64_t>(kCompareChunk, file_size_ - at));
      fill_file_bytes(opt_.seed, stripe_data_, versions_, at, std::span(buf.data(), len));
      write_all(fd.get(), buf.data(), len, at);
    }
    // Written back now, before anything is timed, rather than by the
    // kernel's flusher in the middle of a measured phase.
    if (::fdatasync(fd.get()) != 0) throw std::runtime_error("benchmark cannot sync the input");
  }

  /// Set-up as a user pays it: Codec construction with the autotune probe,
  /// encode_file of the input, StorageNode start.
  void setup_rep() {
    ScopedSpan span("phase.setup", 0, 0, true);
    stair::Autotune::instance().reset_for_testing();
    const std::int64_t t0 = now_ns();
    stair::Codec codec(cfg_);
    stair::IoPipeline pipe(codec, pipeline_options());
    remove_store_files();
    const stair::IoPipeline::Stats st = pipe.encode_file(input_.string(), store_.string());
    stair::StorageNode node(codec, store_.string(), node_options());
    node.start();
    const double setup_s = seconds_since(t0);
    node.stop();
    ++res_.attempted;
    if (!st.ok) {
      fail("setup encode_file: " + st.error);
      return;
    }
    res_.setup_s.push_back(setup_s);
    if (!engine_) {
      add_engine_stats(res_, pipe.engine());
      add_engine_stats(res_, node.engine());
    }
  }

  double space_amplification() const {
    std::uint64_t bytes = size_of(stair::StripeStore::manifest_path(store_.string()));
    for (std::size_t j = 0; j < cfg_.n; ++j)
      bytes += size_of(stair::StripeStore::device_path(store_.string(), j));
    return static_cast<double>(bytes) / static_cast<double>(file_size_);
  }

  /// Removes the store's files before the program rewrites them (decode
  /// does the same for its output). Fresh files are created instead of
  /// truncating or renaming over old ones: ext4 pushes a file replaced that
  /// way to disk at once, which would time the host disk's writeback
  /// instead of the program.
  void remove_store_files() const {
    for (std::size_t j = 0; j < cfg_.n; ++j) fs::remove(device(j));
    fs::remove(stair::StripeStore::manifest_path(store_.string()));
  }

  fs::path device(std::size_t j) const {
    return stair::StripeStore::device_path(store_.string(), j);
  }

  std::uint64_t sector_offset(std::size_t stripe, std::size_t row) const {
    return store_meta_.chunk_offset(stripe) + row * store_meta_.symbol_bytes;
  }

  void corrupt(int fd, const SectorHit& hit) {
    std::vector<std::uint8_t> junk(store_meta_.symbol_bytes);
    fill_garbage(opt_.seed, hit, junk);
    write_all(fd, junk.data(), junk.size(), sector_offset(hit.stripe, hit.row));
  }

  /// Deletes the lost devices and writes every corrupt sector.
  void apply_damage() {
    for (std::size_t d : plan_.lost_devices) fs::remove(device(d));
    std::vector<std::unique_ptr<Fd>> fds(cfg_.n);
    for (const SectorHit& hit : plan_.sectors) {
      if (!fds[hit.device]) fds[hit.device] = std::make_unique<Fd>(device(hit.device), O_WRONLY);
      corrupt(fds[hit.device]->get(), hit);
    }
  }

  /// After a whole-stripe write healed stripe `s` under a running node:
  /// erase the lost devices' chunks again and rewrite its corrupt sectors,
  /// so the damage (and so the mask) of every stripe stays constant.
  void redamage(std::size_t s, const std::vector<std::unique_ptr<Fd>>& fds) {
    std::vector<std::uint8_t> zeros(store_meta_.padded_chunk_bytes(), 0);
    for (std::size_t d : plan_.lost_devices)
      write_all(fds[d]->get(), zeros.data(), zeros.size(), store_meta_.chunk_offset(s));
    for (const SectorHit& hit : plan_.sectors)
      if (hit.stripe == s) corrupt(fds[hit.device]->get(), hit);
  }

  std::size_t collect_masks() {
    if (spec_.damaged) {
      res_.masks = plan_.distinct_masks(stripes_, cfg_.n, cfg_.r);
    } else {
      // A clean store presents one mask: the rebuild's lost device.
      std::vector<bool> m(cfg_.n * cfg_.r, false);
      for (std::size_t i = 0; i < cfg_.r; ++i) m[i * cfg_.n + lost_device_] = true;
      res_.masks = {m};
    }
    return res_.masks.size();
  }

  void decode_once(stair::IoPipeline& pipe) {
    fs::remove(out_);
    const std::int64_t t0 = now_ns();
    const stair::IoPipeline::Stats st = pipe.decode_file(store_.string(), out_.string());
    const double s = seconds_since(t0);
    ++res_.attempted;
    if (!st.ok) {
      fail("decode_file: " + st.error);
      return;
    }
    res_.decode_mbps.push_back(file_size_ / 1048576.0 / s);
    res_.decode_bytes_read += st.bytes_read;
    res_.decode_user_bytes += file_size_;
    if (!file_matches(out_, opt_.seed, stripe_data_, versions_, file_size_))
      mismatch("decode_file output differs from the shadow");
  }

  /// encode_file of the input into the store, repeated; ingest also
  /// decodes the store back after each encode.
  void encode_phase(stair::Codec& codec) {
    ScopedSpan span("phase.encode", 0, 0, true);
    stair::IoPipeline pipe(codec, pipeline_options());
    const std::int64_t end = deadline(spec_.encode);
    do {
      remove_store_files();
      const std::int64_t t0 = now_ns();
      const stair::IoPipeline::Stats st = pipe.encode_file(input_.string(), store_.string());
      const double s = seconds_since(t0);
      ++res_.attempted;
      if (!st.ok) {
        fail("encode_file: " + st.error);
        break;
      }
      res_.encode_mbps.push_back(file_size_ / 1048576.0 / s);
      std::fill(versions_.begin(), versions_.end(), 0);
      if (spec_.decode == 0.0) decode_once(pipe);
    } while (now_ns() < end);
    if (!engine_) add_engine_stats(res_, pipe.engine());
  }

  void rebuild_phase(stair::Codec& codec) {
    ScopedSpan span("phase.rebuild", 0, 0, true);
    stair::ScrubOptions so;
    so.engine = engine_;
    stair::Scrubber scrubber(codec, so);
    const std::int64_t end = deadline(spec_.rebuild);
    do {
      if (!spec_.damaged) fs::remove(device(lost_device_));
      const std::int64_t t0 = now_ns();
      const stair::ScrubReport rep = scrubber.rebuild_device(store_.string(), lost_device_);
      const double s = seconds_since(t0);
      ++res_.attempted;
      res_.last_rebuild = rep;
      if (!rep.ok || !rep.completed || rep.stripes_unrecoverable != 0) {
        fail("rebuild_device: " + rep.error);
        break;
      }
      res_.rebuild_mbps.push_back(res_.device_bytes / 1048576.0 / s);
      if (!files_equal(device(lost_device_), copy_)) mismatch("rebuilt device differs from its copy");
      if (spec_.damaged) apply_damage();
    } while (now_ns() < end);
    if (!engine_) add_engine_stats(res_, scrubber.engine());
  }

  void decode_phase(stair::Codec& codec) {
    ScopedSpan span("phase.decode", 0, 0, true);
    stair::IoPipeline pipe(codec, pipeline_options());
    const std::int64_t end = deadline(spec_.decode);
    do {
      decode_once(pipe);
    } while (now_ns() < end && res_.failed == 0);
    if (!engine_) add_engine_stats(res_, pipe.engine());
  }

  void manifest_probe() {
    res_.manifest_bytes = size_of(stair::StripeStore::manifest_path(store_.string()));
    const stair::StripeStore loaded = stair::StripeStore::load(store_.string());
    const fs::path dir = store_.parent_path() / "manifest_probe";
    fs::create_directories(dir);
    for (int i = 0; i < 5; ++i) {
      const std::int64_t t0 = now_ns();
      loaded.save(dir.string());
      res_.manifest_save_ms.push_back(seconds_since(t0) * 1e3);
    }
    fs::remove_all(dir);
  }

  void request_phase(stair::Codec& codec);
  /// One closed loop over `node`. Appends completed requests per second
  /// in five equal time windows to `rates` (when given).
  void closed_loop(stair::StorageNode& node, double share, unsigned write_percent,
                   std::uint64_t stream, const std::vector<std::unique_ptr<Fd>>& fds,
                   std::vector<double>* rates);

  const Spec& spec_;
  const RunOptions& opt_;
  const stair::StairConfig cfg_;
  const std::size_t stripes_;
  const fs::path input_, store_, out_, copy_;
  std::size_t stripe_data_ = 0;
  std::uint64_t file_size_ = 0;
  std::vector<std::uint32_t> versions_;  // the shadow: version per stripe
  DamagePlan plan_;
  std::size_t lost_device_ = 0;
  stair::StripeStore store_meta_;
  std::unique_ptr<TimingEngine> timing_;
  stair::io::Engine* engine_ = nullptr;  // nullptr: the program builds its own
  RunResult res_;
};

// ---------------------------------------------------------------------------
// Closed-loop request phase
// ---------------------------------------------------------------------------

struct Lane {
  enum class State { kFree, kSubmitted, kDone };
  State state = State::kFree;
  Op op;
  std::uint64_t index = 0;
  std::uint32_t version = 0;  // write: the version it installs
  std::size_t s0 = 0, s1 = 0;  // read: first and last stripe
  std::vector<std::uint32_t> seen;  // read: versions expected
  std::int64_t t_submit = 0, t_done = 0;
  std::vector<std::uint8_t> buf, expect;
  stair::StorageNode::Future fut;
  bool ok = false, rejected = false, matches = true;
  std::size_t degraded = 0;
  double queue_s = 0.0, service_s = 0.0;
  std::string error;
};

void Pass::request_phase(stair::Codec& codec) {
  ScopedSpan phase("phase.requests", 0, 0, true);
  stair::StorageNode node(codec, store_.string(), node_options());
  node.start();
  // The node recreated any deleted device file; keep write fds for redamage.
  std::vector<std::unique_ptr<Fd>> fds(cfg_.n);
  if (spec_.damaged)
    for (std::size_t j = 0; j < cfg_.n; ++j) fds[j] = std::make_unique<Fd>(device(j), O_WRONLY);

  const std::uint64_t inversions0 = stair::matrix_inversion_count();
  const TimingEngine::Counts io0 = timing_ ? timing_->counts() : TimingEngine::Counts{};
  const std::uint64_t done0 = res_.reads_done + res_.writes_done;
  closed_loop(node, spec_.requests, spec_.mixed ? 5 : 0, 1, fds, &res_.rps_windows);
  res_.loop_requests += res_.reads_done + res_.writes_done - done0;
  res_.inversions += stair::matrix_inversion_count() - inversions0;
  if (timing_) {
    const TimingEngine::Counts io1 = timing_->counts();
    res_.request_phase_reads += io1.reads - io0.reads;
    res_.request_phase_opens += io1.opens - io0.opens;
    res_.request_phase_read_bytes += io1.read_bytes - io0.read_bytes;
  }
  if (spec_.writes > 0 && !opt_.requests_only) {
    ScopedSpan writes("phase.writes", 0, 0, true);
    closed_loop(node, spec_.writes, 100, 2, fds, nullptr);
  }

  fds.clear();
  node.stop();
  const stair::StorageNode::Stats ns = node.stats();
  res_.node_reads += ns.reads;
  res_.node_degraded_reads += ns.degraded_reads;
  res_.node_batched_reads += ns.batched_reads;
  if (!engine_) add_engine_stats(res_, node.engine());
}

void Pass::closed_loop(stair::StorageNode& node, double share, unsigned write_percent,
                       std::uint64_t stream, const std::vector<std::unique_ptr<Fd>>& fds,
                       std::vector<double>* rates) {
  const std::size_t window = std::max<std::size_t>(1, opt_.outstanding);
  std::vector<Lane> lanes(window);
  for (Lane& l : lanes) {
    l.buf.resize(write_percent ? std::max<std::size_t>(65536, stripe_data_) : 65536);
    l.expect.resize(65536);
  }
  std::mutex mu;
  std::vector<std::condition_variable> lane_cv(window);
  std::condition_variable done_cv;
  std::vector<std::size_t> done;  // guarded by mu
  bool stop = false;              // guarded by mu

  // Completion observers: each parks in Future::wait for its lane, so the
  // generator sees every completion when it happens, never behind an older
  // outstanding request. They stamp the time, then check the read bytes.
  const std::uint64_t seed = opt_.seed;
  const std::size_t stripe_data = stripe_data_;
  auto observe = [&](std::size_t k) {
    Lane& l = lanes[k];
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        lane_cv[k].wait(lock, [&] { return stop || l.state == Lane::State::kSubmitted; });
        if (l.state != Lane::State::kSubmitted) return;
      }
      const stair::Response& r = l.fut.wait();
      const std::int64_t t_done = now_ns();
      l.ok = r.ok;
      l.rejected = r.rejected;
      l.error = r.error;
      l.degraded = r.degraded_stripes;
      l.queue_s = r.queue_seconds;
      l.service_s = r.service_seconds;
      l.matches = true;
      if (r.ok && !l.op.write) {
        std::size_t at = 0;
        for (std::size_t s = l.s0; s <= l.s1; ++s) {
          const std::size_t lo = s == l.s0 ? l.op.offset % stripe_data : 0;
          const std::size_t take = std::min(stripe_data - lo, l.op.length - at);
          fill_stripe_bytes(seed, s, l.seen[s - l.s0], lo, std::span(l.expect.data() + at, take));
          at += take;
        }
        l.matches = std::memcmp(l.expect.data(), l.buf.data(), l.op.length) == 0;
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        l.t_done = t_done;
        l.state = Lane::State::kDone;
        done.push_back(k);
      }
      done_cv.notify_one();
    }
  };
  std::vector<std::thread> observers;
  for (std::size_t k = 0; k < window; ++k) observers.emplace_back(observe, k);
  auto stop_observers = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      stop = true;
    }
    for (auto& cv : lane_cv) cv.notify_all();
    for (std::thread& t : observers) t.join();
  };

  OpSequence seq(mix64(opt_.seed + stream), stripes_, stripe_data_, write_percent);
  std::optional<Op> pending;
  std::vector<std::uint32_t> readers(stripes_, 0);
  std::vector<bool> writing(stripes_, false);
  std::vector<std::int64_t> completions;
  // Lanes the generator may submit on; only the generator touches this.
  std::vector<std::size_t> free_lanes;
  for (std::size_t k = window; k-- > 0;) free_lanes.push_back(k);
  std::size_t in_flight = 0;
  std::uint64_t issued = 0;
  const std::int64_t t_start = now_ns();
  const std::int64_t end = deadline(share);
  bool issuing = true;

  auto conflicts = [&](const Op& op) {
    if (op.write) return writing[op.stripe] || readers[op.stripe] > 0;
    const std::size_t a = op.offset / stripe_data_;
    const std::size_t b = (op.offset + op.length - 1) / stripe_data_;
    for (std::size_t s = a; s <= b; ++s)
      if (writing[s]) return true;
    return false;
  };

  auto submit = [&](std::size_t k, const Op& op) {
    Lane& l = lanes[k];
    l.op = op;
    l.index = ++issued;
    stair::Request req;
    req.tenant = op.tenant;
    if (op.write) {
      l.version = versions_[op.stripe] + 1;
      fill_stripe_bytes(opt_.seed, op.stripe, l.version, 0, std::span(l.buf.data(), op.length));
      writing[op.stripe] = true;
      req.type = stair::RequestType::kWrite;
      req.stripe = op.stripe;
      req.data = std::span<const std::uint8_t>(l.buf.data(), op.length);
    } else {
      l.s0 = op.offset / stripe_data_;
      l.s1 = (op.offset + op.length - 1) / stripe_data_;
      l.seen.clear();
      for (std::size_t s = l.s0; s <= l.s1; ++s) {
        ++readers[s];
        l.seen.push_back(versions_[s]);
      }
      req.type = stair::RequestType::kRead;
      req.offset = op.offset;
      req.out = std::span(l.buf.data(), op.length);
    }
    l.t_submit = now_ns();
    l.fut = node.submit(req);
    {
      std::lock_guard<std::mutex> lock(mu);
      l.state = Lane::State::kSubmitted;
    }
    lane_cv[k].notify_one();
    ++in_flight;
  };

  auto retire = [&](std::size_t k) {
    Lane& l = lanes[k];
    completions.push_back(l.t_done);
    ++res_.attempted;
    if (l.rejected) {
      fail("request rejected: " + l.error);
    } else if (!l.ok) {
      fail("request failed: " + l.error);
    } else if (!l.matches) {
      mismatch("read returned wrong bytes at offset " + std::to_string(l.op.offset));
    } else {
      (l.op.write ? res_.write_ms : res_.read_ms).push_back((l.t_done - l.t_submit) * 1e-6);
      res_.queue_ms.push_back(l.queue_s * 1e3);
      res_.service_ms.push_back(l.service_s * 1e3);
    }
    if (l.op.write) {
      writing[l.op.stripe] = false;
      ++res_.writes_done;
      if (l.ok) {
        versions_[l.op.stripe] = l.version;
        if (spec_.damaged) redamage(l.op.stripe, fds);
      }
    } else {
      for (std::size_t s = l.s0; s <= l.s1; ++s) --readers[s];
      ++res_.reads_done;
      res_.served_read_bytes += l.op.length;
      if (l.s1 > l.s0) ++res_.two_stripe_reads;
      if (plan_.sector_damaged[l.s0] || plan_.sector_damaged[l.s1]) ++res_.damaged_stripe_reads;
      if (l.degraded > 0) ++res_.degraded_reads;
      res_.degraded_stripes_served += l.degraded;
    }
    Tracer& t = Tracer::get();
    if (t.enabled()) {
      // One request: its span from submit to observed completion, and the
      // node's own queue and service split of it, sharing the request id.
      const std::uint64_t id = t.new_id();
      const std::int64_t q_end = l.t_submit + static_cast<std::int64_t>(l.queue_s * 1e9);
      t.record({l.op.write ? "request.write" : "request.read", id, t.phase(), l.index,
                l.t_submit, l.t_done});
      t.record({"service.queue", t.new_id(), id, l.index, l.t_submit, q_end});
      t.record({"service.serve", t.new_id(), id, l.index, q_end,
                q_end + static_cast<std::int64_t>(l.service_s * 1e9)});
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      l.state = Lane::State::kFree;
    }
    free_lanes.push_back(k);
    --in_flight;
  };

  try {
    for (;;) {
      if (issuing && (now_ns() >= end || (opt_.max_requests && issued >= opt_.max_requests)))
        issuing = false;
      while (issuing && in_flight < window) {
        if (!pending) pending = seq.next();
        if (conflicts(*pending)) break;
        const std::size_t k = free_lanes.back();
        free_lanes.pop_back();
        submit(k, *pending);
        pending.reset();
        if (opt_.max_requests && issued >= opt_.max_requests) issuing = false;
      }
      if (in_flight == 0) break;
      std::vector<std::size_t> ready;
      {
        std::unique_lock<std::mutex> lock(mu);
        done_cv.wait(lock, [&] { return !done.empty(); });
        ready.swap(done);
      }
      for (std::size_t k : ready) retire(k);
    }
  } catch (...) {
    stop_observers();
    throw;
  }
  stop_observers();

  // Completed requests per second in five equal time windows: the run
  // reports their upper quartile, so one stall of the host moves one window.
  std::sort(completions.begin(), completions.end());
  if (!rates || completions.empty()) return;
  const double span_ns = static_cast<double>(completions.back() - t_start);
  constexpr int kWindows = 5;
  for (int w = 0; w < kWindows; ++w) {
    const auto lo = t_start + static_cast<std::int64_t>(span_ns * w / kWindows);
    const auto hi = t_start + static_cast<std::int64_t>(span_ns * (w + 1) / kWindows);
    const auto n = std::lower_bound(completions.begin(), completions.end(), hi + (w + 1 == kWindows)) -
                   std::lower_bound(completions.begin(), completions.end(), lo);
    rates->push_back(static_cast<double>(n) / ((hi - lo) * 1e-9));
  }
}

}  // namespace

stair::StairConfig bench_config() { return {8, 16, 2, {1, 2}, 8}; }

const Spec* find_spec(const std::string& name) {
  for (const Spec& s : kSpecs)
    if (name == s.name) return &s;
  return nullptr;
}

RunResult run_workload(const Spec& spec, const RunOptions& options, const fs::path& work) {
  Pass pass(spec, options, work);
  return pass.run();
}

}  // namespace perfbench
