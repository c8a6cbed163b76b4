#include "timing_engine.h"

#include <type_traits>
#include <utility>

#include "trace.h"

namespace perfbench {

namespace {

// The class a pointer-to-member was taken from: a virtual TimingEngine does
// not redeclare decays to a pointer into io::Engine, and the static_assert
// below names it. An Engine virtual added later therefore cannot bypass the
// IO spans.
template <typename T>
struct member_of;
template <typename R, typename C, typename... A>
struct member_of<R (C::*)(A...)> {
  using type = C;
};
template <typename R, typename C, typename... A>
struct member_of<R (C::*)(A...) const> {
  using type = C;
};

#define PERFBENCH_CHECK_OVERRIDE(name)                                                  \
  static_assert(std::is_same_v<member_of<decltype(&TimingEngine::name)>::type,        \
                               TimingEngine>,                                          \
                "TimingEngine must override io::Engine::" #name);
STAIR_IO_ENGINE_VIRTUALS(PERFBENCH_CHECK_OVERRIDE)
#undef PERFBENCH_CHECK_OVERRIDE

}  // namespace

TimingEngine::TimingEngine(std::unique_ptr<stair::io::Engine> inner)
    : inner_(std::move(inner)), last_ns_(now_ns()) {}

TimingEngine::~TimingEngine() = default;

void TimingEngine::advance_clock(std::int64_t now) {
  const double dt = static_cast<double>(now - last_ns_);
  if (inflight_ > 0) {
    busy_ns_ += dt;
    depth_ns_ += dt * static_cast<double>(inflight_);
  }
  last_ns_ = now;
}

stair::io::Callback TimingEngine::wrap(bool is_write, std::size_t bytes,
                                       stair::io::Callback cb) {
  const std::int64_t start = now_ns();
  const std::uint64_t parent = Tracer::get().phase();
  {
    std::lock_guard<std::mutex> lock(mu_);
    advance_clock(start);
    ++inflight_;
    if (is_write) {
      ++counts_.writes;
      counts_.write_bytes += bytes;
    } else {
      ++counts_.reads;
      counts_.read_bytes += bytes;
    }
  }
  return [this, is_write, start, parent, cb = std::move(cb)](const stair::io::Result& r) {
    const std::int64_t end = now_ns();
    {
      std::lock_guard<std::mutex> lock(mu_);
      advance_clock(end);
      --inflight_;
      (is_write ? write_ns_ : read_ns_).push_back(end - start);
    }
    Tracer& t = Tracer::get();
    if (t.enabled())
      t.record({is_write ? "io.write" : "io.read", t.new_id(), parent, 0, start, end});
    cb(r);
  };
}

void TimingEngine::read(int fd, std::uint64_t offset, std::span<std::uint8_t> buf,
                        stair::io::Callback cb) {
  inner_->read(fd, offset, buf, wrap(false, buf.size(), std::move(cb)));
}

void TimingEngine::write(int fd, std::uint64_t offset, std::span<const std::uint8_t> buf,
                         stair::io::Callback cb) {
  inner_->write(fd, offset, buf, wrap(true, buf.size(), std::move(cb)));
}

void TimingEngine::read_fixed(int fd, std::uint64_t offset, std::span<std::uint8_t> buf,
                              int buf_index, stair::io::Callback cb) {
  inner_->read_fixed(fd, offset, buf, buf_index, wrap(false, buf.size(), std::move(cb)));
}

void TimingEngine::write_fixed(int fd, std::uint64_t offset,
                               std::span<const std::uint8_t> buf, int buf_index,
                               stair::io::Callback cb) {
  inner_->write_fixed(fd, offset, buf, buf_index, wrap(true, buf.size(), std::move(cb)));
}

int TimingEngine::open_read(const std::string& path, stair::io::OpenMode mode) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counts_.opens;
  }
  return inner_->open_read(path, mode);
}

int TimingEngine::open_write(const std::string& path, stair::io::OpenMode mode) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counts_.opens;
  }
  return inner_->open_write(path, mode);
}

int TimingEngine::open_update(const std::string& path, stair::io::OpenMode mode) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counts_.opens;
  }
  return inner_->open_update(path, mode);
}

void TimingEngine::close(int fd) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counts_.closes;
  }
  inner_->close(fd);
}

TimingEngine::Counts TimingEngine::counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

TimingEngine::Summary TimingEngine::summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  Summary s;
  s.counts = counts_;
  s.read_ns = read_ns_;
  s.write_ns = write_ns_;
  s.busy_s = busy_ns_ * 1e-9;
  s.inflight_mean = busy_ns_ > 0 ? depth_ns_ / busy_ns_ : 0.0;
  return s;
}

}  // namespace perfbench
