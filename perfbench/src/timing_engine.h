// Timing io::Engine decorator: forwards every Engine virtual to an inner
// engine and times each transfer from submit to completion. The benchmark
// hands it to the program through IoPipeline::Options::engine,
// StorageNode::Options::io.engine and ScrubOptions::engine, so the IO layer
// is measured from outside the library. timing_engine.cpp proves at compile
// time that every entry of STAIR_IO_ENGINE_VIRTUALS is overridden here.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "util/stripe_io.h"

namespace perfbench {

class TimingEngine : public stair::io::Engine {
 public:
  struct Counts {
    std::uint64_t reads = 0, writes = 0, opens = 0, closes = 0;
    std::uint64_t read_bytes = 0, write_bytes = 0;
  };
  struct Summary {
    Counts counts;
    std::vector<std::int64_t> read_ns, write_ns;  // per-transfer latency
    double busy_s = 0.0;         // time with at least one transfer in flight
    double inflight_mean = 0.0;  // mean transfers in flight while busy
  };

  explicit TimingEngine(std::unique_ptr<stair::io::Engine> inner);
  ~TimingEngine() override;

  Counts counts() const;
  Summary summary() const;

  stair::io::Backend backend() const override { return inner_->backend(); }
  void read(int fd, std::uint64_t offset, std::span<std::uint8_t> buf,
            stair::io::Callback cb) override;
  void write(int fd, std::uint64_t offset, std::span<const std::uint8_t> buf,
             stair::io::Callback cb) override;
  void read_fixed(int fd, std::uint64_t offset, std::span<std::uint8_t> buf, int buf_index,
                  stair::io::Callback cb) override;
  void write_fixed(int fd, std::uint64_t offset, std::span<const std::uint8_t> buf,
                   int buf_index, stair::io::Callback cb) override;
  void flush() override { inner_->flush(); }
  int open_read(const std::string& path,
                stair::io::OpenMode mode = stair::io::OpenMode::kBuffered) override;
  int open_write(const std::string& path,
                 stair::io::OpenMode mode = stair::io::OpenMode::kBuffered) override;
  int open_update(const std::string& path,
                  stair::io::OpenMode mode = stair::io::OpenMode::kBuffered) override;
  void close(int fd) override;
  std::uint64_t file_size(int fd) const override { return inner_->file_size(fd); }
  int truncate(int fd, std::uint64_t size) override { return inner_->truncate(fd, size); }
  int register_buffers(std::span<const std::span<std::uint8_t>> regions) override {
    return inner_->register_buffers(regions);
  }
  void unregister_buffers() override { inner_->unregister_buffers(); }
  int register_files(std::span<const int> fds) override { return inner_->register_files(fds); }
  void unregister_files() override { inner_->unregister_files(); }
  Stats stats() const override { return inner_->stats(); }

 private:
  /// Accounts a submit, returning the callback that accounts the
  /// completion and then runs `cb`.
  stair::io::Callback wrap(bool is_write, std::size_t bytes, stair::io::Callback cb);
  void advance_clock(std::int64_t now);  // caller holds mu_

  std::unique_ptr<stair::io::Engine> inner_;
  mutable std::mutex mu_;
  Counts counts_;                          // guarded by mu_
  std::vector<std::int64_t> read_ns_, write_ns_;  // guarded by mu_
  std::int64_t inflight_ = 0;              // guarded by mu_
  std::int64_t last_ns_ = 0;               // guarded by mu_
  double busy_ns_ = 0.0, depth_ns_ = 0.0;  // guarded by mu_
};

}  // namespace perfbench
