// Seeded inputs for the benchmark: file content, the closed-loop op
// sequence and the damage plan. Everything here is a pure function of the
// seed, so the program under test receives only generated inputs and the
// oracle can regenerate any expected byte range instead of keeping a copy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64 step: the mixing function behind every generator here.
std::uint64_t mix64(std::uint64_t x);

/// Small seeded PRNG (splitmix64 sequence); identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, bound) (bound > 0).
  std::uint64_t below(std::uint64_t bound);
  /// Uniform in [lo, hi] inclusive.
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) { return lo + below(hi - lo + 1); }

 private:
  std::uint64_t state_;
};

/// Content of one stripe's user data at a given version (0 = the initial
/// file; each whole-stripe write installs the next version). Fills
/// `out` with bytes [lo, lo + out.size()) of that stripe's data.
void fill_stripe_bytes(std::uint64_t seed, std::size_t stripe, std::uint32_t version,
                       std::size_t lo, std::span<std::uint8_t> out);

/// Expected bytes of the file range [offset, offset + out.size()) given each
/// stripe's current version.
void fill_file_bytes(std::uint64_t seed, std::size_t stripe_data,
                     const std::vector<std::uint32_t>& versions, std::uint64_t offset,
                     std::span<std::uint8_t> out);

/// One request of the closed-loop generator.
struct Op {
  bool write = false;
  std::size_t tenant = 0;
  std::uint64_t offset = 0;  // read: file offset
  std::size_t length = 0;    // read: bytes; write: stripe data bytes
  std::size_t stripe = 0;    // write: target stripe
};

/// A request stream over 2 tenants: whole-stripe writes at uniform stripes
/// with probability write_percent / 100, otherwise point reads of uniform
/// 4-64 KiB at uniform offsets. The sequence depends only on its arguments.
class OpSequence {
 public:
  OpSequence(std::uint64_t seed, std::size_t stripes, std::size_t stripe_data,
             unsigned write_percent);
  Op next();

 private:
  Rng rng_;
  std::size_t stripes_, stripe_data_;
  unsigned write_percent_;
  std::uint64_t file_size_;
};

/// One corrupt sector: (stripe, device, row).
struct SectorHit {
  std::size_t stripe = 0, device = 0, row = 0;
};

/// The `degraded` workload's damage: m whole data devices lost and, in a
/// quarter of the stripes, one corrupt sector on a further device and two
/// on another (within e = (1, 2)).
struct DamagePlan {
  std::vector<std::size_t> lost_devices;
  std::vector<SectorHit> sectors;
  std::vector<bool> sector_damaged;  // per stripe

  /// Erasure mask (row * n + device) of stripe `stripe` under this plan.
  std::vector<bool> mask(std::size_t stripe, std::size_t n, std::size_t r) const;
  /// The distinct masks over all stripes.
  std::vector<std::vector<bool>> distinct_masks(std::size_t stripes, std::size_t n,
                                                std::size_t r) const;
};

DamagePlan make_damage_plan(std::uint64_t seed, std::size_t stripes, std::size_t n,
                            std::size_t r, std::size_t m);

/// Deterministic garbage written over a corrupt sector.
void fill_garbage(std::uint64_t seed, const SectorHit& hit, std::span<std::uint8_t> out);

}  // namespace perfbench
