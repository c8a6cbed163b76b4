#include "content.h"

#include <algorithm>
#include <cstring>
#include <set>

namespace perfbench {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t Rng::next() {
  const std::uint64_t out = mix64(state_);
  state_ += 0x9E3779B97F4A7C15ULL;
  return out;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  // Rejection keeps the draw exactly uniform.
  const std::uint64_t limit = ~0ULL - (~0ULL % bound);
  for (;;) {
    const std::uint64_t v = next();
    if (v < limit) return v % bound;
  }
}

void fill_stripe_bytes(std::uint64_t seed, std::size_t stripe, std::uint32_t version,
                       std::size_t lo, std::span<std::uint8_t> out) {
  // Word w of the stripe is a one-multiply mix of (key, w): cheap enough
  // that regenerating expected bytes costs the oracle little CPU beside the
  // program under test.
  const std::uint64_t key =
      mix64(seed ^ mix64((std::uint64_t{stripe} << 32) ^ version ^ 0x5EEDULL));
  auto word = [key](std::uint64_t w) {
    std::uint64_t x = key ^ (w * 0x9E3779B97F4A7C15ULL);
    x ^= x >> 32;
    x *= 0xD6E8FEB86659FD93ULL;
    return x ^ (x >> 32);
  };
  std::size_t pos = lo, done = 0;
  while (done < out.size() && (pos % 8 != 0 || out.size() - done < 8)) {
    out[done++] = static_cast<std::uint8_t>(word(pos / 8) >> (8 * (pos % 8)));
    ++pos;
  }
  for (; out.size() - done >= 8; done += 8, pos += 8) {
    const std::uint64_t v = word(pos / 8);
    std::memcpy(out.data() + done, &v, 8);
  }
  for (; done < out.size(); ++done, ++pos)
    out[done] = static_cast<std::uint8_t>(word(pos / 8) >> (8 * (pos % 8)));
}

void fill_file_bytes(std::uint64_t seed, std::size_t stripe_data,
                     const std::vector<std::uint32_t>& versions, std::uint64_t offset,
                     std::span<std::uint8_t> out) {
  std::size_t done = 0;
  while (done < out.size()) {
    const std::uint64_t at = offset + done;
    const std::size_t stripe = static_cast<std::size_t>(at / stripe_data);
    const std::size_t lo = static_cast<std::size_t>(at % stripe_data);
    const std::size_t take = std::min(stripe_data - lo, out.size() - done);
    fill_stripe_bytes(seed, stripe, versions[stripe], lo, out.subspan(done, take));
    done += take;
  }
}

OpSequence::OpSequence(std::uint64_t seed, std::size_t stripes, std::size_t stripe_data,
                       unsigned write_percent)
    : rng_(mix64(seed ^ 0x0905EC0ULL)),
      stripes_(stripes),
      stripe_data_(stripe_data),
      write_percent_(write_percent),
      file_size_(std::uint64_t{stripes} * stripe_data) {}

Op OpSequence::next() {
  Op op;
  op.write = rng_.below(100) < write_percent_;
  op.tenant = static_cast<std::size_t>(rng_.below(2));
  if (op.write) {
    op.stripe = static_cast<std::size_t>(rng_.below(stripes_));
    op.length = stripe_data_;
  } else {
    op.length = static_cast<std::size_t>(rng_.between(4096, 65536));
    op.offset = rng_.below(file_size_ - op.length + 1);
  }
  return op;
}

std::vector<bool> DamagePlan::mask(std::size_t stripe, std::size_t n, std::size_t r) const {
  std::vector<bool> m(n * r, false);
  for (std::size_t d : lost_devices)
    for (std::size_t i = 0; i < r; ++i) m[i * n + d] = true;
  if (sector_damaged[stripe]) {
    const auto first = std::lower_bound(
        sectors.begin(), sectors.end(), stripe,
        [](const SectorHit& h, std::size_t s) { return h.stripe < s; });
    for (auto it = first; it != sectors.end() && it->stripe == stripe; ++it)
      m[it->row * n + it->device] = true;
  }
  return m;
}

std::vector<std::vector<bool>> DamagePlan::distinct_masks(std::size_t stripes, std::size_t n,
                                                          std::size_t r) const {
  std::set<std::vector<bool>> seen;
  for (std::size_t s = 0; s < stripes; ++s) seen.insert(mask(s, n, r));
  return {seen.begin(), seen.end()};
}

DamagePlan make_damage_plan(std::uint64_t seed, std::size_t stripes, std::size_t n,
                            std::size_t r, std::size_t m) {
  Rng rng(mix64(seed ^ 0xDA3A6EULL));
  DamagePlan plan;
  std::vector<std::size_t> devices(n);
  for (std::size_t j = 0; j < n; ++j) devices[j] = j;
  // The lost devices are data devices (the first n - m columns), so every
  // seed loses the same kind of column and degrades a like share of reads.
  for (std::size_t k = 0; k < m; ++k) {
    const std::size_t pick = k + static_cast<std::size_t>(rng.below(n - m - k));
    std::swap(devices[k], devices[pick]);
    plan.lost_devices.push_back(devices[k]);
  }
  // A quarter of the stripes, chosen by a seeded partial shuffle.
  std::vector<std::size_t> order(stripes);
  for (std::size_t s = 0; s < stripes; ++s) order[s] = s;
  const std::size_t hit_count = stripes / 4;
  for (std::size_t k = 0; k < hit_count; ++k)
    std::swap(order[k], order[k + static_cast<std::size_t>(rng.below(stripes - k))]);
  std::vector<std::size_t> chosen(order.begin(), order.begin() + hit_count);
  std::sort(chosen.begin(), chosen.end());
  plan.sector_damaged.assign(stripes, false);
  for (std::size_t s : chosen) {
    plan.sector_damaged[s] = true;
    // Two distinct surviving devices: one gets 1 bad sector, the other 2.
    std::vector<std::size_t> alive(devices.begin() + m, devices.end());
    std::sort(alive.begin(), alive.end());
    const std::size_t a = static_cast<std::size_t>(rng.below(alive.size()));
    const std::size_t dev_one = alive[a];
    alive.erase(alive.begin() + a);
    const std::size_t dev_two = alive[static_cast<std::size_t>(rng.below(alive.size()))];
    const std::size_t row_one = static_cast<std::size_t>(rng.below(r));
    const std::size_t row_a = static_cast<std::size_t>(rng.below(r));
    std::size_t row_b = static_cast<std::size_t>(rng.below(r - 1));
    if (row_b >= row_a) ++row_b;
    plan.sectors.push_back({s, dev_one, row_one});
    plan.sectors.push_back({s, dev_two, std::min(row_a, row_b)});
    plan.sectors.push_back({s, dev_two, std::max(row_a, row_b)});
  }
  return plan;
}

void fill_garbage(std::uint64_t seed, const SectorHit& hit, std::span<std::uint8_t> out) {
  const std::uint64_t key = mix64(seed ^ 0xBADULL) ^ (std::uint64_t{hit.device} << 56) ^
                            (std::uint64_t{hit.row} << 48);
  fill_stripe_bytes(key, hit.stripe, 0xFFFFFFFFu, 0, out);
}

}  // namespace perfbench
