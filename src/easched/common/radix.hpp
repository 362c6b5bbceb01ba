#pragma once

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

/// Stable LSD radix sorting of (u64 key, u32 index) pairs, for the
/// allocator's descending-DER order (Algorithm 2), and the order-preserving
/// double key that `Schedule::validate`'s start order also sorts by. Each
/// radix pass pays a fixed 256-bucket histogram, so it wins only on larger
/// inputs: the allocator sorts one heavy subinterval's positive DERs at a
/// time — a handful on the service's sets, hundreds on the paper's dense
/// ones — and uses this only above `kDerRadixCutoff` keys
/// (`sched/allocation.hpp`), a comparison sort below. (`Schedule::validate`
/// buckets its starts by value instead: about half the cost of the radix
/// passes on a plan's segments.)

namespace easched {

/// Stable LSD radix sort of (key, index) pairs by ascending key. Stability
/// keeps equal keys in their original (ascending-index) order; a byte pass
/// whose histogram lands everything in one bucket is the identity and is
/// skipped, which prunes most high-byte passes — keys produced from doubles
/// in one schedule usually share an exponent.
inline void radix_sort_keys(std::vector<std::pair<std::uint64_t, std::uint32_t>>& a,
                            std::vector<std::pair<std::uint64_t, std::uint32_t>>& b) {
  const std::size_t n = a.size();
  if (n < 2) return;
  b.resize(n);
  std::size_t pos[256];
  for (int shift = 0; shift < 64; shift += 8) {
    std::size_t count[256] = {};
    for (const auto& e : a) ++count[(e.first >> shift) & 0xff];
    if (count[(a[0].first >> shift) & 0xff] == n) continue;
    std::size_t run = 0;
    for (std::size_t bucket = 0; bucket < 256; ++bucket) {
      pos[bucket] = run;
      run += count[bucket];
    }
    for (const auto& e : a) b[pos[(e.first >> shift) & 0xff]++] = e;
    a.swap(b);
  }
}

/// Order-preserving u64 key for any finite double: ascending key order is
/// ascending value order over the full range, negatives included (flip all
/// bits of negatives, flip only the sign bit of non-negatives).
inline std::uint64_t ordered_double_key(double value) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
  return bits ^ ((bits >> 63) != 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << 63));
}

}  // namespace easched
