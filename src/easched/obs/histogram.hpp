#pragma once

/// \file histogram.hpp
/// \brief Fixed-bucket histograms with deterministic quantile estimates.
///
/// The metrics registry's one histogram kind. O(#buckets) memory and dump
/// cost however long the process runs, mergeable across shards by plain
/// addition, and directly renderable as Prometheus `_bucket{le=...}`
/// series. Quantiles (p50/p90/p99) are derived from the bucket counts by
/// linear interpolation inside the holding bucket, so they are reproducible
/// from any dump of the same counts.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace easched::obs {

/// Default latency bucket upper bounds in microseconds: 1-2-5 decades from
/// 1 µs to 10 s. Chosen so p50/p90/p99 of both sub-millisecond kernel
/// stages and multi-second soak tails land in populated buckets.
const std::vector<double>& default_latency_buckets_us();

/// Power-of-two bounds {1, 2, 4, ..., 2^(n-1)} for size-like quantities
/// (batch sizes, queue depth, cache ages in operations).
std::vector<double> pow2_buckets(std::size_t n);

/// A histogram over fixed, strictly increasing upper bounds. Observation
/// `v` lands in the first bucket with `v <= bound` (bounds are inclusive
/// upper edges, Prometheus `le` semantics); values above every bound land
/// in the implicit overflow (+Inf) bucket. There is no distinct underflow
/// bucket: the first bucket spans (-inf, bound0].
class BucketHistogram {
 public:
  /// Empty histogram; `upper_bounds` must be strictly increasing and
  /// non-empty (contract-checked).
  explicit BucketHistogram(std::vector<double> upper_bounds);
  BucketHistogram() : BucketHistogram(default_latency_buckets_us()) {}

  void observe(double value);

  /// Add another shard's counts into this one. Bounds must match exactly
  /// (contract-checked) — shards of one logical histogram share bounds by
  /// construction.
  void merge(const BucketHistogram& other);

  /// \name Readers
  /// @{
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return min_; }
  double max() const { return max_; }
  double mean() const;

  /// Quantile estimate for `q` in [0, 1]: locate the bucket holding the
  /// q-th observation, interpolate linearly between its edges (clamped to
  /// the observed min/max so estimates never leave the data range). The
  /// overflow bucket reports the observed max. 0 when empty.
  double quantile(double q) const;

  const std::vector<double>& upper_bounds() const { return bounds_; }
  /// Per-bucket counts; `counts().back()` is the overflow bucket, so
  /// `counts().size() == upper_bounds().size() + 1`.
  const std::vector<std::uint64_t>& counts() const { return counts_; }
  /// @}

  void reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;  ///< bounds_.size() + 1 (overflow last)
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace easched::obs
