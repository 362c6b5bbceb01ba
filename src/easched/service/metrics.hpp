#pragma once

/// \file metrics.hpp
/// \brief Thread-safe metrics registry for the scheduling service.
///
/// The service layer is the first part of the library built for sustained
/// traffic, so its behavior has to be observable without a debugger:
/// counters (monotone event totals), gauges (last-written values), and
/// fixed-bucket histograms (latency/size distributions with quantiles, see
/// `obs/histogram.hpp`). The registry is name-addressed so benches and
/// tests can assert on a text dump instead of threading accessor plumbing
/// through every layer.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "easched/obs/histogram.hpp"

namespace easched {

/// A point-in-time copy of every metric, taken under the registry mutex in
/// one short critical section. Formatting (text dump, Prometheus
/// exposition, the supervisor's merge) works from this copy so it never
/// holds the registry lock while doing string work — a dump during a hot
/// admission burst costs the writers one map copy, not a formatting pass.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, obs::BucketHistogram> bucketed;
};

/// Name-addressed counters, gauges, and histograms. All operations are
/// thread-safe; names are created on first use.
class MetricsRegistry {
 public:
  /// \name Writers
  /// @{
  void increment(std::string_view name, std::uint64_t by = 1);
  /// Overwrite a counter (copying totals from another registry's
  /// snapshot). Normal accounting should use `increment`.
  void set_counter(std::string_view name, std::uint64_t value);
  void set_gauge(std::string_view name, double value);
  /// Record into a fixed-bucket histogram (created on first use with
  /// `default_latency_buckets_us` unless `declare_buckets` ran first).
  /// Quantiles are exact functions of the bucket counts — reproducible from
  /// any dump — and export directly as Prometheus `_bucket{le=...}` series.
  void observe_bucketed(std::string_view name, double sample);
  /// Pre-register a bucketed histogram with explicit bounds (strictly
  /// increasing). No-op if the name already exists.
  void declare_buckets(std::string_view name, std::vector<double> upper_bounds);
  /// @}

  /// \name Readers (zero / empty summary for unknown names)
  /// @{
  std::uint64_t counter(std::string_view name) const;
  double gauge(std::string_view name) const;
  obs::BucketHistogram bucket_histogram(std::string_view name) const;
  /// @}

  /// Copy every metric in one short critical section.
  MetricsSnapshot snapshot() const;

  /// Text exposition, one metric per line, sorted by kind then name:
  ///   counter <name> <value>
  ///   gauge <name> <value>
  ///   bucket_histogram <name> count=<n> mean=<m> p50=<q> p90=<q> p99=<q> ...
  /// Formats from a `snapshot()`, so writers are blocked only for the copy.
  std::string dump() const;

  /// Drop every metric (used between bench repetitions).
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, obs::BucketHistogram, std::less<>> bucketed_;
};

}  // namespace easched
