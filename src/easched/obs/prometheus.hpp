#pragma once

/// \file prometheus.hpp
/// \brief Prometheus text-exposition rendering of a MetricsSnapshot.
///
/// Renders the same data as the text exposition (`to_text` in
/// `metrics.hpp`) in the Prometheus text format (version 0.0.4): `# TYPE`
/// headers and `_bucket{le="..."}` / `_sum` / `_count` series for the
/// fixed-bucket histograms. Works from a `MetricsSnapshot`, never the live
/// registry, so exposition cannot contend with the admission path.

#include <iosfwd>
#include <string>
#include <string_view>

#include "easched/service/metrics.hpp"

namespace easched::obs {

/// Map an arbitrary registry metric name onto the Prometheus name charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`, prefixing `prefix` (default `easched_`).
/// Characters outside the charset become `_`.
std::string prometheus_metric_name(std::string_view name,
                                   std::string_view prefix = "easched_");

/// Render `snapshot` in Prometheus text-exposition format. Counters become
/// `counter` series, gauges `gauge`, and histograms full `histogram`
/// families (cumulative `_bucket{le=...}` including `+Inf`, `_sum`,
/// `_count`).
std::string to_prometheus(const MetricsSnapshot& snapshot,
                          std::string_view prefix = "easched_");
void write_prometheus(std::ostream& out, const MetricsSnapshot& snapshot,
                      std::string_view prefix = "easched_");

}  // namespace easched::obs
