#include "easched/obs/prometheus.hpp"

#include <cmath>
#include <cstdint>
#include <ostream>
#include <sstream>

namespace easched::obs {

namespace {

bool name_char_ok(char c, bool first) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':') return true;
  return !first && c >= '0' && c <= '9';
}

void append_value(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "NaN";
    return;
  }
  if (std::isinf(v)) {
    out += v > 0 ? "+Inf" : "-Inf";
    return;
  }
  std::ostringstream tmp;
  tmp.precision(15);
  tmp << v;
  out += tmp.str();
}

void append_family(std::string& out, const std::string& name, const char* type) {
  out += "# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

}  // namespace

std::string prometheus_metric_name(std::string_view name, std::string_view prefix) {
  std::string out(prefix);
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    out.push_back(name_char_ok(c, out.empty() && i == 0) ? c : '_');
  }
  if (out.empty()) out.push_back('_');
  return out;
}

std::string to_prometheus(const MetricsSnapshot& snapshot, std::string_view prefix) {
  std::string out;
  out.reserve(4096);

  for (const auto& [name, value] : snapshot.counters) {
    const std::string metric = prometheus_metric_name(name, prefix);
    append_family(out, metric, "counter");
    out += metric;
    out += ' ';
    out += std::to_string(value);
    out += '\n';
  }

  for (const auto& [name, value] : snapshot.gauges) {
    const std::string metric = prometheus_metric_name(name, prefix);
    append_family(out, metric, "gauge");
    out += metric;
    out += ' ';
    append_value(out, value);
    out += '\n';
  }

  // Fixed-bucket histograms are native Prometheus histograms: cumulative
  // bucket counts with inclusive `le` upper bounds, closed by +Inf.
  for (const auto& [name, h] : snapshot.bucketed) {
    const std::string metric = prometheus_metric_name(name, prefix);
    append_family(out, metric, "histogram");
    std::uint64_t cumulative = 0;
    const auto& bounds = h.upper_bounds();
    const auto& counts = h.counts();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      cumulative += counts[i];
      out += metric;
      out += "_bucket{le=\"";
      append_value(out, bounds[i]);
      out += "\"} ";
      out += std::to_string(cumulative);
      out += '\n';
    }
    out += metric;
    out += "_bucket{le=\"+Inf\"} ";
    out += std::to_string(h.count());
    out += '\n';
    out += metric;
    out += "_sum ";
    append_value(out, h.sum());
    out += '\n';
    out += metric;
    out += "_count ";
    out += std::to_string(h.count());
    out += '\n';
  }

  return out;
}

void write_prometheus(std::ostream& out, const MetricsSnapshot& snapshot,
                      std::string_view prefix) {
  out << to_prometheus(snapshot, prefix);
}

}  // namespace easched::obs
