#include "easched/service/metrics.hpp"

#include <sstream>

namespace easched {

void MetricsRegistry::increment(std::string_view name, std::uint64_t by) {
  std::lock_guard lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), by);
  } else {
    it->second += by;
  }
}

void MetricsRegistry::set_gauge(std::string_view name, double value) {
  std::lock_guard lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

void MetricsRegistry::observe_bucketed(std::string_view name, double sample) {
  std::lock_guard lock(mutex_);
  auto it = bucketed_.find(name);
  if (it == bucketed_.end()) {
    it = bucketed_.emplace(std::string(name), obs::BucketHistogram{}).first;
  }
  it->second.observe(sample);
}

void MetricsRegistry::declare_buckets(std::string_view name, std::vector<double> upper_bounds) {
  std::lock_guard lock(mutex_);
  if (bucketed_.find(name) != bucketed_.end()) return;
  bucketed_.emplace(std::string(name), obs::BucketHistogram(std::move(upper_bounds)));
}

std::uint64_t MetricsRegistry::counter(std::string_view name) const {
  std::lock_guard lock(mutex_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::gauge(std::string_view name) const {
  std::lock_guard lock(mutex_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

obs::BucketHistogram MetricsRegistry::bucket_histogram(std::string_view name) const {
  std::lock_guard lock(mutex_);
  auto it = bucketed_.find(name);
  return it == bucketed_.end() ? obs::BucketHistogram{} : it->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  std::lock_guard lock(mutex_);
  out.counters.insert(counters_.begin(), counters_.end());
  out.gauges.insert(gauges_.begin(), gauges_.end());
  out.bucketed.insert(bucketed_.begin(), bucketed_.end());
  return out;
}

std::string to_text(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  for (const auto& [name, value] : snapshot.counters) {
    out << "counter " << name << " " << value << "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    out << "gauge " << name << " " << value << "\n";
  }
  for (const auto& [name, h] : snapshot.bucketed) {
    out << "bucket_histogram " << name << " count=" << h.count() << " mean=" << h.mean()
        << " p50=" << h.quantile(0.50) << " p90=" << h.quantile(0.90)
        << " p99=" << h.quantile(0.99) << " min=" << h.min() << " max=" << h.max() << "\n";
  }
  return out.str();
}

std::string MetricsRegistry::dump() const { return to_text(snapshot()); }

void MetricsRegistry::reset() {
  std::lock_guard lock(mutex_);
  counters_.clear();
  gauges_.clear();
  bucketed_.clear();
}

}  // namespace easched
