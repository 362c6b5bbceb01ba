#include "easched/service/supervisor.hpp"

#include <algorithm>

#include "easched/common/contracts.hpp"
#include "easched/common/rng.hpp"
#include "easched/obs/prometheus.hpp"
#include "easched/obs/trace.hpp"

namespace easched {

namespace {

/// Ring-point label. Hashing a *named* label (instead of raw indices) keeps
/// the ring layout stable and documented: anyone can recompute where tenant
/// load lands.
constexpr std::string_view kRingLabel = "easched-shard-ring";

/// `Rng::seed_of`'s index mix is additive and leaves the label hash owning
/// the high bits, so raw ring points for (k, v) all land on one tiny arc of
/// the 64-bit circle — every tenant would route to the shard holding the
/// arc's first point. A splitmix64 finalizer avalanches the points (and the
/// tenant hashes, for symmetry) across the whole circle.
std::uint64_t avalanche(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

Supervisor::Supervisor(const PowerModel& power, SupervisorOptions options)
    : options_(std::move(options)) {
  EASCHED_EXPECTS_MSG(options_.shards >= 1, "a supervisor needs at least one shard");
  EASCHED_EXPECTS_MSG(options_.virtual_nodes >= 1,
                      "the consistent-hash ring needs at least one point per shard");
  EASCHED_EXPECTS_MSG(!options_.data_dir.empty(),
                      "supervised shards need a data_dir for their journals + snapshots");

  shards_.reserve(options_.shards);
  for (std::size_t k = 0; k < options_.shards; ++k) {
    ShardOptions shard_options;
    shard_options.index = k;
    const std::string base = options_.data_dir + "/shard" + std::to_string(k);
    shard_options.journal_path = base + ".wal";
    shard_options.snapshot_path = base + ".snap";
    shard_options.service = options_.service;
    shard_options.brownout = options_.brownout;
    shard_options.brownout_enabled = options_.brownout_enabled;
    shard_options.journal_compact_bytes = options_.journal_compact_bytes;
    shards_.push_back(std::make_unique<ServiceShard>(power, std::move(shard_options)));
    in_flight_.push_back(std::make_unique<std::atomic<std::size_t>>(0));
    shard_level_.push_back(std::make_unique<std::atomic<int>>(shards_.back()->brownout_level()));
  }

  ring_.reserve(options_.shards * options_.virtual_nodes);
  for (std::size_t k = 0; k < options_.shards; ++k) {
    for (std::size_t v = 0; v < options_.virtual_nodes; ++v) {
      ring_.emplace_back(avalanche(Rng::seed_of(kRingLabel, k, v)), k);
    }
  }
  std::sort(ring_.begin(), ring_.end());

  refresh_brownout_state();
}

Supervisor::~Supervisor() {
  // The fleet held tracing disarmed only while a shard sat at level >= 2;
  // a dying supervisor must not leave the process-wide switch stuck.
  obs::set_tracing_suppressed(false);
}

std::size_t Supervisor::route(std::string_view tenant) const {
  const std::uint64_t hash = avalanche(Rng::seed_of(tenant));
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), hash,
      [](const std::pair<std::uint64_t, std::size_t>& point, std::uint64_t value) {
        return point.first < value;
      });
  if (it == ring_.end()) it = ring_.begin();  // wrap past the last point
  return it->second;
}

ServiceDecision Supervisor::submit(std::string_view tenant, const Task& task, std::string rid,
                                   std::size_t pressure_hint) {
  const std::size_t k = route(tenant);
  std::atomic<std::size_t>& in_flight = *in_flight_[k];
  const std::size_t concurrent = in_flight.fetch_add(1, std::memory_order_relaxed) + 1;
  requests_routed_.fetch_add(1, std::memory_order_relaxed);

  ServiceDecision decision =
      shards_[k]->submit(task, std::move(rid), std::max(pressure_hint, concurrent));
  in_flight.fetch_sub(1, std::memory_order_relaxed);

  if (shard_level_[k]->exchange(decision.brownout_level, std::memory_order_relaxed) !=
      decision.brownout_level) {
    refresh_brownout_state();
  }
  return decision;
}

std::vector<ServiceDecision> Supervisor::submit_batch(const std::vector<BatchItem>& items,
                                                      std::size_t pressure_hint) {
  std::vector<ServiceDecision> out(items.size());
  if (items.empty()) return out;

  // Split by the ring, preserving arrival order within each shard's slice.
  std::vector<std::vector<std::size_t>> slices(shards_.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    slices[route(items[i].tenant)].push_back(i);
  }

  for (std::size_t k = 0; k < slices.size(); ++k) {
    const std::vector<std::size_t>& slice = slices[k];
    if (slice.empty()) continue;
    std::atomic<std::size_t>& in_flight = *in_flight_[k];
    const std::size_t concurrent =
        in_flight.fetch_add(slice.size(), std::memory_order_relaxed) + slice.size();
    requests_routed_.fetch_add(slice.size(), std::memory_order_relaxed);

    std::vector<ShardBatchItem> shard_items;
    shard_items.reserve(slice.size());
    for (const std::size_t i : slice) shard_items.push_back({items[i].task, items[i].rid});
    std::vector<ServiceDecision> decisions =
        shards_[k]->submit_batch(shard_items, std::max(pressure_hint, concurrent));
    in_flight.fetch_sub(slice.size(), std::memory_order_relaxed);

    for (std::size_t j = 0; j < slice.size(); ++j) out[slice[j]] = std::move(decisions[j]);
    const int level = decisions.empty() ? 0 : out[slice.back()].brownout_level;
    if (shard_level_[k]->exchange(level, std::memory_order_relaxed) != level) {
      refresh_brownout_state();
    }
  }
  return out;
}

std::optional<bool> Supervisor::complete(std::string_view tenant, TaskId id) {
  return shards_[route(tenant)]->complete(id);
}

std::optional<bool> Supervisor::cancel(std::string_view tenant, TaskId id) {
  return shards_[route(tenant)]->cancel(id);
}

std::optional<AdmissionDecision> Supervisor::quote(std::string_view tenant, const Task& task) {
  return shards_[route(tenant)]->quote(task);
}

std::optional<RuntimeReport> Supervisor::simulate_runtime(
    std::string_view tenant, const RuntimeOptions& runtime_options) {
  return shards_[route(tenant)]->simulate_runtime(runtime_options);
}

std::size_t Supervisor::committed_total() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->committed_count();
  return total;
}

std::size_t Supervisor::check_watchdogs() {
  std::size_t restarted = 0;
  const auto now = std::chrono::steady_clock::now();
  for (auto& shard : shards_) {
    if (shard->up()) continue;
    if (options_.watchdog_deadline.count() > 0 &&
        now - shard->last_activity() < options_.watchdog_deadline) {
      continue;
    }
    if (shard->restart_now()) ++restarted;
  }
  return restarted;
}

ServiceShard& Supervisor::shard(std::size_t k) {
  EASCHED_EXPECTS(k < shards_.size());
  return *shards_[k];
}

const ServiceShard& Supervisor::shard(std::size_t k) const {
  EASCHED_EXPECTS(k < shards_.size());
  return *shards_[k];
}

void Supervisor::force_brownout_level(int level) {
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    shards_[k]->force_brownout_level(level);
    shard_level_[k]->store(shards_[k]->brownout_level(), std::memory_order_relaxed);
  }
  refresh_brownout_state();
}

int Supervisor::max_brownout_level() const {
  return max_brownout_.load(std::memory_order_relaxed);
}

void Supervisor::refresh_brownout_state() {
  int max_level = 0;
  for (const auto& level : shard_level_) {
    max_level = std::max(max_level, level->load(std::memory_order_relaxed));
  }
  max_brownout_.store(max_level, std::memory_order_relaxed);
  // One writer for the process-wide switch: tracing is disarmed while ANY
  // shard is at level >= 2, re-armed only when the whole fleet has cooled.
  obs::set_tracing_suppressed(max_level >= 2);
}

SupervisorStats Supervisor::stats() const {
  SupervisorStats total;
  total.requests_routed = requests_routed_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    const ShardStats s = shard->stats();
    total.restarts += s.restarts;
    total.crashes_contained += s.crashes_contained;
    total.unavailable_rejects += s.unavailable_rejects;
    total.brownout_sheds += s.brownout_sheds;
    total.compactions += s.compactions;
    total.restart_failures += s.restart_failures;
    if (shard->up()) ++total.shards_up;
    total.max_brownout_level = std::max(total.max_brownout_level, shard->brownout_level());
  }
  return total;
}

MetricsSnapshot Supervisor::metrics_snapshot() const {
  MetricsSnapshot merged;

  const SupervisorStats total = stats();
  merged.counters["supervisor_requests_total"] = total.requests_routed;
  merged.counters["shard_restarts_total"] = total.restarts;
  merged.counters["shard_crashes_contained_total"] = total.crashes_contained;
  merged.counters["shard_unavailable_rejects_total"] = total.unavailable_rejects;
  merged.counters["shard_brownout_sheds_total"] = total.brownout_sheds;
  merged.counters["shard_compactions_total"] = total.compactions;
  merged.counters["shard_restart_failures_total"] = total.restart_failures;
  merged.gauges["shards_up"] = static_cast<double>(total.shards_up);
  merged.gauges["shard_count"] = static_cast<double>(shards_.size());
  merged.gauges["brownout_level"] = static_cast<double>(total.max_brownout_level);

  for (std::size_t k = 0; k < shards_.size(); ++k) {
    const ServiceShard& shard = *shards_[k];
    const std::string prefix = "shard" + std::to_string(k) + "_";
    const ShardStats s = shard.stats();
    merged.gauges[prefix + "up"] = shard.up() ? 1.0 : 0.0;
    merged.gauges[prefix + "brownout_level"] = static_cast<double>(shard.brownout_level());
    merged.counters[prefix + "restarts_total"] = s.restarts;
    merged.counters[prefix + "crashes_contained_total"] = s.crashes_contained;
    merged.counters[prefix + "unavailable_rejects_total"] = s.unavailable_rejects;
    merged.counters[prefix + "brownout_sheds_total"] = s.brownout_sheds;
    merged.counters[prefix + "compactions_total"] = s.compactions;
    merged.counters[prefix + "restart_failures_total"] = s.restart_failures;

    const MetricsSnapshot inner = shard.metrics_snapshot();
    for (const auto& [name, value] : inner.counters) merged.counters[prefix + name] = value;
    for (const auto& [name, value] : inner.gauges) merged.gauges[prefix + name] = value;
    for (const auto& [name, value] : inner.histograms) merged.histograms[prefix + name] = value;
    for (const auto& [name, value] : inner.bucketed) merged.bucketed[prefix + name] = value;
  }
  return merged;
}

std::string Supervisor::prometheus() const { return obs::to_prometheus(metrics_snapshot()); }

}  // namespace easched
