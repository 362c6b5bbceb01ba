#include "easched/service/shard.hpp"

#include <algorithm>
#include <utility>

#include "easched/common/contracts.hpp"
#include "easched/faults/fault_injection.hpp"

namespace easched {

namespace {

/// Laxity share of a request's window; level 3 sheds below the floor.
double slack_ratio(const Task& task) {
  const double window = task.window();
  return window > 0.0 ? (window - task.work) / window : 0.0;
}

}  // namespace

void BringUpOrder::wait(std::size_t index) {
  std::unique_lock lock(mutex_);
  passed_.wait(lock, [&] { return next_ >= index; });
}

void BringUpOrder::pass(std::size_t index) {
  std::unique_lock lock(mutex_);
  passed_.wait(lock, [&] { return next_ >= index; });
  if (next_ != index) return;
  ++next_;
  lock.unlock();
  passed_.notify_all();
}

ServiceShard::ServiceShard(const PowerModel& power, ShardOptions options, BringUpOrder* order)
    : power_(power),
      options_(std::move(options)),
      submit_site_("shard" + std::to_string(options_.index) + ".submit"),
      restart_site_("shard" + std::to_string(options_.index) + ".restart.replay"),
      ladder_(options_.brownout) {
  EASCHED_EXPECTS_MSG(!options_.journal_path.empty(),
                      "a supervised shard needs a journal to recover from");
  last_activity_ = std::chrono::steady_clock::now();
  std::lock_guard lock(mutex_);
  // A crash injected into the first bring-up leaves the shard down with an
  // immediate-retry countdown — the same lazy-recovery path as any later
  // crash — rather than failing construction.
  start_service_locked(order);
}

ServiceShard::~ServiceShard() = default;

std::vector<ServiceDecision> ServiceShard::submit_batch(
    const std::vector<ServiceRequest>& items, std::size_t pressure) {
  std::vector<ServiceDecision> out(items.size());
  if (items.empty()) return out;
  std::lock_guard lock(mutex_);
  if (!service_ && !tick_down_locked()) {
    for (ServiceDecision& decision : out) {
      decision = unavailable_decision_locked("shard down (restart scheduled)");
    }
    return out;
  }

  // One brownout observation for the whole batch: the ladder sees the burst
  // as one pressure sample.
  if (options_.brownout_enabled) apply_brownout_locked(ladder_.observe(pressure));
  const int level = ladder_.level();

  // The arrivals that survive the shed, up to an arrival crash, go to the
  // service as one call: that is what buys the batch its one-baseline
  // amortization in the inner service.
  std::vector<ServiceRequest> arrived;
  std::vector<std::size_t> arrived_at;  // item index of each arrival
  arrived.reserve(items.size());
  arrived_at.reserve(items.size());
  std::size_t crashed_at = items.size();
  bool crashed = false;
  std::string crash_reason;
  std::uint64_t restart_after = 0;
  const auto record_crash = [&](const InjectedCrash& crash) {
    crashed = true;
    crash_reason = std::string("shard crashed at ") + crash.point();
    restart_after = crash.restart_after();
  };
  for (std::size_t i = 0; i < items.size(); ++i) {
    const ServiceRequest& item = items[i];
    if (level >= kBrownoutMaxLevel && slack_ratio(item.task) < ladder_.options().shed_slack) {
      ++stats_.brownout_sheds;
      ServiceDecision shed;
      shed.error_kind = AdmissionErrorKind::kOverload;
      shed.admission.admitted = false;
      shed.admission.rejection_reason = "brownout shed (level 3, lowest laxity)";
      shed.brownout_level = level;
      out[i] = std::move(shed);
      continue;
    }
    try {
      // Arrival crash site: fires before anything is committed, so a kill
      // here loses nothing a client was ever acked for. Both the fleet-wide
      // and the shard-addressed name are consulted.
      faults::kill_point("shard.submit");
      faults::kill_point(submit_site_);
    } catch (const InjectedCrash& crash) {
      // Arrival crash at item i: items before i arrived before the
      // "process" died and are decided below; i and everything after it is
      // answered unavailable (retryable, same rid).
      crashed_at = i;
      record_crash(crash);
      break;
    }
    arrived.push_back(item);
    arrived_at.push_back(i);
  }

  std::vector<std::optional<ServiceDecision>> decided;
  if (!arrived.empty()) {
    try {
      service_->submit_batch(arrived, decided);
    } catch (const InjectedCrash& crash) {
      record_crash(crash);
    }
  }
  if (crashed) {
    ++stats_.crashes_contained;
    mark_down_locked(restart_after);
  }

  // An arrival the service left undecided died with it; journaled work (if
  // any) survives, so a same-rid retry dedups instead of re-committing.
  for (std::size_t j = 0; j < arrived_at.size(); ++j) {
    if (decided[j]) {
      decided[j]->brownout_level = level;
      out[arrived_at[j]] = std::move(*decided[j]);
    } else {
      out[arrived_at[j]] = unavailable_decision_locked(crash_reason);
    }
  }
  for (std::size_t i = crashed_at; i < items.size(); ++i) {
    out[i] = unavailable_decision_locked(crash_reason);
  }

  last_activity_ = std::chrono::steady_clock::now();
  if (!crashed) compact_if_over_threshold_locked();
  return out;
}

std::optional<bool> ServiceShard::complete(TaskId id) {
  std::lock_guard lock(mutex_);
  if (!service_ && !tick_down_locked()) return std::nullopt;
  try {
    const bool ok = service_->complete(id);
    last_activity_ = std::chrono::steady_clock::now();
    compact_if_over_threshold_locked();
    return ok;
  } catch (const InjectedCrash& crash) {
    ++stats_.crashes_contained;
    mark_down_locked(crash.restart_after());
    return std::nullopt;
  }
}

std::optional<bool> ServiceShard::cancel(TaskId id) {
  std::lock_guard lock(mutex_);
  if (!service_ && !tick_down_locked()) return std::nullopt;
  try {
    const bool ok = service_->cancel(id);
    last_activity_ = std::chrono::steady_clock::now();
    compact_if_over_threshold_locked();
    return ok;
  } catch (const InjectedCrash& crash) {
    ++stats_.crashes_contained;
    mark_down_locked(crash.restart_after());
    return std::nullopt;
  }
}

std::optional<AdmissionDecision> ServiceShard::quote(const Task& task) {
  std::lock_guard lock(mutex_);
  if (!service_ && !tick_down_locked()) return std::nullopt;
  try {
    const AdmissionDecision decision = service_->quote(task);
    last_activity_ = std::chrono::steady_clock::now();
    return decision;
  } catch (const InjectedCrash& crash) {
    ++stats_.crashes_contained;
    mark_down_locked(crash.restart_after());
    return std::nullopt;
  }
}

std::optional<RuntimeReport> ServiceShard::simulate_runtime(
    const RuntimeOptions& runtime_options) {
  std::lock_guard lock(mutex_);
  if (!service_ && !tick_down_locked()) return std::nullopt;
  try {
    RuntimeReport report = service_->simulate_runtime(runtime_options);
    last_activity_ = std::chrono::steady_clock::now();
    return report;
  } catch (const InjectedCrash& crash) {
    ++stats_.crashes_contained;
    mark_down_locked(crash.restart_after());
    return std::nullopt;
  }
}

bool ServiceShard::up() const {
  std::lock_guard lock(mutex_);
  return service_ != nullptr;
}

std::size_t ServiceShard::committed_count() const {
  std::lock_guard lock(mutex_);
  return service_ ? service_->committed_count() : 0;
}

std::vector<TaskId> ServiceShard::committed_ids() const {
  std::lock_guard lock(mutex_);
  return service_ ? service_->committed_ids() : std::vector<TaskId>{};
}

TaskId ServiceShard::next_id() const {
  std::lock_guard lock(mutex_);
  return service_ ? service_->next_id() : 0;
}

TaskSet ServiceShard::committed_task_set() const {
  std::lock_guard lock(mutex_);
  return service_ ? service_->committed_task_set() : TaskSet{};
}

Schedule ServiceShard::current_plan() {
  std::lock_guard lock(mutex_);
  return service_ ? service_->current_plan() : Schedule(options_.service.cores);
}

double ServiceShard::current_energy() {
  std::lock_guard lock(mutex_);
  return service_ ? service_->current_energy() : 0.0;
}

int ServiceShard::brownout_level() const {
  std::lock_guard lock(mutex_);
  return ladder_.level();
}

ShardStats ServiceShard::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

MetricsSnapshot ServiceShard::metrics_snapshot() const {
  std::lock_guard lock(mutex_);
  return service_ ? service_->metrics().snapshot() : MetricsSnapshot{};
}

void ServiceShard::force_brownout_level(int level) {
  std::lock_guard lock(mutex_);
  ladder_.force(level);
  apply_brownout_locked(ladder_.level());
}

std::chrono::steady_clock::time_point ServiceShard::last_activity() const {
  std::lock_guard lock(mutex_);
  return last_activity_;
}

bool ServiceShard::restart_now() {
  std::lock_guard lock(mutex_);
  if (service_) return true;
  restart_countdown_ = 0;
  return start_service_locked();
}

bool ServiceShard::start_service_locked(BringUpOrder* order) {
  try {
    ServiceOptions service_options = options_.service;
    service_options.journal_path = options_.journal_path;
    // Mid-restart crash site, before journal replay (inside the service
    // constructor). A kill here leaves the shard down; the next routed op
    // retries recovery from scratch.
    if (order != nullptr) order->wait(options_.index);
    try {
      faults::kill_point("shard.restart.replay");
      faults::kill_point(restart_site_);
    } catch (const InjectedCrash&) {
      if (order != nullptr) order->pass(options_.index);
      throw;
    }
    if (order != nullptr) order->pass(options_.index);
    service_ = std::make_unique<SchedulerService>(power_, service_options);
    // A restarted incarnation resumes at the ladder's current level.
    if (ladder_.level() > 0) service_->set_brownout_level(ladder_.level());
    if (stats_.crashes_contained + stats_.restart_failures > 0) ++stats_.restarts;
    // The journal is rewritten only when it needs to be: replay skipped
    // corrupt records, which compaction drops, or it is past the threshold
    // every op checks.
    if (service_->replayed_corruptions() > 0 || journal_over_threshold_locked()) {
      compact_locked();
    }
    // The export always names the recovered state, id counter included
    // (the e2e benchmark's replay reads it from there).
    if (!options_.snapshot_path.empty()) {
      write_snapshot(options_.snapshot_path, service_->snapshot());
    }
    last_activity_ = std::chrono::steady_clock::now();
    return true;
  } catch (const InjectedCrash&) {
    ++stats_.restart_failures;
    service_.reset();
    restart_countdown_ = 0;  // the next routed op retries immediately
    return false;
  }
}

void ServiceShard::mark_down_locked(std::uint64_t restart_after) {
  // The service holds no request between calls, so tearing it down decides
  // nothing more: only what it journaled before the crash survives.
  service_.reset();
  restart_countdown_ = restart_after;
}

bool ServiceShard::tick_down_locked() {
  if (restart_countdown_ > 0) {
    --restart_countdown_;
    ++stats_.unavailable_rejects;
    return false;
  }
  if (!start_service_locked()) {
    ++stats_.unavailable_rejects;
    return false;
  }
  return true;
}

void ServiceShard::compact_locked() {
  if (const auto compaction = service_->compact_journal()) {
    ++stats_.compactions;
    compact_floor_bytes_ = compaction->bytes_after;
  }
}

bool ServiceShard::journal_over_threshold_locked() const {
  if (options_.journal_compact_bytes == 0) return false;
  // Hysteresis (see `compact_floor_bytes_`): durable state the compacted
  // log must keep can sit above the configured threshold; only re-compact
  // once the journal has doubled past the last compaction's result.
  const std::uint64_t threshold =
      std::max(options_.journal_compact_bytes, 2 * compact_floor_bytes_);
  return service_->journal_size_bytes() > threshold;
}

void ServiceShard::compact_if_over_threshold_locked() {
  if (journal_over_threshold_locked()) compact_locked();
}

void ServiceShard::apply_brownout_locked(int level) {
  if (service_ && service_->brownout_level() != level) service_->set_brownout_level(level);
}

ServiceDecision ServiceShard::unavailable_decision_locked(std::string reason) {
  ServiceDecision decision;
  decision.error_kind = AdmissionErrorKind::kUnavailable;
  decision.admission.admitted = false;
  decision.admission.rejection_reason = std::move(reason);
  decision.brownout_level = ladder_.level();
  return decision;
}

}  // namespace easched
