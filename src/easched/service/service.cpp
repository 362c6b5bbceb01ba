#include "easched/service/service.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <stdexcept>

#include "easched/common/contracts.hpp"
#include "easched/faults/fault_injection.hpp"
#include "easched/service/brownout.hpp"
#include "easched/obs/trace.hpp"
#include "easched/parallel/exec.hpp"
#include "easched/parallel/thread_pool.hpp"
#include "easched/sched/feasibility.hpp"

namespace easched {

namespace {

double elapsed_us(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - since)
      .count();
}

double between_us(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Request ids in trace spans are `sequence + 1` (0 means "no request"), so
/// the first request of a stream is still visible in the trace.
std::uint64_t trace_request_id(std::uint64_t sequence) { return sequence + 1; }

/// Bucketed plan-latency metric per serving rung (static names, also used
/// as histogram keys in the registry).
const char* plan_latency_metric(PlanRung rung) {
  switch (rung) {
    case PlanRung::kExact:
      return "plan_latency_us_exact";
    case PlanRung::kDer:
      return "plan_latency_us_der";
    case PlanRung::kEven:
      return "plan_latency_us_even";
    case PlanRung::kNone:
      break;
  }
  return "plan_latency_us_none";
}

}  // namespace

SchedulerService::SchedulerService(const PowerModel& power, ServiceOptions options)
    : SchedulerService(power, std::move(options), nullptr) {}

SchedulerService::SchedulerService(const ServiceSnapshot& snapshot, const PowerModel& power,
                                   ServiceOptions options)
    : SchedulerService(power,
                       [&] {
                         options.cores = snapshot.cores;
                         return std::move(options);
                       }(),
                       &snapshot) {}

SchedulerService::SchedulerService(const PowerModel& power, ServiceOptions options,
                                   const ServiceSnapshot* base)
    : power_(power),
      options_(std::move(options)),
      queue_(options_.queue_capacity),
      cache_(options_.cache_capacity) {
  EASCHED_EXPECTS(options_.cores > 0);
  EASCHED_EXPECTS(options_.f_max > 0.0);
  EASCHED_EXPECTS(options_.max_batch > 0);
  EASCHED_EXPECTS(options_.signature_quantum > 0.0);
  // Fixed-bucket latency/size histograms, declared up front so they appear
  // in dumps and Prometheus exposition before the first observation.
  metrics_.declare_buckets("admission_latency_us", obs::default_latency_buckets_us());
  metrics_.declare_buckets("queue_wait_us", obs::default_latency_buckets_us());
  for (const PlanRung rung : {PlanRung::kExact, PlanRung::kDer, PlanRung::kEven}) {
    metrics_.declare_buckets(plan_latency_metric(rung), obs::default_latency_buckets_us());
  }
  metrics_.declare_buckets("queue_depth_seen", obs::pow2_buckets(16));
  metrics_.declare_buckets("plan_cache_hit_age", obs::pow2_buckets(24));
  metrics_.declare_buckets("plan_delta_latency_us", obs::default_latency_buckets_us());
  if (options_.incremental) {
    DeltaOptions delta_options;
    delta_options.cores = options_.cores;
    delta_planner_.emplace(power_, delta_options);
  }
  if (base != nullptr || !options_.journal_path.empty()) {
    std::lock_guard lock(state_mutex_);
    if (base != nullptr) {
      committed_ = base->committed;
      std::sort(committed_.begin(), committed_.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      next_id_ = base->next_id;
      for (const auto& [id, task] : committed_) {
        EASCHED_EXPECTS_MSG(id < next_id_, "snapshot id at or above next_id");
      }
      // Re-seed monotone counters from the snapshot *before* replay, so
      // replay increments (and the restore marker below) land on top of the
      // totals the previous incarnation had already accumulated.
      for (const auto& [name, value] : base->counters) metrics_.set_counter(name, value);
    }
    // The journal is the log of everything that happened since it was
    // compacted, so it replays *over* the snapshot base, once. The plan is
    // not restored: the first request derives it from the recovered set.
    replay_journal_locked();
    if (base != nullptr) metrics_.increment("restores_total");
    refresh_gauges_locked();
  }
  if (!options_.journal_path.empty()) journal_.emplace(options_.journal_path);
  if (!options_.manual_dispatch) {
    dispatcher_ = std::thread([this] { dispatcher_loop(); });
  }
}

SchedulerService::~SchedulerService() { shutdown(); }

std::future<ServiceDecision> SchedulerService::submit(const Task& task, std::string rid) {
  auto fut = queue_.push(task, std::move(rid));
  metrics_.increment("requests_total");
  return fut;
}

ServiceDecision SchedulerService::submit_wait(const Task& task, std::string rid) {
  auto fut = submit(task, std::move(rid));
  if (options_.manual_dispatch) pump();
  return fut.get();
}

AdmissionDecision SchedulerService::quote(const Task& task) {
  std::lock_guard lock(state_mutex_);
  metrics_.increment("quotes_total");
  const CachedPlan base = plan_for_committed_locked();
  return evaluate_locked(task, base.energy, /*commit=*/false, nullptr);
}

bool SchedulerService::complete(TaskId id) { return remove_committed(id, "completions_total"); }

bool SchedulerService::cancel(TaskId id) { return remove_committed(id, "cancellations_total"); }

std::vector<std::pair<TaskId, Task>>::iterator SchedulerService::find_committed_locked(
    TaskId id) {
  const auto it = std::lower_bound(committed_.begin(), committed_.end(), id,
                                   [](const auto& entry, TaskId key) { return entry.first < key; });
  return it != committed_.end() && it->first == id ? it : committed_.end();
}

bool SchedulerService::remove_committed(TaskId id, const char* counter) {
  std::lock_guard lock(state_mutex_);
  const auto it = find_committed_locked(id);
  if (it == committed_.end()) return false;
  committed_.erase(it);
  committed_signature_valid_ = false;
  if (journal_) journal_->append_complete(id);
  metrics_.increment(counter);
  refresh_gauges_locked();
  return true;
}

std::size_t SchedulerService::committed_count() const {
  std::lock_guard lock(state_mutex_);
  return committed_.size();
}

TaskSet SchedulerService::committed_task_set() const {
  std::lock_guard lock(state_mutex_);
  std::vector<Task> tasks;
  tasks.reserve(committed_.size());
  for (const auto& [id, task] : committed_) tasks.push_back(task);
  return TaskSet(std::move(tasks));
}

std::vector<TaskId> SchedulerService::committed_ids() const {
  std::lock_guard lock(state_mutex_);
  std::vector<TaskId> ids;
  ids.reserve(committed_.size());
  for (const auto& [id, task] : committed_) ids.push_back(id);
  return ids;
}

Schedule SchedulerService::current_plan() {
  std::lock_guard lock(state_mutex_);
  return plan_for_committed_locked().schedule;
}

double SchedulerService::current_energy() {
  std::lock_guard lock(state_mutex_);
  return plan_for_committed_locked().energy;
}

RuntimeReport SchedulerService::simulate_runtime(const RuntimeOptions& runtime_options) {
  TaskSet tasks;
  Schedule plan;
  {
    std::lock_guard lock(state_mutex_);
    std::vector<Task> committed;
    committed.reserve(committed_.size());
    for (const auto& [id, task] : committed_) committed.push_back(task);
    tasks = TaskSet(std::move(committed));
    if (!tasks.empty()) plan = plan_for_committed_locked().schedule;
    metrics_.increment("runtime_simulations_total");
  }
  if (tasks.empty()) {
    RuntimeReport empty;
    record_runtime_metrics(metrics_, empty);
    return empty;
  }
  const RuntimeReport report = run_runtime(tasks, plan, power_, runtime_options);
  record_runtime_metrics(metrics_, report);
  return report;
}

ServiceSnapshot SchedulerService::snapshot() {
  std::lock_guard lock(state_mutex_);
  ServiceSnapshot snap;
  snap.cores = options_.cores;
  snap.next_id = next_id_;
  snap.committed = committed_;
  metrics_.increment("snapshots_total");
  snap.counters = metrics_.snapshot().counters;
  return snap;
}

std::uint64_t SchedulerService::journal_size_bytes() const {
  return journal_ ? journal_->size_bytes() : 0;
}

std::size_t SchedulerService::pump() {
  EASCHED_EXPECTS_MSG(options_.manual_dispatch,
                      "pump() requires ServiceOptions::manual_dispatch");
  std::size_t processed = 0;
  for (;;) {
    auto batch = queue_.pop_all(options_.max_batch);
    if (batch.empty()) break;
    processed += batch.size();
    process_batch(std::move(batch));
  }
  return processed;
}

void SchedulerService::drain() {
  if (options_.manual_dispatch) {
    pump();
    return;
  }
  const std::uint64_t target = queue_.pushed();
  std::unique_lock lock(state_mutex_);
  // Requests decided at the queue (sheds, overload rejects, injected
  // drops) never reach a batch, so they count against the drain target via
  // `rejected_early()`. Both terms are monotone.
  drain_cv_.wait(lock, [this, target] {
    return decided_requests_ + queue_.rejected_early() >= target;
  });
}

void SchedulerService::shutdown() {
  if (shutdown_.exchange(true)) return;
  queue_.close();
  if (dispatcher_.joinable()) {
    dispatcher_.join();
  } else {
    // Manual mode: decide whatever is still queued.
    for (;;) {
      auto batch = queue_.pop_all(options_.max_batch);
      if (batch.empty()) break;
      process_batch(std::move(batch));
    }
  }
}

void SchedulerService::dispatcher_loop() {
  for (;;) {
    auto batch = queue_.pop_batch(options_.batch_window, options_.max_batch);
    if (batch.empty()) return;  // closed and drained
    try {
      process_batch(std::move(batch));
    } catch (const InjectedCrash&) {
      // Simulated process death: the dispatcher stops cold, in-flight
      // promises stay broken, and only journaled state survives — exactly
      // what a real crash leaves behind. Recovery is a new service over
      // the same journal.
      metrics_.increment("injected_crashes_total");
      return;
    }
  }
}

void SchedulerService::process_batch(std::vector<PendingRequest> batch) {
  if (!options_.manual_dispatch && options_.use_thread_pool) {
    // One pool job per batch: planning compute shares the machine-wide
    // worker budget with everything else built on the pool. The batch
    // stays reachable through `shared` so an injected job failure (which
    // fires *before* the job body runs) can be retried inline instead of
    // breaking every promise in the batch.
    auto shared = std::make_shared<std::vector<PendingRequest>>(std::move(batch));
    ThreadPool& pool = options_.pool != nullptr ? *options_.pool : ThreadPool::global();
    auto fut = pool.submit([this, shared]() mutable { run_batch(std::move(*shared)); });
    try {
      fut.get();
    } catch (const InjectedFault&) {
      metrics_.increment("batch_job_faults_total");
      run_batch(std::move(*shared));
    }
  } else {
    run_batch(std::move(batch));
  }
}

void SchedulerService::run_batch(std::vector<PendingRequest> batch) {
  const auto started = std::chrono::steady_clock::now();
  obs::Span batch_span("service.batch");
  batch_span.arg("requests", static_cast<double>(batch.size()));
  std::vector<std::pair<std::promise<ServiceDecision>, ServiceDecision>> outcomes;
  outcomes.reserve(batch.size());
  {
    std::lock_guard lock(state_mutex_);
    const std::uint64_t batch_index = batches_++;
    metrics_.increment("batches_total");
    metrics_.observe("batch_size", static_cast<double>(batch.size()));
    // Depth at pop time: this batch plus whatever is still waiting behind it.
    metrics_.observe_bucketed("queue_depth_seen",
                              static_cast<double>(batch.size() + queue_.depth()));

    // One baseline per batch, chained through the accepted candidates. A
    // baseline planning failure fails the whole batch with a reasoned
    // per-request rejection (never a hang, never an invalid plan).
    double energy_before = 0.0;
    bool baseline_failed = false;
    std::string baseline_reason;
    try {
      energy_before = plan_for_committed_locked().energy;
    } catch (const PlanningError& e) {
      baseline_failed = true;
      baseline_reason = e.what();
    }

    for (PendingRequest& request : batch) {
      // Everything this request does — planning spans included — is tagged
      // with its id and nests under its lifecycle span.
      obs::RequestScope request_scope(trace_request_id(request.sequence));
      obs::Span request_span("service.request");
      request_span.arg("sequence", static_cast<double>(request.sequence));
      const auto request_started = std::chrono::steady_clock::now();
      if (request.enqueued_at.time_since_epoch().count() != 0) {
        obs::emit("service.queue_wait", request.enqueued_at, request_started,
                  trace_request_id(request.sequence));
        metrics_.observe_bucketed("queue_wait_us",
                                  between_us(request.enqueued_at, request_started));
      }
      ServiceDecision decision;
      decision.sequence = request.sequence;
      decision.batch = batch_index;
      decision.brownout_level = brownout_level_.load(std::memory_order_relaxed);
      // A rid the journal cannot store would split its admit record on
      // replay — losing the dedup key or the whole acked admit — so it is
      // refused here, where every admission path converges, before
      // anything is planned or journaled.
      const bool bad_rid = !storable_request_id(request.rid);
      // Idempotent re-admission: a rid the service has already committed —
      // in this incarnation or any journaled predecessor — replays the
      // original ack instead of evaluating (and double-committing) again.
      if (!request.rid.empty() && !bad_rid) {
        if (const auto hit = dedup_.find(request.rid); hit != dedup_.end()) {
          decision.admission.admitted = true;
          decision.id = hit->second;
          decision.deduplicated = true;
          decision.retired = find_committed_locked(hit->second) == committed_.end();
          metrics_.increment("request_dedup_hits_total");
          request_span.set_status("deduplicated");
          outcomes.emplace_back(std::move(request.promise), std::move(decision));
          continue;
        }
      }
      if (bad_rid) {
        decision.admission.rejection_reason =
            "invalid request id (no byte <= 0x20 or 0x7f allowed)";
        decision.error_kind = AdmissionErrorKind::kInvalid;
      } else {
        try {
          if (baseline_failed) throw PlanningError(baseline_reason);
          decision.admission = evaluate_locked(request.task, energy_before, /*commit=*/true,
                                               &decision.id, &decision.plan_rung);
        } catch (const InjectedCrash&) {
          // Crash simulation must observe real durability: rethrow so the
          // "process" dies here with this decision unacknowledged.
          throw;
        } catch (const PlanningError& e) {
          decision.admission.admitted = false;
          decision.admission.rejection_reason = std::string("planning failed: ") + e.what();
          decision.error_kind = AdmissionErrorKind::kPlanning;
        } catch (const ContractViolation& e) {
          decision.admission.admitted = false;
          decision.admission.rejection_reason = std::string("admission error: ") + e.what();
          decision.error_kind = AdmissionErrorKind::kContract;
        } catch (const std::exception& e) {
          decision.admission.admitted = false;
          decision.admission.rejection_reason = std::string("admission error: ") + e.what();
          decision.error_kind = AdmissionErrorKind::kInternal;
        }
      }
      if (decision.error_kind != AdmissionErrorKind::kNone) {
        metrics_.increment("admission_errors_total");
        metrics_.increment(std::string("admission_errors_by_kind_") +
                           std::string(admission_error_kind_name(decision.error_kind)));
      }
      if (decision.admission.admitted) {
        // Write-ahead: the admit is durable before its promise is
        // fulfilled below, so every acknowledged admit survives a crash.
        // The rid rides inside the admit record — there is no crash window
        // in which the admit is durable but its dedup key is not.
        if (journal_) {
          obs::Span journal_span("service.journal_append");
          journal_->append_admit(decision.id, request.task, request.rid);
        }
        if (!request.rid.empty()) dedup_[request.rid] = decision.id;
        energy_before = decision.admission.energy_after;
        metrics_.increment("admitted_total");
        metrics_.observe("quoted_marginal_energy", decision.admission.marginal_energy);
        request_span.set_status("admitted");
      } else {
        metrics_.increment("rejected_total");
        request_span.set_status("rejected");
      }
      // Admission latency covers the full client-visible wait so far:
      // queue time plus evaluation (the reply fires right after the lock).
      if (request.enqueued_at.time_since_epoch().count() != 0) {
        metrics_.observe_bucketed("admission_latency_us", elapsed_us(request.enqueued_at));
      }
      outcomes.emplace_back(std::move(request.promise), std::move(decision));
    }
    decided_requests_ += outcomes.size();
    metrics_.observe("replan_latency_us", elapsed_us(started));
    refresh_gauges_locked();
  }
  // Fulfill promises outside the state lock: a client continuation may call
  // straight back into the service.
  for (auto& [promise, decision] : outcomes) {
    obs::RequestScope request_scope(trace_request_id(decision.sequence));
    obs::Span reply_span("service.reply");
    promise.set_value(std::move(decision));
  }
  drain_cv_.notify_all();
}

FallbackOptions SchedulerService::fallback_options() const {
  FallbackOptions fo;
  fo.try_exact = options_.exact_first;
  if (options_.plan_budget.count() > 0) {
    fo.budget.deadline = PlanBudget::Clock::now() + options_.plan_budget;
  }
  fo.budget.max_solver_iterations = options_.plan_max_iterations;
  // The brownout ladder trims the chain from the top: level ≥ 1 drops the
  // exact rung, level ≥ 2 enters the heuristics at F1.
  const int brownout = brownout_level_.load(std::memory_order_relaxed);
  if (brownout >= 1) fo.try_exact = false;
  if (brownout >= 2) fo.first_heuristic = PlanRung::kEven;
  return fo;
}

CachedPlan SchedulerService::plan_set_locked(const std::vector<std::pair<TaskId, Task>>& live,
                                             const std::string& raw_signature) {
  if (live.empty()) {
    CachedPlan empty;
    empty.schedule = Schedule(options_.cores);
    empty.rung = PlanRung::kNone;
    return empty;
  }
  // Salt the cache key with the brownout level: a degraded (F2- or F1-only)
  // plan cached at level > 0 must never be served as the full-service plan
  // of the same set once load recedes — and vice versa.
  const int brownout = brownout_level_.load(std::memory_order_relaxed);
  std::string salted;
  if (brownout > 0) {
    salted.reserve(raw_signature.size() + 3);
    salted = raw_signature;
    salted += "|b";
    salted += static_cast<char>('0' + brownout);
  }
  const std::string& signature = brownout > 0 ? salted : raw_signature;
  std::uint64_t hit_age = 0;
  if (auto hit = cache_.lookup(signature, &hit_age)) {
    metrics_.increment("plan_cache_hits_total");
    metrics_.observe_bucketed("plan_cache_hit_age", static_cast<double>(hit_age));
    return *hit;
  }
  metrics_.increment("plan_cache_misses_total");
  std::vector<Task> tasks;
  tasks.reserve(live.size());
  for (const auto& [id, task] : live) tasks.push_back(task);
  const TaskSet task_set(std::move(tasks));

  // Delta fast path: with the exact rung off, a cache miss whose set is a
  // few ops away from the previously planned one is spliced instead of
  // re-planned. The planner's exactness contract makes the served plan
  // bit-identical to the fallback chain's DER rung, so this changes
  // latency, never answers. Any validation or planner failure invalidates
  // the planner and falls through to the ordinary chain.
  if (delta_planner_ && !options_.exact_first && brownout < 2) {
    obs::Span delta_span("service.plan_delta");
    delta_span.arg("tasks", static_cast<double>(live.size()));
    const auto delta_started = std::chrono::steady_clock::now();
    try {
      DeltaOutcome outcome;
      DeltaPlan delta = delta_planner_->plan_to(task_set, kernel_exec(), &outcome);
      const ValidationReport report = delta.schedule.validate(task_set);
      if (report.ok && std::isfinite(delta.energy)) {
        const double spent = elapsed_us(delta_started);
        metrics_.observe_bucketed("plan_delta_latency_us", spent);
        metrics_.observe_bucketed(plan_latency_metric(PlanRung::kDer), spent);
        metrics_.increment(outcome.delta ? "plan_delta_hits_total" : "plan_delta_full_total");
        metrics_.increment("plans_by_rung_der");
        delta_span.arg("ops", static_cast<double>(outcome.ops));
        delta_span.set_status(outcome.delta ? "delta" : "rebuild");
        CachedPlan plan{delta.energy, std::move(delta.schedule), PlanRung::kDer};
        cache_.insert(signature, plan);
        return plan;
      }
      delta_planner_->invalidate();
      metrics_.increment("plan_delta_fallbacks_total");
      delta_span.set_status("invalid");
    } catch (const InjectedCrash&) {
      delta_planner_->invalidate();
      throw;
    } catch (const std::exception&) {
      delta_planner_->invalidate();
      metrics_.increment("plan_delta_fallbacks_total");
      delta_span.set_status("failed");
    }
  }

  obs::Span plan_span("service.plan");
  plan_span.arg("tasks", static_cast<double>(live.size()));
  const auto plan_started = std::chrono::steady_clock::now();
  FallbackOptions chain_options = fallback_options();
  // With both knobs on, seed the exact rung from the delta planner's
  // refined F2 allocation of this very set — a feasible near-optimal
  // iterate the splice keeps cheap to maintain. A planner failure just
  // means a cold start.
  std::optional<Availability> warm_hint;
  if (delta_planner_ && options_.exact_first && options_.warm_start_exact) {
    try {
      delta_planner_->plan_to(task_set, kernel_exec());
      warm_hint.emplace(delta_planner_->refined_allocation());
      chain_options.exact.warm_start = &*warm_hint;
    } catch (const InjectedCrash&) {
      delta_planner_->invalidate();
      throw;
    } catch (const std::exception&) {
      delta_planner_->invalidate();
    }
  }
  const FallbackPlan planned =
      plan_with_fallback(task_set, options_.cores, power_, chain_options, kernel_exec());
  metrics_.observe_bucketed(plan_latency_metric(planned.outcome.served),
                            elapsed_us(plan_started));
  plan_span.set_status(plan_rung_name(planned.outcome.served).data());
  for (const RungAttempt& attempt : planned.outcome.attempts) {
    if (!attempt.served) {
      metrics_.increment(std::string("fallback_rung_failures_") +
                         std::string(plan_rung_name(attempt.rung)));
    }
  }
  if (planned.outcome.rejected()) {
    metrics_.increment("planning_failures_total");
    throw PlanningError(planned.outcome.reason());
  }
  metrics_.increment(std::string("plans_by_rung_") +
                     std::string(plan_rung_name(planned.outcome.served)));
  if (planned.outcome.degraded()) metrics_.increment("fallback_degraded_total");
  CachedPlan plan{planned.energy, planned.schedule, planned.outcome.served};
  cache_.insert(signature, plan);
  return plan;
}

CachedPlan SchedulerService::plan_for_committed_locked() {
  return plan_set_locked(committed_, committed_signature_locked());
}

const std::string& SchedulerService::committed_signature_locked() {
  if (!committed_signature_valid_) {
    committed_signature_ = plan_signature(committed_, options_.signature_quantum);
    committed_signature_valid_ = true;
  }
  return committed_signature_;
}

void SchedulerService::replay_journal_locked() {
  if (options_.journal_path.empty()) return;
  JournalRecovery recovery = AdmissionJournal::recover(options_.journal_path);
  // Before anything appends: a record appended onto a torn tail would fail
  // its checksum on the next replay, losing an admit this incarnation acked.
  AdmissionJournal::trim_to_replayed(options_.journal_path, recovery);
  replayed_corruptions_ = recovery.corruptions.size();
  if (recovery.records == 0 && recovery.dropped_lines == 0 && recovery.corruptions.empty()) {
    return;
  }
  // One merge of three id-sorted lists: a base entry the journal re-admits
  // takes the journal's task, one it removed is dropped (a task the journal
  // saw completed must not survive from a snapshot base), the rest stay.
  std::vector<std::pair<TaskId, Task>> merged;
  merged.reserve(committed_.size() + recovery.committed.size());
  auto admitted = recovery.committed.begin();
  auto removed = recovery.removed_ids.begin();
  for (const auto& entry : committed_) {
    while (admitted != recovery.committed.end() && admitted->first < entry.first) {
      merged.push_back(*admitted++);
    }
    if (admitted != recovery.committed.end() && admitted->first == entry.first) {
      merged.push_back(*admitted++);
      continue;
    }
    while (removed != recovery.removed_ids.end() && *removed < entry.first) ++removed;
    if (removed == recovery.removed_ids.end() || *removed != entry.first) merged.push_back(entry);
  }
  merged.insert(merged.end(), admitted, recovery.committed.end());
  committed_ = std::move(merged);
  next_id_ = std::max(next_id_, recovery.next_id);
  // Re-seed the dedup map: a client retrying an admit that was acked by the
  // previous incarnation must get the same id back, not a second commit.
  dedup_.reserve(dedup_.size() + recovery.request_ids.size());
  for (auto& [rid, id] : recovery.request_ids) dedup_.insert_or_assign(std::move(rid), id);
  committed_signature_valid_ = false;
  metrics_.increment("journal_replays_total");
  metrics_.increment("journal_records_replayed_total", recovery.records);
  if (recovery.dropped_lines > 0) {
    metrics_.increment("journal_torn_lines_total", recovery.dropped_lines);
  }
  // Mid-file corruption is damage, not a torn tail: count it loudly (the
  // supervisor alerts on this counter) but keep every valid record.
  if (!recovery.corruptions.empty()) {
    metrics_.increment("journal_corruption_total", recovery.corruptions.size());
  }
  metrics_.set_gauge("journal_recovered_tasks", static_cast<double>(recovery.committed.size()));
}

Exec SchedulerService::kernel_exec() const {
  if (!options_.use_thread_pool) return Exec::serial();
  return options_.pool != nullptr ? Exec::on(*options_.pool) : Exec::global();
}

AdmissionDecision SchedulerService::evaluate_locked(const Task& candidate,
                                                    double energy_before, bool commit,
                                                    TaskId* out_id, PlanRung* out_rung) {
  // Mirrors `admit_task` decision for decision parity with sequential
  // per-request admission (the batched-determinism contract); the energy
  // baseline is chained in by the caller instead of recomputed.
  AdmissionDecision decision;
  decision.energy_before = energy_before;

  if (!(std::isfinite(candidate.release) && std::isfinite(candidate.deadline) &&
        std::isfinite(candidate.work)) ||
      candidate.work <= 0.0 || candidate.deadline <= candidate.release) {
    decision.rejection_reason = "malformed task (need work > 0 and deadline > release)";
    return decision;
  }
  if (std::isfinite(options_.f_max) && candidate.intensity() > options_.f_max) {
    decision.rejection_reason = "task needs more than the frequency ceiling even running alone";
    return decision;
  }

  std::vector<std::pair<TaskId, Task>> merged = committed_;
  merged.emplace_back(next_id_, candidate);
  std::vector<Task> merged_tasks;
  merged_tasks.reserve(merged.size());
  for (const auto& [id, task] : merged) merged_tasks.push_back(task);
  const TaskSet all(std::move(merged_tasks));

  if (std::isfinite(options_.f_max)) {
    const FeasibilityReport report = check_feasibility(all, options_.cores, options_.f_max);
    if (!report.feasible) {
      decision.rejection_reason =
          report.violated_conditions.empty()
              ? "no migrating schedule fits at the frequency ceiling (flow test)"
              : report.violated_conditions.front();
      return decision;
    }
  }

  // The candidate's id is the largest in `merged`, so the merged signature
  // is the committed one plus a single appended fragment — O(1) on top of
  // the memoized committed signature instead of an O(n) rebuild per request.
  std::string merged_signature = committed_signature_locked();
  append_plan_signature(merged_signature, next_id_, candidate, options_.signature_quantum);

  // Plan the merged set through the cache and the fallback chain. A prior
  // quote of the same candidate against the same committed set left this
  // plan behind, so an admit after a quote re-plans nothing. Throws
  // `PlanningError` when every rung fails — the caller converts that into
  // a reasoned rejection.
  const CachedPlan plan = plan_set_locked(merged, merged_signature);

  decision.admitted = true;
  decision.energy_after = plan.energy;
  decision.marginal_energy = decision.energy_after - decision.energy_before;
  if (out_rung != nullptr) *out_rung = plan.rung;
  if (commit) {
    if (out_id != nullptr) *out_id = next_id_;
    committed_ = std::move(merged);
    // The merged signature *is* the new committed signature.
    committed_signature_ = std::move(merged_signature);
    committed_signature_valid_ = true;
    ++next_id_;
  }
  return decision;
}

void SchedulerService::set_brownout_level(int level) {
  const int clamped = std::clamp(level, 0, kBrownoutMaxLevel);
  const int previous = brownout_level_.exchange(clamped, std::memory_order_relaxed);
  if (previous != clamped) {
    metrics_.increment("brownout_transitions_total");
    metrics_.set_gauge("brownout_level", static_cast<double>(clamped));
  }
}

std::optional<JournalCompaction> SchedulerService::compact_journal() {
  std::lock_guard lock(state_mutex_);
  if (!journal_) return std::nullopt;
  // Deterministic record order: dedup entries sorted by rid.
  std::vector<std::pair<std::string, TaskId>> dedup(dedup_.begin(), dedup_.end());
  std::sort(dedup.begin(), dedup.end());
  const JournalCompaction result = journal_->compact(next_id_, committed_, dedup);
  metrics_.increment("journal_compactions_total");
  metrics_.set_gauge("journal_size_bytes", static_cast<double>(result.bytes_after));
  return result;
}

void SchedulerService::refresh_gauges_locked() {
  double work = 0.0;
  for (const auto& [id, task] : committed_) work += task.work;
  metrics_.set_gauge("committed_tasks", static_cast<double>(committed_.size()));
  metrics_.set_gauge("committed_work", work);
  metrics_.set_gauge("queue_depth", static_cast<double>(queue_.depth()));
  metrics_.set_gauge("plan_cache_size", static_cast<double>(cache_.size()));
  metrics_.set_gauge("plan_cache_hit_rate", cache_.hit_rate());
  metrics_.set_gauge("queue_shed_total", static_cast<double>(queue_.shed()));
  metrics_.set_gauge("queue_overload_rejected_total",
                     static_cast<double>(queue_.overload_rejected()));
  metrics_.set_gauge("queue_fault_dropped_total", static_cast<double>(queue_.fault_dropped()));
  metrics_.set_gauge("queue_fault_duplicated_total",
                     static_cast<double>(queue_.fault_duplicated()));
}

}  // namespace easched
