#pragma once

/// \file service.hpp
/// \brief A long-lived scheduling service: batched admission over a
///        committed task set, with plan caching and metrics.
///
/// Every other entry point in this repository is one-shot: build a task
/// set, plan it, exit. `SchedulerService` is the first component shaped
/// like a deployment — a daemon that owns the set of admitted tasks and
/// serves concurrent requests for the paper's runtime-facing questions:
/// *can this new task join?* (admission + energy quote), *what is the
/// current plan?*, and *how is the service doing?* (metrics).
///
/// Three mechanisms make it serve sustained traffic cheaply:
///
///  1. **Batched admission on the caller's thread.** An admission call
///     (`submit`, or `submit_batch` for many items) is decided on the
///     calling thread under the state lock, in chunks of `max_batch`: the
///     energy baseline of the committed set is computed once per chunk
///     (usually a cache hit) and chained through the chunk's accepted
///     candidates, instead of being re-derived per request the way
///     standalone `admit_task` must. Requests are decided in arrival order,
///     so the accept/reject outcome is byte-identical to applying the same
///     requests sequentially — batching buys throughput, never different
///     answers.
///
///  2. **Plan caching.** F2 plans are memoized by a quantized signature of
///     the committed set (see `plan_cache.hpp`). Quotes, plan reads, and
///     the per-chunk baseline all hit the cache while the set is unchanged;
///     admits/completions/cancellations change the signature and thereby
///     invalidate structurally.
///
///  3. **Planning on the caller's thread.** Every plan (admits, quotes,
///     `current_plan`) runs serially on the thread that holds the state
///     lock: at a shard's sizes, fanning the kernel out over a pool costs
///     more than the work it splits. Parallelism comes from running many
///     services (shards) side by side.
///
/// **Recovery.** With a `journal_path`, every admit is written ahead (and
/// flushed) to the journal before its decision is returned, and
/// construction replays the journal into an empty committed set: the
/// journal alone holds the live tasks, the id counter and the rid dedup
/// ledger (`journal.hpp`), so a crashed service restarts with every
/// acknowledged admit intact. Nothing is planned during recovery; the first
/// request that needs the plan derives it from the recovered set. Metric
/// counters start from zero in every incarnation, as ordinary Prometheus
/// counters do across a process restart.
///
/// **Failure model.** A plan-cache miss runs the fallback chain of
/// `sched/fallback.hpp` once (optionally exact-first under a `PlanBudget`),
/// with the service's delta planner as its F2 rung, so a misbehaving solver
/// degrades a plan instead of stalling the service; the chain's validator
/// guarantee means an invalid plan is never served.
/// Injected faults (`faults/fault_injection.hpp`) surface as structured
/// error kinds on decisions — except `InjectedCrash`, which is *never*
/// swallowed: it propagates out of the admission call (simulating the
/// process dying) so crash tests observe exactly what durability survived.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "easched/common/math.hpp"
#include "easched/power/power_model.hpp"
#include "easched/runtime/runtime.hpp"
#include "easched/sched/admission.hpp"
#include "easched/sched/fallback.hpp"
#include "easched/sched/incremental.hpp"
#include "easched/sched/schedule.hpp"
#include "easched/service/decision.hpp"
#include "easched/service/journal.hpp"
#include "easched/service/metrics.hpp"
#include "easched/service/plan_cache.hpp"
#include "easched/service/snapshot.hpp"
#include "easched/solver/plan_budget.hpp"
#include "easched/tasksys/task_set.hpp"

namespace easched {

/// Thrown when every rung of the fallback chain fails for a set that must
/// be planned (the committed baseline or a merged candidate set). Batch
/// processing converts it into a reasoned rejection with
/// `AdmissionErrorKind::kPlanning`; direct readers (`current_plan`,
/// `current_energy`, `quote`) let it propagate.
class PlanningError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Tunables of a `SchedulerService`.
struct ServiceOptions {
  int cores = 4;
  /// Platform frequency ceiling; `kInf` models the ideal continuous
  /// platform (admission then only rejects malformed requests).
  double f_max = kInf;
  /// Hard cap on requests decided against one energy baseline; a longer
  /// admission call is decided in chunks of this size.
  std::size_t max_batch = 64;
  /// Plan cache entries (0 disables caching).
  std::size_t cache_capacity = 128;
  /// Try the exact convex solve as the top rung of every planning pass,
  /// falling back to F2 → F1 when it fails or runs out of budget. Off by
  /// default: the heuristic-only chain reproduces the pre-fallback plans
  /// bit-for-bit. Either way the F2 rung is the incremental delta planner
  /// (`sched/incremental.hpp`), whose plans are bit-identical to a
  /// from-scratch F2 plan.
  bool exact_first = false;
  /// Wall-clock budget per planning pass (only the exact rung consumes it
  /// cooperatively; the heuristic rescue rungs always run). 0 = unlimited.
  std::chrono::microseconds plan_budget{0};
  /// Path of the crash-safe admission journal (WAL). Empty disables
  /// journaling. On construction the journal is replayed before any
  /// request is served.
  std::string journal_path;
};

/// The batched admission daemon. Thread-safe: any number of client threads
/// may call `submit`, `submit_batch`, `quote`, `complete`, `cancel`, and the
/// read accessors concurrently; each call runs on its caller's thread under
/// the state lock.
class SchedulerService {
 public:
  /// Replays `options.journal_path` (when set) into an empty committed
  /// set. Nothing is planned here: the first request that needs the plan
  /// derives it through the ordinary cache and fallback-chain path.
  explicit SchedulerService(const PowerModel& power, ServiceOptions options = {});

  SchedulerService(const SchedulerService&) = delete;
  SchedulerService& operator=(const SchedulerService&) = delete;

  /// \name Admission traffic
  /// @{

  /// Decide one admission request on the calling thread and return the
  /// decision. A non-empty `rid` (client request id) makes the admission
  /// *idempotent*: a retry carrying the same rid — in this incarnation or
  /// after a crash/restart over the same journal — resolves to the original
  /// task id with `ServiceDecision::deduplicated` set instead of
  /// double-committing. A rid the journal cannot store (a byte <= 0x20 or
  /// 0x7f, see `storable_request_id`) is rejected with
  /// `AdmissionErrorKind::kInvalid` before anything is planned or
  /// journaled. An `InjectedCrash` propagates.
  ServiceDecision submit(const Task& task, std::string rid = {});

  /// Decide one call's `requests` on the calling thread, in order: each is
  /// numbered (sequence order is decision order) and the requests are
  /// decided in chunks of `max_batch`, one energy baseline per chunk.
  /// Returns one decision per request, in request order; each request
  /// behaves as in `submit`. The `request_drop` fault answers an item as
  /// dropped without deciding it; `request_dup` decides a second copy
  /// right after it, under its own sequence number, answering nobody.
  std::vector<ServiceDecision> submit_batch(const std::vector<ServiceRequest>& requests);

  /// `submit_batch` for owners that contain `InjectedCrash`: `decided`
  /// (resized to `requests.size()`) receives each decision once it is
  /// final — a dropped item at once, a chunk's decisions when the whole
  /// chunk is decided — so after a crash it holds exactly the answers the
  /// "process" gave before it died; the other entries stay empty.
  void submit_batch(const std::vector<ServiceRequest>& requests,
                    std::vector<std::optional<ServiceDecision>>& decided);

  /// Non-binding admission check with an energy quote: evaluates the
  /// candidate against the current committed set without committing it.
  /// Repeated quotes of an unchanged set are cache hits; a quote also
  /// warms the cache for a subsequent admit of the same candidate.
  AdmissionDecision quote(const Task& task);
  /// @}

  /// \name Committed-set lifecycle
  /// @{

  /// Remove a finished task. Returns false for unknown ids.
  bool complete(TaskId id);
  /// Remove a task that will not run after all. Returns false for unknown ids.
  bool cancel(TaskId id);
  /// @}

  /// \name State reads
  /// @{
  std::size_t committed_count() const;
  /// Committed tasks in id order. Task indices of `current_plan()` are
  /// positions in this set.
  TaskSet committed_task_set() const;
  std::vector<TaskId> committed_ids() const;
  /// The F2 plan of the committed set (cached while the set is unchanged).
  Schedule current_plan();
  /// F2 energy of the committed set.
  double current_energy();
  /// Simulate executing the committed set's plan through the online
  /// runtime (slack reclamation / DVFS / DPM per `options`). Planning uses
  /// the cache under the state lock; the simulation itself runs outside
  /// it, so admission traffic is never blocked behind a what-if. Decision
  /// counters and reclaimed-slack / sleep-residency histograms land in
  /// `metrics()` (see `record_runtime_metrics`).
  RuntimeReport simulate_runtime(const RuntimeOptions& runtime_options = {});
  /// Export the committed set and id counter (see `snapshot.hpp`). Plans
  /// nothing: the plan is derived state and is not part of a snapshot.
  ServiceSnapshot snapshot();
  /// The id the next admit will get (one past every id ever handed out).
  TaskId next_id() const;
  /// Size of the journal file in bytes (0 when journaling is off), as
  /// tracked by the journal handle — no file-system call.
  std::uint64_t journal_size_bytes() const;
  /// Mid-file corrupt records the construction-time journal replay skipped
  /// (0 without a journal). They stay in the file until it is compacted.
  std::size_t replayed_corruptions() const { return replayed_corruptions_; }
  MetricsRegistry& metrics() { return metrics_; }
  const ServiceOptions& options() const { return options_; }
  /// @}

  /// \name Brownout (see `brownout.hpp`)
  /// @{

  /// Set the degradation level (clamped to [0, kBrownoutMaxLevel]).
  /// Level ≥ 1 skips the exact rung; level ≥ 2 plans F1-only (the delta
  /// planner sits idle — it serves F2 plans). Plans produced at level
  /// > 0 are cached under a level-salted key, so a degraded plan never
  /// masquerades as the full-service plan for the same set. The level-3
  /// shed and tracing disarm are the owner's job (`ServiceShard`).
  void set_brownout_level(int level);
  int brownout_level() const { return brownout_level_.load(std::memory_order_relaxed); }
  /// @}

  /// Rewrite the journal in place so replay cost stays proportional to the
  /// *live* state instead of history: the compacted log holds a `next`
  /// record, the committed set, and the rid→id dedup map. Returns nothing
  /// when journaling is off.
  std::optional<JournalCompaction> compact_journal();

 private:
  /// One admission of a call, in decision order: an item of the call, or
  /// the copy the `request_dup` fault injected right behind it.
  struct Pending {
    std::uint64_t sequence = 0;
    std::size_t item = 0;    ///< index into the call's requests
    bool duplicate = false;  ///< injected copy: its decision answers nobody
  };

  /// `complete` / `cancel`: drop `id` from the committed set and journal
  /// the removal, counting it under `counter`.
  bool remove_committed(TaskId id, const char* counter);
  /// `id`'s entry in the id-sorted committed set, or `committed_.end()`.
  /// Caller holds `state_mutex_`.
  std::vector<std::pair<TaskId, Task>>::iterator find_committed_locked(TaskId id);

  /// Decide `chunk` (sequence order) of the call's `requests`, taken in at
  /// `enqueued_at`, against one energy baseline into `out`, one decision
  /// per admission. Caller holds `state_mutex_`.
  void decide_chunk_locked(const std::vector<ServiceRequest>& requests,
                           std::span<const Pending> chunk,
                           std::chrono::steady_clock::time_point enqueued_at,
                           std::vector<ServiceDecision>& out);

  /// Fallback-chain configuration derived from the options; the budget
  /// deadline starts ticking at the call.
  FallbackOptions fallback_options() const;
  /// Plan `live` (whose cache key is `signature`) through the cache and one
  /// fallback-chain call with `delta_planner_` as its F2 rung; records rung
  /// and delta metrics. `tasks`, when given, is `live`'s tasks already built
  /// into a `TaskSet` (a cache miss builds it otherwise). Throws
  /// `PlanningError` when every rung fails. Caller holds `state_mutex_`.
  CachedPlan plan_set_locked(const std::vector<std::pair<TaskId, Task>>& live,
                             const std::string& signature, const TaskSet* tasks = nullptr);
  /// Plan (and energy) for the current committed set, via the cache.
  /// Caller holds `state_mutex_`.
  CachedPlan plan_for_committed_locked();
  /// Memoized signature of the committed set: rebuilt only after a mutation
  /// invalidated it, so steady-state quotes/baselines skip the O(n) rebuild.
  /// Caller holds `state_mutex_`.
  const std::string& committed_signature_locked();
  /// Rebuild the committed set, id counter and dedup map from the journal
  /// at `options_.journal_path`, then trim the file to the records it
  /// replayed, so the first append starts a fresh line. Caller holds
  /// `state_mutex_`.
  void replay_journal_locked();
  /// Admission core shared by batches and quotes. Evaluates `candidate`
  /// against the committed set; when `commit` is set and the candidate is
  /// feasible, it joins the set under a fresh id (written to `*out_id`);
  /// `*out_rung` (if given) receives the fallback rung whose plan backed an
  /// admit. Throws `PlanningError` when every rung fails. Caller holds
  /// `state_mutex_`.
  AdmissionDecision evaluate_locked(const Task& candidate, double energy_before,
                                    bool commit, TaskId* out_id,
                                    PlanRung* out_rung = nullptr);
  void refresh_gauges_locked();

  PowerModel power_;
  ServiceOptions options_;
  MetricsRegistry metrics_;
  std::optional<AdmissionJournal> journal_;  ///< open iff `journal_path` set

  mutable std::mutex state_mutex_;
  std::vector<std::pair<TaskId, Task>> committed_;  ///< id order
  /// Cached `plan_signature(committed_)`; valid iff
  /// `committed_signature_valid_`. A committed admit extends it in place
  /// (the new id is the largest); removals and replays invalidate it.
  std::string committed_signature_;
  bool committed_signature_valid_ = false;
  TaskId next_id_ = 0;
  /// rid → admitted task id, for idempotent re-admission. Seeded from the
  /// journal's rid-tagged admits on replay; grows with every rid-tagged
  /// admit. Guarded by `state_mutex_`.
  std::unordered_map<std::string, TaskId> dedup_;
  PlanCache cache_;
  /// The fallback chain's F2 rung: it splices the last F2 plan it served.
  /// Guarded by `state_mutex_` like the cache it sits behind.
  DeltaPlanner delta_planner_;
  std::uint64_t next_sequence_ = 0;  ///< guarded by `state_mutex_`
  std::uint64_t batches_ = 0;
  std::size_t replayed_corruptions_ = 0;  ///< set once, by the constructor

  std::atomic<int> brownout_level_{0};
};

}  // namespace easched
