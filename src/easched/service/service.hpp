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
///  1. **Batched admission.** Requests arriving within a configurable
///     window are admitted as one batch: the energy baseline of the
///     committed set is computed once per batch (usually a cache hit) and
///     chained through the batch's accepted candidates, instead of being
///     re-derived per request the way standalone `admit_task` must. The
///     batch is processed in arrival order, so the accept/reject outcome is
///     byte-identical to applying the same requests sequentially —
///     batching buys throughput, never different answers.
///
///  2. **Plan caching.** F2 plans are memoized by a quantized signature of
///     the committed set (see `plan_cache.hpp`). Quotes, plan reads, and
///     the per-batch baseline all hit the cache while the set is unchanged;
///     admits/completions/cancellations change the signature and thereby
///     invalidate structurally.
///
///  3. **Shared compute.** Batch planning runs as one job on the existing
///     `ThreadPool`, so many service instances (or a service plus the
///     Monte-Carlo harness) share one machine-wide worker budget.
///
/// The service also supports graceful drain/shutdown and snapshot/restore
/// (`snapshot.hpp`), so a restarted daemon resumes its commitments
/// mid-horizon.
///
/// **Failure model.** Planning runs through the fallback chain of
/// `sched/fallback.hpp` (optionally exact-first under a `PlanBudget`), so a
/// misbehaving solver degrades a plan instead of stalling the service; the
/// chain's validator guarantee means an invalid plan is never served. With
/// a `journal_path`, every admit is written ahead (and flushed) to a WAL
/// before its decision is acknowledged, and construction replays the
/// journal so a crashed service restarts with every acknowledged admit
/// intact (`journal.hpp`). A bounded queue (`queue_capacity`) sheds the
/// lowest-laxity requests under overload instead of growing without bound.
/// Injected faults (`faults/fault_injection.hpp`) surface as structured
/// error kinds on decisions — except `InjectedCrash`, which is *never*
/// swallowed: it propagates (simulating the process dying) so crash tests
/// observe exactly what durability survived.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
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
#include "easched/service/journal.hpp"
#include "easched/service/metrics.hpp"
#include "easched/service/plan_cache.hpp"
#include "easched/service/request_queue.hpp"
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

class ThreadPool;

/// Tunables of a `SchedulerService`.
struct ServiceOptions {
  int cores = 4;
  /// Platform frequency ceiling; `kInf` models the ideal continuous
  /// platform (admission then only rejects malformed requests).
  double f_max = kInf;
  /// How long the dispatcher keeps collecting after the first request of a
  /// batch arrives.
  std::chrono::microseconds batch_window{200};
  /// Hard cap on requests admitted as one batch.
  std::size_t max_batch = 64;
  /// Plan cache entries (0 disables caching).
  std::size_t cache_capacity = 128;
  /// Quantization grain of the plan-cache signature.
  double signature_quantum = 1e-6;
  /// When true, no dispatcher thread is started; the owner drives batches
  /// explicitly via `pump()`. Deterministic mode for tests and replay.
  bool manual_dispatch = false;
  /// Run batch planning on `ThreadPool::global()` instead of the
  /// dispatcher thread (ignored in manual mode), and fan the planning
  /// kernel itself out over the same pool. The kernel shares that one
  /// worker budget — a planning pass never spawns threads of its own — and
  /// its plans are bit-identical to serial planning at any pool size.
  bool use_thread_pool = true;
  /// Try the exact convex solve as the top rung of every planning pass,
  /// falling back to F2 → F1 when it fails or runs out of budget. Off by
  /// default: the heuristic-only chain reproduces the pre-fallback plans
  /// bit-for-bit.
  bool exact_first = false;
  /// Serve plan-cache misses through the incremental delta planner
  /// (`sched/incremental.hpp`) when the exact rung is off: a committed set
  /// that differs from the previously planned one by a few tasks is spliced
  /// instead of re-planned from scratch. Plans are bit-identical either
  /// way (the delta path's exactness contract); a delta that cannot keep
  /// the contract rebuilds from scratch inside the planner, and a planner
  /// failure falls back to the ordinary fallback chain.
  bool incremental = true;
  /// With `exact_first`, warm-start the exact rung's solver from the delta
  /// planner's cached DER availability of the same set (the solvers ignore
  /// the hint unless its dimensions match). Off by default: a warm-started
  /// solve converges to the same validated solution but takes a different
  /// iterate path, so opt in explicitly.
  bool warm_start_exact = false;
  /// Wall-clock budget per planning pass (only the exact rung consumes it
  /// cooperatively; the heuristic rescue rungs always run). 0 = unlimited.
  std::chrono::microseconds plan_budget{0};
  /// Iteration ceiling for the exact rung's solver. 0 = the solver default.
  std::size_t plan_max_iterations = 0;
  /// Bound on requests waiting in the queue; overflow sheds the
  /// lowest-laxity request (see `request_queue.hpp`). 0 = unbounded.
  std::size_t queue_capacity = 0;
  /// Path of the crash-safe admission journal (WAL). Empty disables
  /// journaling. On construction the journal is replayed — on top of the
  /// snapshot, when resuming from one — before any request is served.
  std::string journal_path;
  /// Run planning kernels (and batch jobs) on this pool instead of
  /// `ThreadPool::global()`. Lets owners give each service instance —
  /// supervisor shards, tests at pools {1, 2, 8} — its own worker budget;
  /// plans are bit-identical at any pool size (the `Exec` contract).
  /// Ignored when `use_thread_pool` is false. Not owned; must outlive the
  /// service.
  ThreadPool* pool = nullptr;
};

struct Exec;

/// The batched admission daemon. Thread-safe: any number of client threads
/// may call `submit`, `quote`, `complete`, `cancel`, and the read accessors
/// concurrently.
class SchedulerService {
 public:
  explicit SchedulerService(const PowerModel& power, ServiceOptions options = {});

  /// Resume from a snapshot: the committed set, id counter and metric
  /// counters are restored and the journal (if any) is replayed once over
  /// them. Nothing is planned here: the first request that needs the plan
  /// derives it through the ordinary cache and delta-planner path, so the
  /// plan is always that of the recovered set. `options.cores` is
  /// overridden by the snapshot's core count.
  SchedulerService(const ServiceSnapshot& snapshot, const PowerModel& power,
                   ServiceOptions options = {});

  /// Graceful: drains queued requests, then stops the dispatcher.
  ~SchedulerService();

  SchedulerService(const SchedulerService&) = delete;
  SchedulerService& operator=(const SchedulerService&) = delete;

  /// \name Admission traffic
  /// @{

  /// Enqueue an admission request. The future resolves after the batch
  /// containing the request is processed. A non-empty `rid` (client
  /// request id) makes the admission *idempotent*: a retry carrying the
  /// same rid — in this incarnation or after a crash/restart over the same
  /// journal — resolves to the original task id with
  /// `ServiceDecision::deduplicated` set instead of double-committing. A rid
  /// the journal cannot store (a byte <= 0x20 or 0x7f, see
  /// `storable_request_id`) is rejected with `AdmissionErrorKind::kInvalid`
  /// before anything is planned or journaled.
  /// Throws `std::runtime_error` after `shutdown()`.
  std::future<ServiceDecision> submit(const Task& task, std::string rid = {});

  /// Submit and block for the decision (drives a `pump()` in manual mode).
  ServiceDecision submit_wait(const Task& task, std::string rid = {});

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
  /// Serialize current state for restart (see `snapshot.hpp`). Plans
  /// nothing: the plan is derived state and is not part of a snapshot.
  ServiceSnapshot snapshot();
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
  /// path is bypassed too — it serves F2 plans). Plans produced at level
  /// > 0 are cached under a level-salted key, so a degraded plan never
  /// masquerades as the full-service plan for the same set. The level-3
  /// shed and tracing disarm are the owner's job (`ServiceShard`).
  void set_brownout_level(int level);
  int brownout_level() const { return brownout_level_.load(std::memory_order_relaxed); }
  /// @}

  /// Rewrite the journal in place so replay cost stays proportional to the
  /// *live* state instead of history: the compacted log holds a `next`
  /// record, the committed set, and the rid→id dedup map. Returns nothing
  /// when journaling is off. Any snapshot taken before the compaction is
  /// invalidated (its completions were compacted away) — owners resuming
  /// from snapshots must re-snapshot at the compaction point, which is what
  /// `ServiceShard` does.
  std::optional<JournalCompaction> compact_journal();

  /// \name Lifecycle
  /// @{

  /// Manual mode only: process everything currently queued (in batches of
  /// at most `max_batch`). Returns the number of requests processed.
  std::size_t pump();

  /// Block until every request submitted before this call is decided.
  void drain();

  /// Stop accepting submissions, decide everything still queued, stop the
  /// dispatcher. Idempotent; called by the destructor.
  void shutdown();
  /// @}

 private:
  /// Both public constructors land here; `base` (nullable) is the snapshot
  /// to resume from.
  SchedulerService(const PowerModel& power, ServiceOptions options,
                   const ServiceSnapshot* base);

  /// `complete` / `cancel`: drop `id` from the committed set and journal
  /// the removal, counting it under `counter`.
  bool remove_committed(TaskId id, const char* counter);
  /// `id`'s entry in the id-sorted committed set, or `committed_.end()`.
  /// Caller holds `state_mutex_`.
  std::vector<std::pair<TaskId, Task>>::iterator find_committed_locked(TaskId id);

  void dispatcher_loop();
  void process_batch(std::vector<PendingRequest> batch);
  void run_batch(std::vector<PendingRequest> batch);

  /// Fallback-chain configuration derived from the options; the budget
  /// deadline starts ticking at the call.
  FallbackOptions fallback_options() const;
  /// Plan `live` (whose cache key is `signature`) through the cache and the
  /// fallback chain; records rung metrics. Throws `PlanningError` when every
  /// rung fails. Caller holds `state_mutex_`.
  CachedPlan plan_set_locked(const std::vector<std::pair<TaskId, Task>>& live,
                             const std::string& signature);
  /// Plan (and energy) for the current committed set, via the cache.
  /// Caller holds `state_mutex_`.
  CachedPlan plan_for_committed_locked();
  /// Memoized signature of the committed set: rebuilt only after a mutation
  /// invalidated it, so steady-state quotes/baselines skip the O(n) rebuild.
  /// Caller holds `state_mutex_`.
  const std::string& committed_signature_locked();
  /// Replay the journal at `options_.journal_path` over the current
  /// committed set in one merge: removals drop base entries, surviving
  /// admits replace or join them. Then trims the file to the records it
  /// replayed, so the first append starts a fresh line. Caller holds
  /// `state_mutex_` (or is the constructor).
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
  /// Execution context for planning kernels: the global pool when
  /// `use_thread_pool` is set, serial otherwise — one shared thread budget,
  /// never a private one.
  Exec kernel_exec() const;
  void refresh_gauges_locked();

  PowerModel power_;
  ServiceOptions options_;
  MetricsRegistry metrics_;
  RequestQueue queue_;
  std::optional<AdmissionJournal> journal_;  ///< open iff `journal_path` set

  mutable std::mutex state_mutex_;
  std::condition_variable drain_cv_;
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
  /// Present iff `options_.incremental`; guarded by `state_mutex_` like the
  /// cache it sits behind.
  std::optional<DeltaPlanner> delta_planner_;
  std::uint64_t batches_ = 0;
  std::uint64_t decided_requests_ = 0;
  std::size_t replayed_corruptions_ = 0;  ///< set once, by the constructor

  std::atomic<int> brownout_level_{0};
  std::atomic<bool> shutdown_{false};
  std::thread dispatcher_;  ///< not started in manual mode
};

}  // namespace easched
