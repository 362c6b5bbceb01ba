#pragma once

/// \file shard.hpp
/// \brief One supervised scheduler shard: a `SchedulerService` wrapped in a
///        crash-containment boundary with automatic journal recovery and a
///        per-shard brownout ladder.
///
/// A shard is the supervisor's unit of failure and of parallelism. It owns
/// a private `SchedulerService` (own journal, own plan cache) and calls it
/// under the shard lock, so every operation is decided and planned
/// synchronously on the caller's thread with deterministic crash points.
///
/// **Crash containment.** Service code never swallows `InjectedCrash`; the
/// shard is the layer that finally catches it. A crash tears down the inner
/// service (the "process" died), marks the shard down, and records the kill
/// spec's `restart_after` — the number of further routed operations the
/// shard stays down before recovering, which is how the chaos grammar's
/// `kill:shard.submit@3;restart_after=5` schedules become behavior. While
/// down, routed operations are answered `AdmissionErrorKind::kUnavailable`
/// (clients retry with the same rid) and each one ticks the restart
/// countdown.
///
/// **Recovery.** Restart rebuilds the service from its journal alone: the
/// journal holds the live set, the id counter and the rid dedup ledger, so
/// every acked admit survives and retried acks dedup instead of
/// double-committing. A torn tail left by a mid-append crash is cut before
/// the first append; a record damaged mid-file is skipped, reported as a
/// `JournalCorruption` and counted in `journal_corruption_total`. A
/// `Supervisor` brings all its shards up at once, each on its own thread
/// (journal replay and service construction side by side), so a fleet
/// restart costs its slowest shard; a `BringUpOrder` keeps the restart kill
/// points in shard order. Restart plans nothing: the first request routed
/// to the shard plans the recovered set. It rewrites the journal only when
/// the journal needs it: replay skipped mid-file corrupt records
/// (compaction drops them), or the journal is past the compaction threshold
/// — the same threshold every served op checks: `max(journal_compact_bytes,
/// 2 × the last compacted size)`. So the journal, and with it recovery
/// time, stays bounded by the threshold and by twice the compacted state
/// (live tasks plus the dedup ledger). Each bring-up also exports the
/// recovered state to `snapshot_path` (see `snapshot.hpp`); nothing here
/// reads it back. Kill points `shard.submit` (on arrival, before anything
/// commits) and `shard.restart.replay` (before journal replay) extend the
/// crash-boundary coverage to the supervisor era.
///
/// **Brownout.** Each shard runs its own `BrownoutLadder`, fed the
/// supervisor's in-flight pressure at every decision point. The level
/// reshapes the inner service's fallback chain (`set_brownout_level`); at
/// level ≥ 2 the shard disarms tracing process-wide, and at level 3 it
/// sheds the lowest-laxity arrivals before they reach planning.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "easched/power/power_model.hpp"
#include "easched/service/brownout.hpp"
#include "easched/service/service.hpp"

namespace easched {

/// Tunables of one `ServiceShard`.
struct ShardOptions {
  /// Shard index within the supervisor (names metrics and kill sites).
  std::size_t index = 0;
  /// WAL path (required: a shard without a journal cannot recover).
  std::string journal_path;
  /// Where each bring-up exports the recovered state (see `snapshot.hpp`);
  /// empty disables the export. Recovery never reads it.
  std::string snapshot_path;
  /// Inner service tuning. `journal_path` is overwritten with the shard's
  /// own.
  ServiceOptions service;
  /// Brownout watermarks (see `brownout.hpp`).
  BrownoutOptions brownout;
  /// Drive the ladder from pressure observations; off leaves level 0
  /// unless `force_brownout_level` is called.
  bool brownout_enabled = true;
  /// Compact the journal when it grows past this many bytes, checked after
  /// every served op and at restart. 0 disables threshold compaction.
  std::uint64_t journal_compact_bytes = std::uint64_t{1} << 20;
};

/// Monotone per-shard counters, read by the supervisor's aggregation.
/// These live on the shard (not the inner registry) so they survive the
/// inner service being torn down by a crash.
struct ShardStats {
  std::uint64_t restarts = 0;            ///< successful recoveries
  std::uint64_t crashes_contained = 0;   ///< InjectedCrash caught at the boundary
  std::uint64_t unavailable_rejects = 0; ///< ops answered while down
  std::uint64_t brownout_sheds = 0;      ///< level-3 lowest-laxity sheds
  std::uint64_t compactions = 0;         ///< journal compactions
  std::uint64_t restart_failures = 0;    ///< restarts aborted by a crash mid-recovery
};

/// Turn order for the restart kill points of shards brought up
/// concurrently: shard `k` visits `shard.restart.replay` only after shards
/// `0..k-1` have visited it or failed before reaching it. A fleet-wide kill
/// spec such as `kill:shard.restart.replay@2` therefore fires in the same
/// shard as when the shards come up one after the other.
class BringUpOrder {
 public:
  /// Block until shards `0..index-1` have passed.
  void wait(std::size_t index);
  /// Pass `index` once shards `0..index-1` have passed; idempotent.
  void pass(std::size_t index);

 private:
  std::mutex mutex_;
  std::condition_variable passed_;
  std::size_t next_ = 0;  ///< lowest index not yet passed
};

/// One supervised shard. Thread-safe; every operation serializes on the
/// shard lock (the shard is the concurrency unit — parallelism comes from
/// having many shards).
class ServiceShard {
 public:
  /// Builds the shard and brings the inner service up immediately
  /// (journal recovery, like any restart). A crash injected at
  /// `shard.restart.replay` during this first bring-up leaves the shard
  /// down with an immediate retry, so the first routed op brings it up;
  /// any other bring-up failure (say, an unreadable journal) throws. With
  /// `order`, the restart kill points wait for this shard's turn (see
  /// `BringUpOrder`), so the shards of one fleet can be built on
  /// concurrent threads.
  ServiceShard(const PowerModel& power, ShardOptions options, BringUpOrder* order = nullptr);
  ~ServiceShard();

  ServiceShard(const ServiceShard&) = delete;
  ServiceShard& operator=(const ServiceShard&) = delete;

  /// Admission round, the shard's only one: N arrivals decided under one
  /// shard lock with one brownout observation (`pressure`, the caller's
  /// congestion estimate), as one inner `submit_batch` call (one planning
  /// baseline per `max_batch` chunk). Decisions come back in item order; a
  /// single admit is a batch of one. Partial failure is per-item and never
  /// throws: an arrival crash at item j decides the arrivals before j and
  /// answers j..N-1 `kUnavailable` (retryable, same rid); a crash inside the
  /// service keeps the answers of the chunks it finished and answers every
  /// other arrival `kUnavailable`.
  std::vector<ServiceDecision> submit_batch(const std::vector<ServiceRequest>& items,
                                            std::size_t pressure = 0);

  /// Remove a finished / cancelled task. `nullopt` while the shard is down
  /// (the op still ticks the restart countdown); otherwise the service's
  /// answer.
  std::optional<bool> complete(TaskId id);
  std::optional<bool> cancel(TaskId id);

  /// Non-binding admission check + energy quote against this shard's
  /// committed set. `nullopt` while the shard is down (ticks the restart
  /// countdown like any routed op); a crash is contained the same way
  /// `submit_batch` contains it.
  std::optional<AdmissionDecision> quote(const Task& task);

  /// What-if simulation: execute this shard's current plan through the
  /// online runtime. `nullopt` while down; crashes are contained.
  std::optional<RuntimeReport> simulate_runtime(const RuntimeOptions& runtime_options = {});

  /// \name State reads (empty/zero while down)
  /// @{
  bool up() const;
  std::size_t committed_count() const;
  std::vector<TaskId> committed_ids() const;
  /// The id the shard's next admit will get.
  TaskId next_id() const;
  TaskSet committed_task_set() const;
  Schedule current_plan();
  double current_energy();
  int brownout_level() const;
  ShardStats stats() const;
  /// Inner registry snapshot (empty while down).
  MetricsSnapshot metrics_snapshot() const;
  /// @}

  /// Pin the brownout ladder (testing / CI walks the full ladder).
  void force_brownout_level(int level);

  /// Steady-clock time of the last completed operation (watchdog input).
  std::chrono::steady_clock::time_point last_activity() const;

  /// Restart now if the shard is down, regardless of the remaining
  /// countdown (the supervisor's watchdog path). Returns true when the
  /// shard is up afterwards.
  bool restart_now();

  const ShardOptions& options() const { return options_; }

 private:
  /// The crash-containment body of the single-task ops: under the shard
  /// lock, tick the restart countdown while down, else run `op` on the
  /// service, stamp the activity time and, with `compact`, check threshold
  /// compaction. An `InjectedCrash` is counted and marks the shard down.
  /// `nullopt` while down or after a crash.
  template <class Op>
  auto contain(Op&& op, bool compact = false)
      -> std::optional<std::invoke_result_t<Op&, SchedulerService&>>;
  /// Bring the inner service up from its journal. Caller holds the shard
  /// lock. Returns false (shard stays down) when recovery itself
  /// crashes at `shard.restart.replay`, whose visit waits for this shard's
  /// turn in `order` when one is given.
  bool start_service_locked(BringUpOrder* order = nullptr);
  /// Tear the service down after a contained crash and arm the restart
  /// countdown.
  void mark_down_locked(std::uint64_t restart_after);
  /// Down-path bookkeeping for one routed op: ticks the countdown and
  /// restarts when it expires. Returns true when the shard is up after it.
  bool tick_down_locked();
  /// Compact the journal (threshold, corruption or restart path). Caller
  /// holds the lock and the service is up.
  void compact_locked();
  /// True when the journal exceeds `max(journal_compact_bytes, 2 × last
  /// compacted size)` — threshold compaction with hysteresis. The journal
  /// tracks its own size, so the check is free. Caller holds the lock and
  /// the service is up.
  bool journal_over_threshold_locked() const;
  /// Threshold compaction, checked after every served op: compact when
  /// `journal_over_threshold_locked()`. Caller holds the lock and the
  /// service is up.
  void compact_if_over_threshold_locked();
  /// Apply a (possibly new) ladder level to the inner service + tracing.
  void apply_brownout_locked(int level);
  ServiceDecision unavailable_decision_locked(std::string reason);

  PowerModel power_;
  ShardOptions options_;
  /// Shard-addressed kill-site names ("shard<k>.submit",
  /// "shard<k>.restart.replay"), precomputed so the hot path never builds
  /// strings. The fleet-wide names "shard.submit" / "shard.restart.replay"
  /// are consulted too.
  std::string submit_site_;
  std::string restart_site_;

  mutable std::mutex mutex_;
  std::unique_ptr<SchedulerService> service_;  ///< null while down
  BrownoutLadder ladder_;
  ShardStats stats_;
  std::uint64_t restart_countdown_ = 0;  ///< valid while down
  /// Journal size after the last compaction. Durable state the compacted
  /// log must keep (live tasks + the dedup ledger) can exceed the
  /// configured threshold; re-compacting at every check in that regime
  /// rewrites an ever-growing file on every op — quadratic over the
  /// shard's lifetime. The trigger instead waits for the journal to double
  /// past this floor: rewrite cost stays amortized O(1) per journaled byte
  /// and the file stays bounded by 2× its compacted state.
  std::uint64_t compact_floor_bytes_ = 0;
  std::chrono::steady_clock::time_point last_activity_;
};

}  // namespace easched
