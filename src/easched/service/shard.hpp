#pragma once

/// \file shard.hpp
/// \brief One supervised scheduler shard: a `SchedulerService` wrapped in a
///        crash-containment boundary with automatic snapshot+journal
///        recovery and a per-shard brownout ladder.
///
/// A shard is the supervisor's unit of failure. It owns a private
/// `SchedulerService` (own journal path, own snapshot file, own plan cache,
/// own kernel `Exec` via `ServiceOptions::pool`) and drives it in
/// `manual_dispatch` mode under the shard lock, so every operation is a
/// synchronous submit→pump→decide round with deterministic crash points.
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
/// **Recovery.** Restart rebuilds the service from its snapshot file plus
/// the journal replayed over it once — every acked admit survives, and the
/// journal's rid→id records make retried acks dedup instead of
/// double-committing. A torn tail left by a mid-append crash is cut before
/// the first append. Restart plans nothing: the first request routed to
/// the shard plans the recovered set. It writes a snapshot of the recovered
/// state, but rewrites the journal only when the journal needs it: replay
/// skipped mid-file corrupt records (compaction drops them), or the journal
/// is past the compaction threshold — the same threshold every served op
/// checks: `max(journal_compact_bytes, 2 × the last compacted size)`. So
/// the journal, and with it recovery time, stays bounded by the threshold
/// and by twice the compacted state (live tasks plus the dedup ledger).
/// Kill points `shard.submit` (on arrival, before anything commits) and
/// `shard.restart.replay` (between snapshot load and journal replay) extend
/// the crash-boundary coverage to the supervisor era.
///
/// **Brownout.** Each shard runs its own `BrownoutLadder`, fed the
/// supervisor's in-flight pressure at every decision point. The level
/// reshapes the inner service's fallback chain (`set_brownout_level`); at
/// level ≥ 2 the shard disarms tracing process-wide, and at level 3 it
/// sheds the lowest-laxity arrivals before they reach planning.

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
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
  /// Snapshot file path; empty disables snapshots (recovery then replays
  /// the whole journal).
  std::string snapshot_path;
  /// Inner service tuning. `manual_dispatch` is forced on and
  /// `journal_path` is overwritten with the shard's own.
  ServiceOptions service;
  /// Brownout watermarks (see `brownout.hpp`).
  BrownoutOptions brownout;
  /// Drive the ladder from pressure observations; off leaves level 0
  /// unless `force_brownout_level` is called.
  bool brownout_enabled = true;
  /// Compact the journal (and re-snapshot) when it grows past this many
  /// bytes, checked after every served op and at restart. 0 disables
  /// threshold compaction.
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

/// One task of a batched admission round (see `ServiceShard::submit_batch`).
struct ShardBatchItem {
  Task task;
  std::string rid;
};

/// One supervised shard. Thread-safe; every operation serializes on the
/// shard lock (the shard is the concurrency unit — parallelism comes from
/// having many shards).
class ServiceShard {
 public:
  /// Builds the shard and brings the inner service up immediately
  /// (snapshot + journal recovery, like any restart). Throws when the
  /// first bring-up itself crashes or fails.
  ServiceShard(const PowerModel& power, ShardOptions options);
  ~ServiceShard();

  ServiceShard(const ServiceShard&) = delete;
  ServiceShard& operator=(const ServiceShard&) = delete;

  /// Synchronous admission round. `pressure` is the caller's congestion
  /// observation (supervisor in-flight count) feeding the brownout ladder.
  /// Never throws `InjectedCrash`: a crash is contained and the decision
  /// comes back `kUnavailable`.
  ServiceDecision submit(const Task& task, std::string rid = {}, std::size_t pressure = 0);

  /// Batched admission round: N arrivals decided under one shard lock with
  /// one brownout observation and one planning baseline (the inner service
  /// processes the whole batch in a single pump). Decisions come back in
  /// item order and a batch of one is bit-identical to `submit` — same lock
  /// scope, same kill-point order, same dedup and journal behavior. Partial
  /// failure is per-item: a contained crash at item j answers items j..N-1
  /// `kUnavailable` (retryable, same rid) after draining the already-queued
  /// prefix, and never throws.
  std::vector<ServiceDecision> submit_batch(const std::vector<ShardBatchItem>& items,
                                            std::size_t pressure = 0);

  /// Remove a finished / cancelled task. `nullopt` while the shard is down
  /// (the op still ticks the restart countdown); otherwise the service's
  /// answer.
  std::optional<bool> complete(TaskId id);
  std::optional<bool> cancel(TaskId id);

  /// Non-binding admission check + energy quote against this shard's
  /// committed set. `nullopt` while the shard is down (ticks the restart
  /// countdown like any routed op); a crash is contained the same way
  /// `submit` contains it.
  std::optional<AdmissionDecision> quote(const Task& task);

  /// What-if simulation: execute this shard's current plan through the
  /// online runtime. `nullopt` while down; crashes are contained.
  std::optional<RuntimeReport> simulate_runtime(const RuntimeOptions& runtime_options = {});

  /// \name State reads (empty/zero while down)
  /// @{
  bool up() const;
  std::size_t committed_count() const;
  std::vector<TaskId> committed_ids() const;
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
  /// Bring the inner service up from snapshot + journal. Caller holds the
  /// shard lock. Returns false (shard stays down) when recovery itself
  /// crashes at `shard.restart.replay`.
  bool start_service_locked();
  /// Tear the service down after a contained crash and arm the restart
  /// countdown.
  void mark_down_locked(std::uint64_t restart_after);
  /// Down-path bookkeeping for one routed op: ticks the countdown and
  /// restarts when it expires. Returns true when the shard is up after it.
  bool tick_down_locked();
  /// Write the service's snapshot to `snapshot_path` (if any). Caller
  /// holds the lock and the service is up.
  void write_snapshot_locked();
  /// Snapshot + compact (threshold, corruption or restart path). Caller
  /// holds the lock and the service is up.
  void snapshot_and_compact_locked();
  /// True when the journal exceeds `max(journal_compact_bytes, 2 × last
  /// compacted size)` — threshold compaction with hysteresis. The journal
  /// tracks its own size, so the check is free. Caller holds the lock and
  /// the service is up.
  bool journal_over_threshold_locked() const;
  /// Threshold compaction, checked after every served op: snapshot +
  /// compact when `journal_over_threshold_locked()`. Caller holds the lock
  /// and the service is up.
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
