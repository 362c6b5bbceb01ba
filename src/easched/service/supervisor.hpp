#pragma once

/// \file supervisor.hpp
/// \brief Multi-shard supervision: consistent-hash routing, watchdog-driven
///        restart of crashed shards, fleet-wide brownout, and aggregated
///        observability.
///
/// The `Supervisor` is the deployment-shaped front door of the service
/// layer: it owns N `ServiceShard`s (each a crash-containment boundary
/// around its own `SchedulerService`, journal, and snapshot file — see
/// `shard.hpp`) and routes every tenant to exactly one of them.
///
/// **Routing.** Tenants map to shards through a consistent-hash ring:
/// each shard contributes `virtual_nodes` points derived from
/// `Rng::seed_of("easched-shard-ring", shard, node)`, and a tenant lands on
/// the first ring point at or after its own hash (wrapping). The ring is
/// fixed at construction — determinism matters more than elasticity here —
/// but virtual nodes keep tenant load balanced and make the mapping stable
/// under a future resize (only ~1/N of tenants would move).
///
/// **Failure handling.** A shard that crashes (an `InjectedCrash` escaping
/// the inner service) contains the failure itself; the supervisor's job is
/// the *liveness* half: tenants routed to a down shard get
/// `kUnavailable` decisions (each one ticking the shard's restart
/// countdown), and `check_watchdogs()` force-restarts any down shard whose
/// last activity is older than `watchdog_deadline` — so a shard nobody
/// routes to cannot stay dead forever.
///
/// **Brownout.** Each shard runs its own ladder off the pressure the
/// supervisor feeds it (its in-flight operation count, or an explicit
/// backlog hint from a closed-loop client). The supervisor tracks the
/// fleet-wide maximum level and disarms tracing process-wide while any
/// shard sits at level ≥ 2 — one writer for the global tracing switch, so
/// shards at different levels never fight over it.
///
/// **Observability.** `metrics_snapshot()` merges the per-shard registries
/// under `shard<k>_` prefixes with supervision-level series
/// (`shard<k>_up`, `shard<k>_restarts_total`, `brownout_level`, ...);
/// `prometheus()` renders the merged snapshot in text-exposition format.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "easched/power/power_model.hpp"
#include "easched/service/shard.hpp"

namespace easched {

/// Tunables of a `Supervisor`.
struct SupervisorOptions {
  /// Number of shards (>= 1). Each gets its own journal, snapshot, plan
  /// cache, and brownout ladder.
  std::size_t shards = 2;
  /// Directory (must exist) for per-shard durability files:
  /// `<data_dir>/shard<k>.wal` and `<data_dir>/shard<k>.snap`. Required —
  /// a supervised fleet without journals could not honor the no-lost-acks
  /// contract across restarts.
  std::string data_dir;
  /// Inner-service template applied to every shard (`manual_dispatch` is
  /// forced on, `journal_path` replaced per shard). Set
  /// `ServiceOptions::pool` here to give the whole fleet one worker budget.
  ServiceOptions service;
  /// Brownout watermarks applied to every shard's ladder.
  BrownoutOptions brownout;
  /// Drive the ladders from pressure observations (see `ShardOptions`).
  bool brownout_enabled = true;
  /// Ring points per shard. More points → smoother tenant balance.
  std::size_t virtual_nodes = 64;
  /// A down shard idle longer than this is force-restarted by
  /// `check_watchdogs()` regardless of its remaining restart countdown.
  /// Zero restarts every down shard on every watchdog sweep.
  std::chrono::milliseconds watchdog_deadline{250};
  /// Per-shard journal compaction threshold (see `ShardOptions`).
  std::uint64_t journal_compact_bytes = std::uint64_t{1} << 20;
};

/// Point-in-time supervision summary, aggregated over `ShardStats`.
struct SupervisorStats {
  std::uint64_t requests_routed = 0;  ///< submits the supervisor dispatched
  std::uint64_t restarts = 0;
  std::uint64_t crashes_contained = 0;
  std::uint64_t unavailable_rejects = 0;
  std::uint64_t brownout_sheds = 0;
  std::uint64_t compactions = 0;
  std::uint64_t restart_failures = 0;
  std::size_t shards_up = 0;
  int max_brownout_level = 0;
};

/// The shard fleet's front door. Thread-safe: routing state is immutable
/// after construction and every mutable member is a shard (self-locking) or
/// an atomic.
class Supervisor {
 public:
  Supervisor(const PowerModel& power, SupervisorOptions options);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Consistent-hash lookup: which shard serves `tenant`.
  std::size_t route(std::string_view tenant) const;

  /// Route and admit. `rid` is the client request id for idempotent
  /// re-admission (retries across shard crashes must reuse it).
  /// `pressure_hint` lets a closed-loop client report its backlog depth to
  /// the shard's brownout ladder; the shard sees
  /// `max(hint, in-flight ops on this shard)`. Never throws
  /// `InjectedCrash`; a crash comes back as `kUnavailable`.
  ServiceDecision submit(std::string_view tenant, const Task& task, std::string rid = {},
                         std::size_t pressure_hint = 0);

  /// One task of a batched admission (see `submit_batch`).
  struct BatchItem {
    std::string tenant;
    Task task;
    std::string rid;
  };

  /// Batched admission: split `items` across the consistent-hash ring,
  /// preserve arrival order within each shard, run each shard's slice as
  /// one `ServiceShard::submit_batch` round (one lock, one brownout
  /// observation, one planning baseline), and merge the decisions back into
  /// request order. A batch of one is bit-identical to `submit`. Partial
  /// failure is per-item; this never throws `InjectedCrash`.
  std::vector<ServiceDecision> submit_batch(const std::vector<BatchItem>& items,
                                            std::size_t pressure_hint = 0);

  /// Route a completion / cancellation to `tenant`'s shard. `nullopt`
  /// while that shard is down.
  std::optional<bool> complete(std::string_view tenant, TaskId id);
  std::optional<bool> cancel(std::string_view tenant, TaskId id);

  /// Route a non-binding admission quote to `tenant`'s shard. `nullopt`
  /// while that shard is down.
  std::optional<AdmissionDecision> quote(std::string_view tenant, const Task& task);

  /// Route a what-if online-runtime simulation of the shard's current plan.
  /// `nullopt` while that shard is down.
  std::optional<RuntimeReport> simulate_runtime(std::string_view tenant,
                                                const RuntimeOptions& runtime_options = {});

  /// Sum of committed tasks across every up shard (down shards count 0).
  std::size_t committed_total() const;

  /// Restart every down shard whose `last_activity` is older than
  /// `watchdog_deadline` (liveness for shards receiving no traffic).
  /// Returns the number of shards brought back up.
  std::size_t check_watchdogs();

  /// Direct shard access (tests, chaos drivers).
  ServiceShard& shard(std::size_t k);
  const ServiceShard& shard(std::size_t k) const;
  std::size_t shard_count() const { return shards_.size(); }

  /// Pin every shard's ladder (CI walks the full ladder deterministically).
  void force_brownout_level(int level);
  /// Fleet-wide maximum ladder level (the Prometheus `brownout_level`
  /// gauge; tracing is disarmed while it is ≥ 2).
  int max_brownout_level() const;

  SupervisorStats stats() const;

  /// Merged metrics: supervision-level series plus every shard's inner
  /// registry under a `shard<k>_` prefix.
  MetricsSnapshot metrics_snapshot() const;
  /// `metrics_snapshot()` in Prometheus text-exposition format.
  std::string prometheus() const;

  const SupervisorOptions& options() const { return options_; }

 private:
  /// Re-derive the fleet-wide max brownout level and flip the global
  /// tracing switch across the level-2 boundary.
  void refresh_brownout_state();

  SupervisorOptions options_;
  std::vector<std::unique_ptr<ServiceShard>> shards_;
  /// Sorted ring of (point hash, shard index); immutable after build.
  std::vector<std::pair<std::uint64_t, std::size_t>> ring_;
  /// In-flight operation count per shard (brownout pressure source).
  std::vector<std::unique_ptr<std::atomic<std::size_t>>> in_flight_;
  /// Last ladder level observed per shard; a change triggers a fleet-wide
  /// max recompute (so the common no-transition submit skips it).
  std::vector<std::unique_ptr<std::atomic<int>>> shard_level_;
  std::atomic<std::uint64_t> requests_routed_{0};
  std::atomic<int> max_brownout_{0};
};

}  // namespace easched
