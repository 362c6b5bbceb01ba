#pragma once

/// \file plan_cache.hpp
/// \brief LRU cache of F2 plans keyed by a task-set signature.
///
/// Re-planning the committed set is the expensive step of every admission
/// and quote: one `run_pipeline` call over the live tasks. The committed set
/// only changes on admit / complete / cancel, so between mutations every
/// quote and plan request re-derives the exact same schedule. The cache
/// keys plans by a *signature* of the live set — task ids plus their
/// remaining work, release, and deadline, quantized to a fixed grain so
/// float noise from progress accounting cannot fragment the key space —
/// and serves repeated requests without touching the pipeline.
///
/// Invalidation is structural: any mutation changes the signature, so stale
/// entries can never be returned; an LRU bound keeps dead signatures from
/// accumulating. The bound is two caps: the entry count and the summed size
/// of the cached plans (segments plus signature bytes), since a plan's size
/// scales with its set — 128 plans of a 1000-task shard whose tasks all
/// overlap held gigabytes.

#include <cstdint>
#include <list>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>

#include "easched/sched/fallback.hpp"
#include "easched/sched/schedule.hpp"
#include "easched/tasksys/task.hpp"

namespace easched {

/// A cached plan for one committed-set signature. `rung` records which rung
/// of the fallback chain produced it (F2/DER on the happy path), so cache
/// hits report the same degradation status as the plan's original solve.
struct CachedPlan {
  double energy = 0.0;
  Schedule schedule;
  PlanRung rung = PlanRung::kDer;
};

/// Append one task's signature fragment (`id:release:deadline:work;`, values
/// quantized to multiples of `quantum`) to `out`. The full-set signature is
/// the concatenation of the fragments in id order, so a caller holding the
/// signature of a set can extend it to `set ∪ {candidate}` in O(1) when the
/// candidate's id is the largest — the service's quote/admit path relies on
/// this instead of rebuilding the whole signature per request.
void append_plan_signature(std::string& out, TaskId id, const Task& task, double quantum);

/// Build the canonical signature of a live task set: `(id, release,
/// deadline, remaining work)` per task in id order, each value quantized to
/// multiples of `quantum`. Two sets within `quantum` of each other share a
/// plan; `quantum` therefore bounds the energy error a cache hit can carry.
std::string plan_signature(std::span<const std::pair<TaskId, Task>> live,
                           double quantum = 1e-6);

/// Thread-compatible (externally synchronized) LRU cache of plans.
class PlanCache {
 public:
  /// The service's byte cap: about 640 of the 418 KB plans (12k segments
  /// plus a 33 KB signature) a 1000-task shard of the end-to-end
  /// benchmark's `dense_live` workload serves, so there the 128-entry bound
  /// still binds first.
  static constexpr std::size_t kDefaultMaxBytes = std::size_t{256} << 20;

  /// Keep at most `capacity` plans totalling at most `max_bytes` (see
  /// `plan_bytes`); `capacity == 0` disables caching.
  explicit PlanCache(std::size_t capacity = 128, std::size_t max_bytes = kDefaultMaxBytes);

  /// What an entry counts against the byte cap: its segments plus its
  /// signature.
  static std::size_t plan_bytes(const std::string& signature, const CachedPlan& plan);

  /// Look up a signature; a hit refreshes its LRU position. When
  /// `hit_age != nullptr` and the lookup hits, it receives the entry's age
  /// in cache operations (lookups + inserts since the entry was written) —
  /// the service's `plan_cache_hit_age` histogram feeds from it.
  std::optional<CachedPlan> lookup(const std::string& signature,
                                   std::uint64_t* hit_age = nullptr);

  /// Insert (or overwrite) the plan for `signature`, evicting least
  /// recently used entries while over either cap. A plan bigger than the
  /// byte cap on its own is not cached (and drops any older entry for its
  /// signature).
  void insert(const std::string& signature, CachedPlan plan);

  void clear();

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }
  /// Summed `plan_bytes` of the cached entries.
  std::size_t bytes() const { return bytes_; }

  /// \name Lifetime statistics (not reset by `clear`)
  /// @{
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  /// Hits / lookups, 0 when no lookups have happened.
  double hit_rate() const;
  /// @}

 private:
  struct Entry {
    std::string signature;
    CachedPlan plan;
    std::uint64_t written_op = 0;  ///< operation count when the plan was written
    std::size_t bytes = 0;         ///< `plan_bytes` of this entry
  };

  /// Drop the least recently used entry.
  void evict_coldest();

  std::size_t capacity_;
  std::size_t max_bytes_;
  std::size_t bytes_ = 0;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t ops_ = 0;  ///< lookups + inserts, the cache's logical clock
};

}  // namespace easched
