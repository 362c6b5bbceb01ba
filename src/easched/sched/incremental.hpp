#pragma once

/// \file incremental.hpp
/// \brief Incremental delta replanning: splice one task in or out of a plan.
///
/// The offline kernel is a pure function of the task set; the service layer
/// re-runs it from scratch on every admission quote. But a single arrival or
/// departure perturbs the plan only locally: the sweep-line boundary array
/// gains/loses at most two values, only subintervals intersecting the
/// changed task's `[R_i, D_i]` window change geometry or membership, and the
/// per-task refinement of every *other* task is untouched unless its
/// availability row shares a dirty subinterval. `DeltaPlanner` exploits
/// this: it caches the previous plan's full state (decomposition,
/// availability, refinement arrays, packed schedule) and, per delta,
///
///   1. splices the boundary array (an O(N) insert/erase into the sorted
///      distinct-value array, with multiplicities),
///   2. rebuilds the decomposition *in place* from the spliced boundaries
///      (`SubintervalDecomposition::assign` — linear passes, no allocation
///      within reserved capacity, bit-identical to a from-scratch build),
///   3. recomputes only the dirty columns of the availability matrix — the
///      columns inside the changed window plus the full live ranges of every
///      task overlapping it — and copies all other rows wholesale,
///   4. re-runs the O(n) F2 frequency refinement (closed form per task),
///   5. re-packs only the dirty subinterval span and splices the resulting
///      segment groups into the cached schedule, re-running the coalescing
///      fold once over the spliced groups.
///
/// The headline contract is *exactness*: the plan after `plan_to` is
/// bit-identical — same availability values, same frequencies, same energy
/// fold, same segment list — to `schedule_with_method` run from scratch on
/// the same task set, at any `Exec` pool size. Deltas that cannot keep that
/// promise cheaply (near-tolerance boundary collisions, too many ops, an
/// empty intermediate set) decline and fall back to the from-scratch path
/// inside `plan_to` itself; the result is exact either way. The
/// differential harness in `tests/differential.hpp` checks the contract on
/// randomized admit/remove sequences.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "easched/power/power_model.hpp"
#include "easched/sched/allocation.hpp"
#include "easched/sched/ideal.hpp"
#include "easched/sched/pipeline.hpp"
#include "easched/sched/schedule.hpp"
#include "easched/tasksys/subintervals.hpp"
#include "easched/tasksys/task_set.hpp"

namespace easched {

struct Exec;

/// Knobs for the delta planner.
struct DeltaOptions {
  int cores = 4;
  /// Heavy-subinterval rationing rule (the service's DER rung).
  AllocationMethod method = AllocationMethod::kDer;
  /// Boundary merge tolerance — must match the decomposition's (the splice
  /// declines instead of merging, so the cached boundary array stays exactly
  /// what the constructor's sort+merge would produce).
  double merge_tol = 1e-12;
  /// Largest admit/remove op count between two `plan_to` calls that is
  /// applied as a chain of single-task deltas; beyond it a from-scratch
  /// rebuild is cheaper and simpler.
  std::size_t max_ops = 4;
  /// Cap on repack-window growth steps while resolving schedule segments
  /// that straddle a cut; on overflow the whole horizon is repacked (still
  /// exact, never a full pipeline rebuild).
  std::size_t max_cut_expansion = 64;
};

/// What `plan_to` did, for metrics and tests.
struct DeltaOutcome {
  /// True when the quote was served by the splice path (possibly as a chain
  /// of single-task deltas); false when a from-scratch rebuild ran.
  bool delta = false;
  /// Single-task ops applied (0 when the set was unchanged).
  std::size_t ops = 0;
  /// Availability columns recomputed, summed over ops.
  std::size_t dirty_columns = 0;
  /// Subintervals re-packed, summed over ops.
  std::size_t repacked_columns = 0;
  /// Why the delta path declined (empty when `delta`).
  std::string decline_reason;
};

/// A served plan: the refined energy and the packed schedule.
struct DeltaPlan {
  double energy = 0.0;
  Schedule schedule;
};

/// Stateful incremental replanner. Not thread-safe; the service serializes
/// calls under its own mutex. Any exception out of `plan_to` leaves the
/// planner invalidated (the next call rebuilds from scratch), so a failed
/// delta can never serve a stale plan.
class DeltaPlanner {
 public:
  explicit DeltaPlanner(PowerModel power, DeltaOptions options = {});

  /// Produce the exact DER-rung plan for `live`, incrementally when the set
  /// differs from the previous call's by at most `max_ops` tasks (matched by
  /// exact field equality, in order), from scratch otherwise. `outcome`
  /// (optional) reports which path ran.
  DeltaPlan plan_to(const TaskSet& live, const Exec& exec, DeltaOutcome* outcome = nullptr);

  /// Drop the cached state; the next `plan_to` rebuilds from scratch.
  void invalidate();

  /// True when a cached plan is available for delta application.
  bool has_plan() const { return has_state_; }

  /// Cached availability of the last served plan (valid while `has_plan()`),
  /// e.g. as a warm-start hint for the exact solver.
  const Availability& availability() const { return avail_; }

  /// The refined F2 allocation of the cached plan: availability rows scaled
  /// down to each task's used fraction, so row totals sit at the
  /// heuristic's T_i. The natural warm-start iterate for the exact solvers
  /// (the unscaled availability overshoots the optimal totals). Only the
  /// cells are meaningful — cached row/column sums are not finalized.
  /// Valid while `has_plan()`.
  Availability refined_allocation() const;

  /// Cached decomposition (test hook; valid while `has_plan()`).
  const SubintervalDecomposition& decomposition() const { return *subs_; }

  /// Pre-size the cached decomposition's buffers (see
  /// `SubintervalDecomposition::reserve`) so deltas within the bounds splice
  /// without reallocating the CSR arena.
  void reserve(std::size_t tasks, std::size_t boundaries, std::size_t overlap_mass);

 private:
  void full_rebuild(const TaskSet& live, const Exec& exec);
  void apply_remove(std::size_t index, const Exec& exec, DeltaOutcome& out);
  /// Returns false (leaving state untouched) when the task's boundaries
  /// cannot be spliced cleanly; the caller falls back to a full rebuild.
  bool apply_add(const Task& task, const Exec& exec, DeltaOutcome& out);
  /// Shared tail of both single-task ops: recompute the `d1_count` dirty
  /// availability columns starting at `d1_first`, refold the sums, re-run
  /// the refinement, and splice the repacked window into the cached
  /// schedule. `removed_old` is the removed task's *old* id (or -1 for an
  /// append): its old segment groups are dropped and higher old ids shift
  /// down by one. `d1_count == 0` (removals only) means the removed task lay
  /// entirely outside the surviving horizon and only the schedule re-key
  /// runs.
  void rebuild_from_dirty(std::size_t d1_first, std::size_t d1_count,
                          const std::vector<char>& in_dirty_set, TaskId removed_old,
                          const Exec& exec, DeltaOutcome& out);
  /// True when `value` can be spliced into the boundary array without
  /// violating the constructor's merge invariant (every pair of distinct
  /// values farther apart than `merge_tol`).
  bool insertable(double value) const;
  /// Splice one boundary value in (count bump or clean insert).
  void insert_boundary(double value);
  /// Splice one boundary value out; returns true when the value vanished.
  bool erase_boundary(double value);

  PowerModel power_;
  DeltaOptions options_;

  bool has_state_ = false;
  /// False when the cached set needed tolerance-merging of boundaries; the
  /// splice cannot maintain the merge's keep-first-representative choice, so
  /// every delta declines until a clean rebuild.
  bool clean_ = true;
  std::vector<Task> tasks_;  ///< the planned set, in TaskId order
  TaskSet task_set_;         ///< the same set, validated
  std::vector<double> bound_values_;        ///< sorted distinct boundary values
  std::vector<std::int32_t> bound_counts_;  ///< multiplicity per value
  std::optional<SubintervalDecomposition> subs_;
  std::optional<IdealCase> ideal_;
  Availability avail_;
  FinalRefinement refinement_;
  Schedule schedule_;

  /// Pending `reserve` request, applied when the decomposition exists.
  std::size_t reserve_tasks_ = 0;
  std::size_t reserve_bounds_ = 0;
  std::size_t reserve_mass_ = 0;
};

}  // namespace easched
