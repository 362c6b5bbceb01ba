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
/// this: it caches the previous plan's full state (decomposition, ideal
/// case, availability, refinement arrays, packed schedule with each task's
/// offset into it) and edits it in place per delta, so an op costs its
/// *dirty span* — the changed window's columns plus the full live ranges of
/// every task overlapping them — rather than the size of the set:
///
///   1. splices the decomposition: at most two boundaries go in or out, the
///      columns they touch split or merge, and the task's id joins or
///      leaves its columns' overlap sets (`append_task` / `remove_task`);
///      the ideal case gains or loses one entry;
///   2. re-lays the availability rows in place (every cell outside the
///      changed window keeps its value), re-rations the window's columns
///      through the allocator's own per-column rule, and refolds only the
///      window's column sums and the sums of the rows crossing it;
///   3. re-refines only the dirty rows (closed form per task) and refolds
///      the energy over the cached per-task energies in task order;
///   4. re-packs the dirty span, widened until no old segment straddles a
///      cut, and splices the resulting segment groups into the cached
///      schedule: tasks outside the window copy as contiguous blocks,
///      window tasks re-run the coalescing fold over prefix ++ repacked ++
///      suffix.
///
/// Linear work is left only where it is a plain copy or shift: a removal
/// renumbers every higher id (arena, segment list), an insert moves the
/// columns and rows right of it, and the new segment list is one copy of
/// the old (the schedule is shared with the plans already served).
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
#include <cstdint>
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
  /// Columns of the dirty span — the changed window plus the live ranges
  /// of the tasks overlapping it, whose rows and segments are redone —
  /// summed over ops.
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

  /// Cached availability of the last served plan (test hook; valid while
  /// `has_plan()`).
  const Availability& availability() const { return avail_; }

  /// Cached decomposition (test hook; valid while `has_plan()`).
  const SubintervalDecomposition& decomposition() const { return subs_; }

  /// Cached refinement of the last served plan (test hook; valid while
  /// `has_plan()`).
  const FinalRefinement& refinement() const { return refinement_; }

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
  /// Shared tail of both single-task ops, run once the decomposition and
  /// ideal case are spliced and `mark_dirty` has flagged the dirty rows:
  /// re-ration the changed window's columns `[lo_idx, hi_idx)`, re-refine
  /// the dirty rows, re-pack the `d1_count` columns of the dirty span from
  /// `d1_first` on (widened past straddling segments), and splice them into
  /// the cached schedule. `removed` is the removed task's id (or -1 for an
  /// append): its segments are dropped and higher ids shift down by one.
  /// `d1_count == 0` (removals only) means the removed task lay entirely
  /// outside the surviving horizon and only the re-keying runs.
  void splice(std::size_t lo_idx, std::size_t hi_idx, std::size_t d1_first,
              std::size_t d1_count, TaskId removed, const Exec& exec, DeltaOutcome& out);
  /// Flag in `dirty_` (and list in `dirty_tasks_`) every task overlapping
  /// columns `[lo_idx, hi_idx)` and widen `[d1_first, d1_last]` to cover
  /// their live ranges.
  void mark_dirty(std::size_t lo_idx, std::size_t hi_idx, std::size_t& d1_first,
                  std::size_t& d1_last);
  /// True when `value` can be spliced into the boundary array without
  /// violating the constructor's merge invariant (every pair of distinct
  /// values farther apart than `merge_tol`).
  bool insertable(double value) const;
  /// Rebuild `seg_begin_` from `schedule_` (one counting pass).
  void index_segments();

  PowerModel power_;
  DeltaOptions options_;

  bool has_state_ = false;
  /// False when the cached set needed tolerance-merging of boundaries; the
  /// splice cannot maintain the merge's keep-first-representative choice, so
  /// every delta declines until a clean rebuild.
  bool clean_ = true;
  std::vector<Task> tasks_;                 ///< the planned set, in TaskId order
  std::vector<std::int32_t> bound_counts_;  ///< multiplicity of each `subs_` boundary
  SubintervalDecomposition subs_;
  std::optional<IdealCase> ideal_;
  Availability avail_;
  FinalRefinement refinement_;
  Schedule schedule_;
  /// Task `i`'s segments are `schedule_.segments()[seg_begin_[i],
  /// seg_begin_[i+1])`: the packer orders them by (task, core, start).
  std::vector<std::size_t> seg_begin_;

  /// Per-op scratch, kept across ops so a delta reuses the previous one's
  /// buffers.
  std::vector<char> dirty_;          ///< dirty-row flags
  std::vector<TaskId> dirty_tasks_;  ///< the flagged rows, in flagging order
  std::vector<char> in_window_;      ///< members of the repack window's columns
  std::vector<std::size_t> next_seg_begin_;

  /// Pending `reserve` request, applied when the decomposition exists.
  std::size_t reserve_tasks_ = 0;
  std::size_t reserve_bounds_ = 0;
  std::size_t reserve_mass_ = 0;
};

}  // namespace easched
