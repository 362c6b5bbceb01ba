#pragma once

/// \file subintervals.hpp
/// \brief Subinterval decomposition of the scheduling horizon (Section IV).
///
/// All distinct release times and deadlines `t_1 < t_2 < … < t_N` cut the
/// horizon `[R̄, D̄]` into `N−1` subintervals. Within a subinterval the set of
/// live ("overlapping") tasks is constant, which is what makes the paper's
/// per-subinterval rationing well defined.
///
/// Construction is a sweep over the sorted release/deadline events rather
/// than a per-subinterval membership scan: because an aperiodic task is live
/// on a *contiguous* run of subintervals (its window is one interval), two
/// binary searches per task yield its `[first_sub, last_sub]` range, and one
/// counting pass lays every overlap set into a single CSR-style arena
/// (per-subinterval offsets into one flat `TaskId` array). Total cost is
/// O(n log n + P) time and O(n + P) memory, where P = Σ_j n_j is the overlap
/// mass — versus O(n·N) for the scan — and the arena is sized exactly from
/// the sweep counts, so construction performs no reallocation.

#include <cstddef>
#include <span>
#include <vector>

#include "easched/tasksys/task_set.hpp"

namespace easched {

struct Exec;

/// One subinterval `[t_j, t_{j+1}]` together with its overlapping tasks.
/// `overlapping` views the decomposition's shared arena; it is valid exactly
/// as long as the owning `SubintervalDecomposition`.
struct Subinterval {
  double begin = 0.0;
  double end = 0.0;
  /// Tasks with `release ≤ begin` and `deadline ≥ end`, ascending TaskId.
  std::span<const TaskId> overlapping;

  double length() const { return end - begin; }

  /// Heavy ⇔ more overlapping tasks than cores (Section IV definition).
  bool heavy(int cores) const { return overlapping.size() > static_cast<std::size_t>(cores); }
};

/// The contiguous subinterval range a task is live on: indices
/// `[first, first + count)`. `count == 0` for a task whose window collapsed
/// under boundary merging.
struct SubRange {
  std::size_t first = 0;
  std::size_t count = 0;
};

/// The ordered decomposition for one task set.
///
/// Move-only: subintervals view the CSR arena, so a copy would alias the
/// source's storage.
class SubintervalDecomposition {
 public:
  /// Build from a non-empty task set. Nearly-equal boundary values (within
  /// `merge_tol`) are merged so that floating-point release/deadline noise
  /// does not create degenerate slivers.
  explicit SubintervalDecomposition(const TaskSet& tasks, double merge_tol = 1e-12);

  /// Same construction with the per-task range searches fanned out over
  /// `exec` (bit-identical to the serial constructor at any pool size).
  SubintervalDecomposition(const TaskSet& tasks, double merge_tol, const Exec& exec);

  /// Empty (no subintervals): a holder for `reserve` + `assign`.
  SubintervalDecomposition() = default;

  SubintervalDecomposition(const SubintervalDecomposition&) = delete;
  SubintervalDecomposition& operator=(const SubintervalDecomposition&) = delete;
  SubintervalDecomposition(SubintervalDecomposition&&) = default;
  SubintervalDecomposition& operator=(SubintervalDecomposition&&) = default;

  /// Rebuild in place from an externally spliced boundary array. The caller
  /// guarantees `boundaries` is sorted, strictly increasing, already merged
  /// (no two values within the constructor's `merge_tol`), and brackets every
  /// task window — exactly what the constructor's sort+merge would produce.
  /// Every internal buffer is reused; when capacities suffice (see `reserve`)
  /// no storage is reallocated, in particular the CSR overlap arena keeps its
  /// data pointer. Bit-identical to constructing from scratch.
  void assign(const TaskSet& tasks, std::span<const double> boundaries, const Exec& exec);

  /// Pre-size the internal buffers for up to `tasks` tasks, `boundaries`
  /// boundary values and `overlap_mass` CSR arena slots, so later `assign`
  /// calls within those bounds perform zero allocation. Safe at any time:
  /// the overlap spans follow the arena if it moves.
  void reserve(std::size_t tasks, std::size_t boundaries, std::size_t overlap_mass);

  /// \name In-place splice (the delta planner)
  /// Each edit leaves exactly the state a from-scratch build over the edited
  /// set produces, field by field, provided the boundary array stays merge
  /// free: the caller guarantees that a value it inserts lies farther than
  /// the merge tolerance from every other boundary, and that every member's
  /// release and deadline are boundaries. Within reserved capacity the arena
  /// keeps its data pointer.
  /// @{
  /// Add `task` as member `task_count()` (the largest id). A release or
  /// deadline not yet in the boundary array is inserted, splitting the
  /// column it falls in (both halves keep its overlap set) or opening an
  /// empty column at a horizon edge; the new id is then appended to the
  /// overlap set of every column of its window, which keeps each set
  /// ascending. Costs the window plus a move of the columns right of it.
  void append_task(const Task& task);
  /// Remove member `id`. `drop_release` / `drop_deadline` say that no other
  /// member shares its release / deadline, so the value leaves the boundary
  /// array: the two columns beside an inner value merge, and an edge column
  /// goes. One pass over the arena erases `id` and shifts every higher id
  /// down by one.
  void remove_task(TaskId id, bool drop_release, bool drop_deadline);
  /// @}

  /// Member count (the tasks the decomposition was built or spliced over).
  std::size_t task_count() const { return ranges_.size(); }

  std::size_t size() const { return intervals_.size(); }
  const Subinterval& operator[](std::size_t j) const { return intervals_[j]; }

  auto begin() const { return intervals_.begin(); }
  auto end() const { return intervals_.end(); }

  /// The sorted distinct boundary values `t_1 … t_N`.
  const std::vector<double>& boundaries() const { return boundaries_; }

  /// Indices of subintervals fully inside `[task.release, task.deadline]`.
  /// O(log N + out) via binary search on the boundary array.
  std::vector<std::size_t> covering(const Task& task) const;

  /// The contiguous range `covering(task)` spans, without materializing it:
  /// O(log N). Works for any task, member or not.
  SubRange covering_range(const Task& task) const;

  /// The precomputed live range of member task `i` (equals
  /// `covering_range(tasks[i])`, O(1)).
  SubRange range_of(TaskId i) const;

  /// Index of the subinterval containing time `t` (`begin ≤ t < end`;
  /// the final subinterval also claims its right endpoint).
  std::size_t index_at(double t) const;

  /// Largest overlap count max_j n_j.
  std::size_t max_overlap() const;

  /// Total overlap mass P = Σ_j n_j (the CSR arena length).
  std::size_t overlap_mass() const { return arena_.size(); }

  /// The flat CSR arena: subinterval `j`'s overlap set occupies
  /// `[offsets()[j], offsets()[j+1])`, ascending TaskId.
  std::span<const TaskId> overlap_arena() const { return arena_; }
  const std::vector<std::size_t>& offsets() const { return offsets_; }

 private:
  /// Shared tail of construction: sweep + counting + fill + interval views,
  /// assuming `boundaries_` already holds the merged sorted boundary array.
  void build_from_boundaries(const TaskSet& tasks, const Exec& exec);
  /// Point the intervals from `first` on at their boundaries and arena
  /// slices (all of them when the arena moved since `arena_before`).
  void refresh_intervals(std::size_t first, const TaskId* arena_before);

  std::vector<double> boundaries_;
  std::vector<Subinterval> intervals_;
  std::vector<std::size_t> offsets_;  ///< CSR offsets, size N(subintervals)+1
  std::vector<TaskId> arena_;         ///< flat overlap storage, length P
  std::vector<SubRange> ranges_;      ///< per-task live range
  /// `append_task` scratch: the window's old overlap sets and offsets.
  std::vector<TaskId> window_;
  std::vector<std::size_t> window_offsets_;
};

}  // namespace easched
