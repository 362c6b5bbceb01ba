#pragma once

/// \file allocation.hpp
/// \brief Available-execution-time allocation per subinterval (Section V).
///
/// The heart of the paper: every overlapping task of a *light* subinterval
/// may use the whole subinterval; inside a *heavy* subinterval the `m·len`
/// core-seconds are rationed, either evenly (`m·len/n_j` each) or
/// proportionally to the tasks' Desired Execution Requirements in the ideal
/// schedule (Algorithm 2).

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "easched/common/contracts.hpp"
#include "easched/sched/ideal.hpp"
#include "easched/tasksys/subintervals.hpp"
#include "easched/tasksys/task_set.hpp"

namespace easched {

struct Exec;

/// Which heavy-subinterval rationing rule to use.
enum class AllocationMethod {
  kEven,  ///< `m·len/n_j` per overlapping task (schedulers I1/F1).
  kDer,   ///< proportional to DER, Algorithm 2 (schedulers I2/F2).
};

const char* to_string(AllocationMethod method);

/// Sparse row-compressed matrix of *available execution times*:
/// `avail(i, j)` is the time budget task `i` may occupy a core during
/// subinterval `j` (0 when `[t_j, t_{j+1}] ⊄ [R_i, D_i]`).
///
/// An aperiodic task's window is one interval, so the subintervals it can
/// use form a contiguous run `[first_i, first_i + span_i)` — its row is
/// dense *within* that run and structurally zero outside it. Rows are
/// therefore stored as per-task slices of one flat value array (offset +
/// span), giving O(n + P) memory where P = Σ_i span_i = Σ_j n_j, instead of
/// the dense n·N layout. Row and column sums are cached: `set()` maintains
/// both incrementally (O(1)); the bulk-fill path used by the allocators
/// writes values and column sums during the per-subinterval loop (each
/// column is owned by exactly one loop iteration) and then computes row sums
/// in one deterministic in-order pass, so cached sums are bit-identical to
/// the dense accumulate-in-index-order sums at any pool size.
class Availability {
 public:
  /// Empty (0 × 0).
  Availability() = default;

  /// Rows keyed by each member task's live range in `subs`; all values 0.
  Availability(const TaskSet& tasks, const SubintervalDecomposition& subs);

  /// Rows from explicit `(first, count)` spans per task (tests, adapters).
  Availability(std::vector<SubRange> spans, std::size_t subintervals);

  std::size_t task_count() const { return spans_.size(); }
  std::size_t subinterval_count() const { return subintervals_; }
  /// Stored values Σ_i span_i (the structure's O(n + P) footprint).
  std::size_t value_count() const { return values_.size(); }

  // The accessors below are defined inline: the kernel touches every stored
  // cell several times per plan (Σ_j n_j reaches tens of millions at
  // n = 10000), so a cross-TU call per cell is measurable.

  /// Value at (task, subinterval); exact 0.0 outside the task's span.
  double operator()(std::size_t task, std::size_t subinterval) const {
    EASCHED_EXPECTS(task < spans_.size() && subinterval < subintervals_);
    const SubRange& r = spans_[task];
    if (subinterval < r.first || subinterval >= r.first + r.count) return 0.0;
    return values_[offsets_[task] + (subinterval - r.first)];
  }

  /// Set a cell inside the task's span (setting outside it throws — those
  /// cells are structurally zero). Maintains the cached row and column sums
  /// incrementally; not safe for concurrent use (the parallel allocators use
  /// the column-fill + `finalize_row_sums` path instead).
  void set(std::size_t task, std::size_t subinterval, double value) {
    EASCHED_EXPECTS(value >= 0.0);
    double* cell = slot(task, subinterval);
    row_sum_[task] += value - *cell;
    col_sum_[subinterval] += value - *cell;
    *cell = value;
  }

  /// Total available time of one task: `A_i = Σ_j avail(i, j)`, O(1).
  double row_sum(std::size_t task) const {
    EASCHED_EXPECTS(task < spans_.size());
    return row_sum_[task];
  }

  /// Total allocated time in one subinterval: `Σ_i avail(i, j)`, O(1).
  double column_sum(std::size_t subinterval) const {
    EASCHED_EXPECTS(subinterval < subintervals_);
    return col_sum_[subinterval];
  }

  /// The task's live range (row support).
  SubRange task_range(std::size_t task) const {
    EASCHED_EXPECTS(task < spans_.size());
    return spans_[task];
  }

  /// The task's dense row slice: element `k` is subinterval
  /// `task_range(task).first + k`.
  std::span<const double> row(std::size_t task) const {
    EASCHED_EXPECTS(task < spans_.size());
    return std::span<const double>(values_).subspan(offsets_[task], spans_[task].count);
  }

  /// \name Bulk-fill path (allocators)
  /// Writers that fan the per-subinterval rationing out over an `Exec` must
  /// not touch shared row accumulators. `set_in_column` writes the value and
  /// updates only the column sum — safe because subinterval `j` is written
  /// by exactly one loop iteration — and `finalize_row_sums` then computes
  /// every row sum in ascending-subinterval order (parallel over tasks,
  /// deterministic at any pool size).
  /// @{
  void set_in_column(std::size_t task, std::size_t subinterval, double value) {
    EASCHED_EXPECTS(value >= 0.0);
    double* cell = slot(task, subinterval);
    col_sum_[subinterval] += value - *cell;
    *cell = value;
  }
  void finalize_row_sums(const Exec& exec);
  /// @}

  /// \name Delta-replanning path (DeltaPlanner)
  /// An incremental replan copies the untouched rows of the previous plan
  /// wholesale and recomputes only dirty columns, then restores the cached
  /// sums by *refolding* — never by incremental add/subtract, which would
  /// break the bit-identity contract with a from-scratch plan.
  /// @{
  /// Mutable row slice (same indexing as `row`). Writers bypass the sum
  /// caches; call `rebuild_sums` before any sum is read.
  std::span<double> row_values(std::size_t task) {
    EASCHED_EXPECTS(task < spans_.size());
    return std::span<double>(values_).subspan(offsets_[task], spans_[task].count);
  }
  /// Recompute every cached column sum (ascending-member fold over the CSR
  /// overlap set of each column) and row sum (ascending-subinterval fold) —
  /// the exact folds the bulk-fill path produces, so the cached sums are
  /// bit-identical to a from-scratch allocation over the same values.
  void rebuild_sums(const SubintervalDecomposition& subs, const Exec& exec);
  /// @}

 private:
  double* slot(std::size_t task, std::size_t subinterval) {
    EASCHED_EXPECTS(task < spans_.size() && subinterval < subintervals_);
    const SubRange& r = spans_[task];
    EASCHED_EXPECTS_MSG(subinterval >= r.first && subinterval < r.first + r.count,
                        "cell outside the task's live range is structurally zero");
    return &values_[offsets_[task] + (subinterval - r.first)];
  }

  std::vector<SubRange> spans_;         ///< per-task row support
  std::vector<std::size_t> offsets_;    ///< per-task offset into values_
  std::vector<double> values_;          ///< flat row-major-within-span storage
  std::vector<double> row_sum_;
  std::vector<double> col_sum_;
  std::size_t subintervals_ = 0;
};

/// Allocate available execution times for all subintervals.
///
/// Light subintervals give each overlapping task the full length
/// (Observation 2). Heavy subintervals are rationed per `method`; the DER
/// rule distributes the full capacity `m·len` proportionally to
/// `DER(τ) = |U^O_τ ∩ [t_j, t_{j+1}]| · f^O_τ` (equation (24)), capping each
/// share at `len` and re-normalizing the rest — reproduced from the paper's
/// worked example (Section V-D). When every DER is zero the even split is
/// used as a fallback.
Availability allocate_available_time(const TaskSet& tasks,
                                     const SubintervalDecomposition& subintervals, int cores,
                                     const IdealCase& ideal, AllocationMethod method);

/// Same allocation with the per-subinterval rationing fanned out over
/// `exec`: subinterval `j` writes only column `j`, so the result is
/// bit-identical to the serial overload at any pool size.
Availability allocate_available_time(const TaskSet& tasks,
                                     const SubintervalDecomposition& subintervals, int cores,
                                     const IdealCase& ideal, AllocationMethod method,
                                     const Exec& exec);

/// Ration one subinterval: write column `subinterval` of `avail` exactly as
/// `allocate_available_time` fills it (the full length per task when light,
/// `method`'s share when heavy). Updates the column sum but no row sum —
/// call `finalize_row_sums` or `rebuild_sums` once every column is written.
/// The delta planner recomputes its dirty columns through this, so they
/// match a from-scratch fill bit for bit.
void allocate_column(const SubintervalDecomposition& subintervals, std::size_t subinterval,
                     int cores, const IdealCase& ideal, AllocationMethod method,
                     Availability& avail);

/// Up to this many positive DERs, Algorithm 2's descending-DER order comes
/// from a comparison sort; above it, from the radix sort. Both produce the
/// same order. A radix pass costs a fixed 256-bucket histogram, so eight of
/// them dwarf a handful of comparisons: on a 4-vCPU x86 host the two broke
/// even near 100 keys (96 for random doubles, about 128 for the DERs of
/// the paper's uniform n = 1000 set), and at 64 the comparison sort took
/// half the radix's time. The service's dense sets see about five keys per
/// heavy subinterval, the paper's uniform n = 1000–10000 sets hundreds.
inline constexpr std::size_t kDerRadixCutoff = 64;

/// The heavy-subinterval DER rationing in isolation (Algorithm 2): given each
/// task's DER and the capacity `cores·length`, return per-task allocations
/// (same order as `ders`), each in `[0, length]`, summing to at most the
/// capacity. Exposed for unit testing and for the allocation ablation bench.
std::vector<double> der_ration(const std::vector<double>& ders, int cores, double length);

/// The even rationing in isolation: `min(length, cores·length/n)` each.
std::vector<double> even_ration(std::size_t task_count, int cores, double length);

}  // namespace easched
