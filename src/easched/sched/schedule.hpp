#pragma once

/// \file schedule.hpp
/// \brief Concrete multi-core schedules: segments, validation, energy.
///
/// A `Schedule` is the materialized output of a scheduling algorithm: a list
/// of execution segments, each binding a task to a core for a time span at a
/// constant frequency. Validation checks the constraints from the paper's
/// problem definition (Section III-C): segments lie in the task's
/// `[R_i, D_i]`, no core runs two tasks at once, no task runs on two cores at
/// once, and every task completes its execution requirement.
///
/// Segment storage is copy-on-write: copying a `Schedule` shares its
/// segments, so a plan handed from the delta planner to the plan cache and
/// on to every cache hit is one buffer, not one copy per holder. `add`,
/// `reserve` and `coalesce` detach first; the other copies never change.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "easched/common/cow.hpp"
#include "easched/common/math.hpp"
#include "easched/power/power_model.hpp"
#include "easched/tasksys/task_set.hpp"

namespace easched {

/// One execution segment: task `task` runs on core `core` over
/// `[start, end)` at frequency `frequency`, completing
/// `frequency · (end − start)` units of work.
struct Segment {
  TaskId task = 0;
  CoreId core = 0;
  double start = 0.0;
  double end = 0.0;
  double frequency = 0.0;

  double duration() const { return end - start; }
  double work() const { return frequency * duration(); }

  friend bool operator==(const Segment&, const Segment&) = default;
};

/// Outcome of `Schedule::validate`.
struct ValidationReport {
  bool ok = true;
  /// Human-readable descriptions of every violation found.
  std::vector<std::string> violations;

  void fail(std::string message) {
    ok = false;
    violations.push_back(std::move(message));
  }
};

/// A complete schedule for a task set on `core_count` cores.
class Schedule {
 public:
  Schedule() = default;
  explicit Schedule(int core_count) : core_count_(core_count) {}

  /// Bulk-adopt a prebuilt segment list (the packer's fused pack+coalesce
  /// path). Every segment passes the same checks `add` applies, but the
  /// vector moves in whole — no per-segment append.
  Schedule(int core_count, std::vector<Segment> segments);

  int core_count() const { return core_count_; }
  void set_core_count(int m) { core_count_ = m; }

  void add(Segment segment);

  /// Pre-size segment storage for `additional` more `add` calls, so bulk
  /// producers (the packer) never pay vector-doubling reallocation.
  void reserve(std::size_t additional);

  const std::vector<Segment>& segments() const { return segments_.read(); }
  bool empty() const { return segments().empty(); }

  /// All segments of one task, sorted by start time.
  std::vector<Segment> segments_of_task(TaskId task) const;

  /// All segments on one core, sorted by start time.
  std::vector<Segment> segments_on_core(CoreId core) const;

  /// Total execution time Σ duration over all segments of `task`.
  double execution_time(TaskId task) const;

  /// Work completed for `task`: Σ frequency·duration.
  double completed_work(TaskId task) const;

  /// Total energy under a continuous power model: Σ p(f)·duration.
  /// Idle cores sleep at zero power (Section III-B), so only segments count.
  double energy(const PowerModel& power) const;

  /// Check all model constraints against `tasks` (work completion up to
  /// `work_tol` relative tolerance; geometric checks up to `time_tol`).
  /// The start-order index lives in per-thread scratch, so validating
  /// plan after plan reuses one buffer.
  ValidationReport validate(const TaskSet& tasks, double work_tol = 1e-6,
                            double time_tol = 1e-7) const;

  /// Merge adjacent segments of the same task/core/frequency (cosmetic; keeps
  /// traces small). Returns the number of merges performed.
  std::size_t coalesce(double time_tol = 1e-9, double freq_tol = 1e-9);

 private:
  int core_count_ = 0;
  Cow<std::vector<Segment>> segments_;
};

namespace detail {

/// `Schedule::coalesce`'s merge rule, shared with the packer's fold and the
/// delta planner's splice: `next` extends `last` when both run the same
/// task on the same core, `next` starts where `last` ends and the two
/// frequencies agree, all within the tolerances.
inline bool segments_merge(const Segment& last, const Segment& next, double time_tol,
                           double freq_tol) {
  return last.task == next.task && last.core == next.core &&
         almost_equal(last.end, next.start, time_tol, 0.0) &&
         almost_equal(last.frequency, next.frequency, freq_tol, freq_tol);
}

}  // namespace detail

}  // namespace easched
