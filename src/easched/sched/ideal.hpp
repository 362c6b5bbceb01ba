#pragma once

/// \file ideal.hpp
/// \brief The ideal unlimited-core schedule `S^O` (Section V-A).
///
/// With unlimited cores every task runs alone: the energy-optimal frequency
/// has the closed form `f_i^O = max(f*, C_i/(D_i−R_i))` (equation (19)), the
/// task executes in one stretch `U_i^O = [R_i, R_i + C_i/f_i^O]`, and
/// `E^O = Σ C_i (γ f_i^{α−1} + p0/f_i)` (equations (20)–(21)). `S^O` is the
/// reference the DER-based allocator is built on, and `E^O` is the "IdL"
/// lower curve in the paper's figures (it ignores the core count, so it can
/// lie below the achievable optimum).

#include <span>
#include <vector>

#include "easched/common/contracts.hpp"
#include "easched/common/math.hpp"
#include "easched/power/power_model.hpp"
#include "easched/tasksys/task_set.hpp"

namespace easched {

/// The closed-form ideal case for one task set.
class IdealCase {
 public:
  IdealCase(const TaskSet& tasks, const PowerModel& power);

  /// \name Single-task edits (the delta planner)
  /// Both leave exactly the state construction over the edited set builds:
  /// an append extends the in-order energy fold by one term, an erase
  /// re-folds it.
  /// @{
  void push_back(const Task& task, const PowerModel& power);
  void erase(TaskId i);
  /// @}

  /// Optimal frequency `f_i^O` of equation (19).
  double frequency(TaskId i) const { return frequency_[static_cast<std::size_t>(i)]; }

  /// End of the single execution stretch: `R_i + C_i / f_i^O ≤ D_i`.
  double execution_end(TaskId i) const { return exec_end_[static_cast<std::size_t>(i)]; }

  /// Execution time of task `i` inside `[t1, t2]`: `|U_i^O ∩ [t1, t2]|`.
  /// Inline over the cached stretch endpoints — this is the DER allocator's
  /// innermost call, evaluated once per (task, subinterval) overlap (O(P)
  /// total), so it must not re-touch the task array.
  double execution_time_in(TaskId i, double t1, double t2) const {
    const auto idx = static_cast<std::size_t>(i);
    EASCHED_EXPECTS(idx < release_.size());
    return overlap_length(release_[idx], exec_end_[idx], t1, t2);
  }

  /// \name Flat per-task views (ascending TaskId)
  /// @{
  std::span<const double> frequencies() const { return frequency_; }
  std::span<const double> execution_ends() const { return exec_end_; }
  /// @}

  /// Per-task optimal energy `E_i^O` (equation (20)).
  double task_energy(TaskId i) const { return energy_[static_cast<std::size_t>(i)]; }

  /// Total ideal energy `E^O` (equation (21)).
  double total_energy() const { return total_energy_; }

  std::size_t size() const { return frequency_.size(); }

 private:
  std::vector<double> release_;  ///< R_i, cached so the hot path stays flat
  std::vector<double> frequency_;
  std::vector<double> exec_end_;
  std::vector<double> energy_;
  double total_energy_ = 0.0;
};

}  // namespace easched
