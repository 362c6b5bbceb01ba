#pragma once

/// \file interior_point.hpp
/// \brief Log-barrier interior-point solver for the reformulated problem.
///
/// The paper names the Interior Point method as the state-of-the-art exact
/// approach ("requires a large number of numeric evaluations and iterations"
/// — the very cost its heuristics avoid). This module implements it so the
/// claim can be measured, and as an independent check on the FISTA solver:
///
///   min  Σ_i g_i(T_i)     s.t.  0 ≤ x_{i,j} ≤ len_j,  Σ_i x_{i,j} ≤ m·len_j
///
/// Path following on the barrier Φ_μ(x) = F(x) − μ·Σ log(slacks), damped
/// Newton inner iterations with a fraction-to-boundary line search. The
/// Hessian is a positive diagonal plus `tasks + subintervals` rank-one
/// terms, so Newton directions come from the Woodbury identity with one
/// dense Cholesky of that small core matrix per step.

#include "easched/solver/convex_solver.hpp"

namespace easched {

class ThreadPool;

/// Interior-point knobs.
struct InteriorPointOptions {
  /// Barrier reduction factor per outer iteration.
  double barrier_decrease = 0.2;
  /// Terminate when the duality-gap proxy (constraint count · μ) falls
  /// below this fraction of the current objective.
  double gap_tol = 1e-9;
  /// Newton steps per barrier value.
  std::size_t max_newton_steps = 50;
  /// Newton decrement threshold for ending an inner phase.
  double newton_tol = 1e-10;
  /// Hard cap on outer iterations.
  std::size_t max_outer_iterations = 100;
  /// Optional worker pool for the dominant linear algebra (residual /
  /// Hessian-apply loops and the core Cholesky). Null runs serial. Iterates
  /// are bit-identical to the serial solver at any pool size (the
  /// determinism contract of `parallel/exec.hpp`).
  ThreadPool* pool = nullptr;
  /// Cooperative deadline/iteration budget (default: unlimited). Checked
  /// between Newton steps; `max_solver_iterations` caps Newton steps.
  PlanBudget budget{};
};

/// Statistics of an interior-point run (returned alongside the solution).
/// `solution.status` is the structured ending: converged, iteration cap,
/// budget exhaustion, or numerical breakdown (a failed Cholesky or a
/// non-finite iterate — the solution then carries the last good iterate).
struct InteriorPointResult {
  /// Shared result shape with the first-order solver.
  SolverResult solution;
  std::size_t outer_iterations = 0;
  std::size_t newton_steps = 0;
  /// Total dense Cholesky factorizations performed ("numeric evaluations").
  std::size_t factorizations = 0;
  double final_barrier = 0.0;
};

/// Solve problem (15) by the barrier method. `cores ≥ 1`.
InteriorPointResult solve_optimal_interior_point(const TaskSet& tasks,
                                                 const SubintervalDecomposition& subs,
                                                 int cores, const PowerModel& power,
                                                 const InteriorPointOptions& options = {});

/// Convenience overload building its own decomposition.
InteriorPointResult solve_optimal_interior_point(const TaskSet& tasks, int cores,
                                                 const PowerModel& power,
                                                 const InteriorPointOptions& options = {});

}  // namespace easched
