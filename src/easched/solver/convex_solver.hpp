#pragma once

/// \file convex_solver.hpp
/// \brief Numerically exact solver for the reformulated problem (15).
///
/// Theorem 1 shows the energy-minimal scheduling reduces to the convex
/// program
///
///   min  Σ_i [ γ·C_i^α / T_i^{α−1} + p0·T_i ],   T_i = Σ_j x_{i,j}
///   s.t. 0 ≤ x_{i,j} ≤ len_j  for subintervals inside [R_i, D_i]
///        x_{i,j} = 0          otherwise
///        Σ_i x_{i,j} ≤ m·len_j                   (capacity, eq. (14))
///
/// The paper solves it with an interior-point method; we use accelerated
/// projected gradient (FISTA with backtracking and adaptive restart) over
/// exactly that feasible polytope — the per-subinterval projection is the
/// capped-simplex projection in `projection.hpp`. The result supplies the
/// `E^{OPT}` denominator of every Normalized Energy Consumption (NEC) figure,
/// and `kkt_residual` certifies optimality (projected-gradient norm).

#include <cstddef>
#include <string_view>
#include <vector>

#include "easched/power/power_model.hpp"
#include "easched/sched/allocation.hpp"
#include "easched/sched/schedule.hpp"
#include "easched/solver/plan_budget.hpp"
#include "easched/tasksys/subintervals.hpp"
#include "easched/tasksys/task_set.hpp"

namespace easched {

/// How a solver run ended. Structured so callers can distinguish "the
/// answer is optimal" from the three distinct ways a solve degrades —
/// ran out of iterations, ran out of wall clock, or broke down numerically
/// (NaN/Inf iterates, failed factorization). The fallback chain keys its
/// escalation decisions off this.
enum class SolverStatus {
  kConverged,           ///< met the stationarity / duality-gap criterion
  kIterationCap,        ///< exhausted iterations before converging
  kBudgetExhausted,     ///< `PlanBudget` wall-clock deadline passed
  kNumericalBreakdown,  ///< non-finite iterate or failed factorization
  kStallInjected,       ///< fault injection forced a stall (tests/CI only)
};

/// Stable display name ("converged", "iteration_cap", ...).
std::string_view solver_status_name(SolverStatus status);

/// Solver knobs. Defaults solve the paper's instances (n ≤ 40, N ≤ 80) to
/// well below figure resolution in a few milliseconds.
struct SolverOptions {
  std::size_t max_iterations = 20000;
  /// Stop when the gradient-mapping (projected-gradient) norm has shrunk by
  /// this factor relative to the starting point — a scale-free KKT
  /// stationarity criterion.
  double objective_tol = 1e-6;
  /// Initial inverse step size (backtracking adapts it in both directions).
  double initial_lipschitz = 1.0;
  /// Cooperative deadline/iteration budget (default: unlimited). Checked
  /// before the solver's setup and between iterations; on expiry the
  /// solver returns its best-so-far iterate (its starting point, when
  /// spent at entry) with `SolverStatus::kBudgetExhausted`.
  PlanBudget budget{};
};

/// Solution of the convex program.
struct SolverResult {
  /// Optimal available-time matrix (x_{i,j}), row-compressed.
  Availability allocation;
  /// Per-task total execution time T_i.
  std::vector<double> execution_time;
  /// Optimal objective value E^{OPT}.
  double energy = 0.0;
  /// Iterations consumed.
  std::size_t iterations = 0;
  /// Projected-gradient norm at the solution (KKT stationarity residual);
  /// NaN when a stall or a spent budget ended the solve at entry.
  double kkt_residual = 0.0;
  /// False when the solve ended for any reason other than convergence.
  bool converged = false;
  /// Structured ending (refines `converged`).
  SolverStatus status = SolverStatus::kIterationCap;
};

/// Solve for the optimal energy. `cores ≥ 1`.
SolverResult solve_optimal_allocation(const TaskSet& tasks, int cores, const PowerModel& power,
                                      const SolverOptions& options = {});

/// Same, reusing a precomputed decomposition.
SolverResult solve_optimal_allocation(const TaskSet& tasks,
                                      const SubintervalDecomposition& subs, int cores,
                                      const PowerModel& power, const SolverOptions& options = {});

/// Materialize the solver's allocation into a collision-free `Schedule`
/// (Algorithm 1 per subinterval, each task at its constant optimal frequency
/// C_i/T_i — Observation 1).
Schedule materialize_optimal_schedule(const TaskSet& tasks, const SubintervalDecomposition& subs,
                                      int cores, const SolverResult& result);

}  // namespace easched
