#include "easched/solver/interior_point.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "easched/common/contracts.hpp"
#include "easched/common/linalg.hpp"
#include "easched/faults/fault_injection.hpp"
#include "easched/obs/trace.hpp"
#include "easched/parallel/exec.hpp"
#include "easched/solver/problem.hpp"

namespace easched {

namespace {

using detail::SeparableObjective;
using detail::SolverLayout;

/// Per-variable metadata resolved once: owning task and block, and the cap.
struct VariableInfo {
  std::size_t task = 0;
  std::size_t block = 0;
  double cap = 0.0;
};

std::vector<VariableInfo> collect_variables(const SolverLayout& layout) {
  std::vector<VariableInfo> vars(layout.variable_count);
  for (std::size_t b = 0; b < layout.blocks.size(); ++b) {
    const auto& block = layout.blocks[b];
    for (std::size_t k = 0; k < block.tasks.size(); ++k) {
      vars[block.offset + k] = {static_cast<std::size_t>(block.tasks[k]), b, block.length};
    }
  }
  return vars;
}

/// Capacity slacks s_j = B_j − Σ_{v∈j} x_v. Each block sums its own
/// contiguous variable range in flat order — bit-identical at any pool size.
std::vector<double> block_slacks(const SolverLayout& layout, const std::vector<double>& x,
                                 const Exec& exec) {
  std::vector<double> s(layout.blocks.size());
  exec.loop(layout.blocks.size(), [&](std::size_t b) {
    const auto& block = layout.blocks[b];
    double used = 0.0;
    for (std::size_t k = 0; k < block.tasks.size(); ++k) used += x[block.offset + k];
    s[b] = block.budget - used;
  });
  return s;
}

/// Barrier value Φ_μ(x); +inf outside the strict interior. The log terms
/// land in per-variable slots and reduce serially in flat order, matching
/// the serial interleaved check-and-add loop bit for bit whenever the point
/// is interior (and agreeing on +inf whenever it is not).
double barrier_value(const SeparableObjective& objective, const SolverLayout& layout,
                     const std::vector<VariableInfo>& vars, const std::vector<double>& x,
                     double mu, const Exec& exec) {
  const double f = objective.value_from_totals(objective.totals(x, exec), exec);
  if (!std::isfinite(f)) return std::numeric_limits<double>::infinity();
  for (std::size_t v = 0; v < x.size(); ++v) {
    if (x[v] <= 0.0 || x[v] >= vars[v].cap) return std::numeric_limits<double>::infinity();
  }
  std::vector<double> term(x.size());
  exec.loop(x.size(), [&](std::size_t v) {
    term[v] = std::log(x[v]) + std::log(vars[v].cap - x[v]);
  });
  double barrier = 0.0;
  for (const double t : term) barrier += t;
  for (const double s : block_slacks(layout, x, exec)) {
    if (s <= 0.0) return std::numeric_limits<double>::infinity();
    barrier += std::log(s);
  }
  return f - mu * barrier;
}

}  // namespace

InteriorPointResult solve_optimal_interior_point(const TaskSet& tasks, int cores,
                                                 const PowerModel& power,
                                                 const InteriorPointOptions& options) {
  const SubintervalDecomposition subs(tasks);
  return solve_optimal_interior_point(tasks, subs, cores, power, options);
}

InteriorPointResult solve_optimal_interior_point(const TaskSet& tasks,
                                                 const SubintervalDecomposition& subs,
                                                 int cores, const PowerModel& power,
                                                 const InteriorPointOptions& options) {
  EASCHED_EXPECTS(!tasks.empty());
  EASCHED_EXPECTS(cores > 0);
  EASCHED_EXPECTS(options.barrier_decrease > 0.0 && options.barrier_decrease < 1.0);

  const SolverLayout layout = SolverLayout::build(subs, cores);
  const SeparableObjective objective(tasks, power, layout);
  const std::vector<VariableInfo> vars = collect_variables(layout);
  const Exec exec = options.pool != nullptr ? Exec::on(*options.pool) : Exec::serial();

  obs::Span solve_span("solver.ipm");
  solve_span.arg("tasks", static_cast<double>(tasks.size()));

  const std::size_t n_vars = layout.variable_count;
  const std::size_t n_tasks = tasks.size();
  const std::size_t n_blocks = layout.blocks.size();
  const double constraint_count = static_cast<double>(2 * n_vars + n_blocks);

  // Strictly interior start: half the even split.
  std::vector<double> x = detail::interior_point(layout, 0.5);

  InteriorPointResult result;
  double mu = (std::abs(objective.value(x)) + 1.0) / constraint_count;

  SolverStatus status = SolverStatus::kIterationCap;
  bool aborted = false;
  // Last iterate whose totals were verified finite; restored on numerical
  // breakdown so the caller always receives a usable point.
  std::vector<double> checkpoint = x;

  // Fault-injection verdicts for this invocation (always false outside
  // fault-injected tests/CI).
  if (faults::fire(FaultSite::kSolverStall)) {
    status = SolverStatus::kStallInjected;
    aborted = true;
  }
  if (!aborted && faults::fire(FaultSite::kSolverNan)) {
    x[0] = std::numeric_limits<double>::quiet_NaN();
  }

  for (std::size_t outer = 0; !aborted && outer < options.max_outer_iterations; ++outer) {
    ++result.outer_iterations;
    obs::Span outer_span("solver.ipm.outer");
    outer_span.arg("mu", mu);

    // Damped Newton on Φ_μ.
    for (std::size_t step = 0; step < options.max_newton_steps; ++step) {
      obs::Span newton_span("solver.ipm.newton");
      if (options.budget.expired() ||
          options.budget.iterations_exhausted(result.newton_steps)) {
        status = SolverStatus::kBudgetExhausted;
        aborted = true;
        break;
      }
      const std::vector<double> totals = objective.totals(x, exec);
      bool finite = true;
      for (const double t : totals) {
        if (!std::isfinite(t)) finite = false;
      }
      if (!finite) {
        status = SolverStatus::kNumericalBreakdown;
        aborted = true;
        x = checkpoint;
        break;
      }
      checkpoint = x;
      const std::vector<double> gprime = objective.task_gradient(totals, exec);
      const std::vector<double> gsecond = objective.task_hessian(totals, exec);
      const std::vector<double> slack = block_slacks(layout, x, exec);

      // Gradient of Φ and the diagonal part D of its Hessian (element-wise,
      // each v writes its own slots).
      std::vector<double> grad(n_vars), diag(n_vars), dinv_grad(n_vars);
      exec.loop(n_vars, [&](std::size_t v) {
        const double lo = x[v];
        const double hi = vars[v].cap - x[v];
        EASCHED_ASSERT(lo > 0.0 && hi > 0.0);
        grad[v] = gprime[vars[v].task] - mu / lo + mu / hi + mu / slack[vars[v].block];
        diag[v] = mu / (lo * lo) + mu / (hi * hi);
        EASCHED_ASSERT(diag[v] > 0.0);
        dinv_grad[v] = grad[v] / diag[v];
      });

      // Woodbury: H = D + U·W·Uᵀ with task indicators (weight g''_i) and
      // block indicators (weight μ/s_j²). Solve H·d = −grad through the
      // (n_tasks + n_blocks) core system M = W⁻¹ + Uᵀ D⁻¹ U.
      //
      // The serial sweep over v updates each core entry independently, so it
      // splits into two owner-computes passes that reproduce every entry's
      // accumulation order exactly: task ti owns row ti plus the (bj, ti)
      // column entries (a task meets each block at most once, so those are
      // single writes), and block bj owns its diagonal and rhs slot. Both
      // passes visit their variables in ascending flat order — the serial
      // order.
      const std::size_t core_dim = n_tasks + n_blocks;
      Matrix core(core_dim, core_dim);
      std::vector<double> rhs_core(core_dim, 0.0);
      const std::vector<std::size_t>& tvo = objective.task_var_offsets();
      const std::vector<std::size_t>& tvi = objective.task_vars();
      exec.loop(n_tasks, [&](std::size_t ti) {
        double diag_sum = 0.0;
        double rhs_sum = 0.0;
        for (std::size_t k = tvo[ti]; k < tvo[ti + 1]; ++k) {
          const std::size_t v = tvi[k];
          const std::size_t bj = n_tasks + vars[v].block;
          const double dinv = 1.0 / diag[v];
          diag_sum += dinv;
          core(ti, bj) += dinv;
          core(bj, ti) += dinv;
          rhs_sum += dinv_grad[v];
        }
        core(ti, ti) = diag_sum;
        rhs_core[ti] = rhs_sum;
      });
      exec.loop(n_blocks, [&](std::size_t b) {
        const auto& block = layout.blocks[b];
        double diag_sum = 0.0;
        double rhs_sum = 0.0;
        for (std::size_t k = 0; k < block.tasks.size(); ++k) {
          const std::size_t v = block.offset + k;
          diag_sum += 1.0 / diag[v];
          rhs_sum += dinv_grad[v];
        }
        core(n_tasks + b, n_tasks + b) = diag_sum;
        rhs_core[n_tasks + b] = rhs_sum;
      });
      for (std::size_t i = 0; i < n_tasks; ++i) {
        EASCHED_ASSERT(gsecond[i] > 0.0);
        core(i, i) += 1.0 / gsecond[i];
      }
      for (std::size_t b = 0; b < n_blocks; ++b) {
        core(n_tasks + b, n_tasks + b) += slack[b] * slack[b] / mu;
      }

      ++result.factorizations;
      const auto factor = cholesky(core, 1e-300, exec);
      if (!factor.has_value()) {
        // The core matrix lost positive definiteness — a genuine numerical
        // breakdown, reported structurally instead of asserted away.
        status = SolverStatus::kNumericalBreakdown;
        aborted = true;
        break;
      }
      const std::vector<double> y = cholesky_solve(*factor, rhs_core);

      // d = −D⁻¹ grad + D⁻¹ U y.
      std::vector<double> direction(n_vars);
      exec.loop(n_vars, [&](std::size_t v) {
        const double uy = y[vars[v].task] + y[n_tasks + vars[v].block];
        direction[v] = (-grad[v] + uy) / diag[v];
      });

      // Newton decrement λ² = −gradᵀd; stop the inner phase when tiny.
      const double decrement = -dot(grad, direction);
      newton_span.arg("decrement", decrement);
      if (!std::isfinite(decrement)) {
        status = SolverStatus::kNumericalBreakdown;
        aborted = true;
        break;
      }
      if (decrement <= 2.0 * options.newton_tol) break;

      // Fraction-to-boundary rule keeps the iterate strictly interior.
      double alpha_max = 1.0;
      for (std::size_t v = 0; v < n_vars; ++v) {
        if (direction[v] < 0.0) alpha_max = std::min(alpha_max, -x[v] / direction[v]);
        if (direction[v] > 0.0) {
          alpha_max = std::min(alpha_max, (vars[v].cap - x[v]) / direction[v]);
        }
      }
      for (std::size_t b = 0; b < n_blocks; ++b) {
        const auto& block = layout.blocks[b];
        double dsum = 0.0;
        for (std::size_t k = 0; k < block.tasks.size(); ++k) dsum += direction[block.offset + k];
        if (dsum > 0.0) alpha_max = std::min(alpha_max, slack[b] / dsum);
      }
      double alpha = 0.99 * alpha_max;

      // Armijo backtracking on Φ_μ.
      const double phi0 = barrier_value(objective, layout, vars, x, mu, exec);
      std::vector<double> trial(n_vars);
      for (int backtrack = 0; backtrack < 60; ++backtrack) {
        exec.loop(n_vars, [&](std::size_t v) { trial[v] = x[v] + alpha * direction[v]; });
        const double phi = barrier_value(objective, layout, vars, trial, mu, exec);
        if (phi <= phi0 - 0.25 * alpha * decrement) break;
        alpha *= 0.5;
      }
      newton_span.arg("alpha", alpha);
      x = trial;
      ++result.newton_steps;
    }
    if (aborted) break;

    // Duality-gap proxy: for the standard log barrier the gap is exactly
    // (number of constraints)·μ at the central point.
    const double objective_scale = std::abs(objective.value(x)) + 1.0;
    if (constraint_count * mu < options.gap_tol * objective_scale) break;
    mu *= options.barrier_decrease;
  }

  result.final_barrier = mu;
  result.solution.allocation = layout.to_availability(x, tasks, subs);
  result.solution.execution_time = objective.totals(x);
  result.solution.energy = objective.value(x);
  result.solution.iterations = result.newton_steps;
  result.solution.kkt_residual = constraint_count * mu;
  result.solution.converged =
      !aborted &&
      constraint_count * mu < options.gap_tol * (std::abs(result.solution.energy) + 1.0);
  if (result.solution.converged) {
    status = SolverStatus::kConverged;
  }
  solve_span.arg("newton_steps", static_cast<double>(result.newton_steps));
  solve_span.set_status(solver_status_name(status).data());
  result.solution.status = status;
  return result;
}

}  // namespace easched
