#include "easched/solver/convex_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "easched/common/contracts.hpp"
#include "easched/common/math.hpp"
#include "easched/faults/fault_injection.hpp"
#include "easched/obs/trace.hpp"
#include "easched/sched/packing.hpp"
#include "easched/solver/problem.hpp"
#include "easched/solver/projection.hpp"

namespace easched {

std::string_view solver_status_name(SolverStatus status) {
  switch (status) {
    case SolverStatus::kConverged: return "converged";
    case SolverStatus::kIterationCap: return "iteration_cap";
    case SolverStatus::kBudgetExhausted: return "budget_exhausted";
    case SolverStatus::kNumericalBreakdown: return "numerical_breakdown";
    case SolverStatus::kStallInjected: return "stall_injected";
  }
  return "unknown";
}

namespace {

/// Project each subinterval block onto its capped simplex.
void project_feasible(std::vector<double>& x, const detail::SolverLayout& layout) {
  for (const auto& block : layout.blocks) {
    const std::span<double> vars(x.data() + block.offset, block.tasks.size());
    const std::vector<double> caps(block.tasks.size(), block.length);
    project_capped_simplex(vars, caps, block.budget);
  }
}

double squared_distance(const std::vector<double>& a, const std::vector<double>& b) {
  double sum = 0.0;
  for (std::size_t k = 0; k < a.size(); ++k) sum += sq(a[k] - b[k]);
  return sum;
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double sum = 0.0;
  for (std::size_t k = 0; k < a.size(); ++k) sum += a[k] * b[k];
  return sum;
}

}  // namespace

SolverResult solve_optimal_allocation(const TaskSet& tasks, int cores, const PowerModel& power,
                                      const SolverOptions& options) {
  const SubintervalDecomposition subs(tasks);
  return solve_optimal_allocation(tasks, subs, cores, power, options);
}

SolverResult solve_optimal_allocation(const TaskSet& tasks,
                                      const SubintervalDecomposition& subs, int cores,
                                      const PowerModel& power, const SolverOptions& options) {
  EASCHED_EXPECTS(!tasks.empty());
  EASCHED_EXPECTS(cores > 0);
  EASCHED_EXPECTS(options.max_iterations > 0);

  // Fault-injection verdicts for this invocation (always false outside
  // fault-injected tests/CI), drawn before any setup and always in this
  // order, so each site's verdict sequence does not depend on the budget: a
  // forced stall ends the solve before its first iteration; a poisoned
  // iterate exercises the breakdown detection below. A budget already spent
  // ends the solve there too.
  const bool stall_injected = faults::fire(FaultSite::kSolverStall);
  const bool poison_injected = faults::fire(FaultSite::kSolverNan);
  const bool ends_at_entry = stall_injected || options.budget.expired();

  const detail::SolverLayout layout = detail::SolverLayout::build(subs, cores);
  const detail::SeparableObjective objective(tasks, power, layout);
  std::vector<double> x = detail::interior_point(layout);

  const auto result_at = [&](SolverStatus status, std::size_t iterations, double residual) {
    SolverResult result;
    result.allocation = layout.to_availability(x, tasks, subs);
    result.execution_time = objective.totals(x);
    result.energy = objective.value(x);
    result.iterations = iterations;
    result.kkt_residual = residual;
    result.converged = status == SolverStatus::kConverged;
    result.status = status;
    return result;
  };
  // Ending at entry returns the starting point as the best-so-far iterate,
  // without the solver state or the starting residual (a projection of
  // every block), so its residual is not measured.
  if (ends_at_entry) {
    return result_at(stall_injected ? SolverStatus::kStallInjected
                                    : SolverStatus::kBudgetExhausted,
                     0, std::numeric_limits<double>::quiet_NaN());
  }

  obs::Span solve_span("solver.fista");
  solve_span.arg("tasks", static_cast<double>(tasks.size()));

  // Monotone FISTA (accelerated projected gradient): backtracking line
  // search, function-value restart with a guaranteed-descent fallback step,
  // and a scale-free gradient-mapping stopping criterion.
  std::vector<double> x_prev = x;
  std::vector<double> y = x;
  std::vector<double> grad, totals, candidate;
  double momentum_t = 1.0;
  double lipschitz = std::max(options.initial_lipschitz, 1e-12);
  double f_x = objective.value(x);
  std::size_t iterations = 0;
  SolverStatus status = SolverStatus::kIterationCap;

  // One backtracked projected-gradient step from `base` (with value f_base
  // and gradient g_base): returns the candidate and its value, growing
  // `lipschitz` until the quadratic upper bound holds.
  const auto backtracked_step = [&](const std::vector<double>& base, double f_base,
                                    const std::vector<double>& g_base,
                                    std::vector<double>& out) {
    for (;;) {
      out = base;
      for (std::size_t k = 0; k < out.size(); ++k) out[k] -= g_base[k] / lipschitz;
      project_feasible(out, layout);
      std::vector<double> diff(out.size());
      for (std::size_t k = 0; k < out.size(); ++k) diff[k] = out[k] - base[k];
      const double quad =
          f_base + dot(g_base, diff) + 0.5 * lipschitz * squared_distance(out, base);
      const double f_out = objective.value(out);
      // A NaN objective can never satisfy the descent test; surface it to
      // the caller's breakdown detection instead of backtracking forever.
      if (std::isnan(f_out)) return f_out;
      if (f_out <= quad + 1e-12 * std::abs(quad)) return f_out;
      lipschitz *= 2.0;
      EASCHED_ASSERT(lipschitz < 1e30);
    }
  };

  // Gradient-mapping norm at x (KKT stationarity residual at step 1/L).
  const auto gradient_mapping = [&]() {
    objective.gradient(x, grad, totals);
    std::vector<double> mapped = x;
    const double step = 1.0 / lipschitz;
    for (std::size_t k = 0; k < mapped.size(); ++k) mapped[k] -= step * grad[k];
    project_feasible(mapped, layout);
    return std::sqrt(squared_distance(x, mapped)) / step;
  };

  const double starting_residual = gradient_mapping();
  const double initial_residual = std::max(starting_residual, 1e-300);
  double best_residual = initial_residual;
  std::size_t checks_without_progress = 0;

  // The first pass's budget check comes once setup is done.
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    if (options.budget.expired() || options.budget.iterations_exhausted(iter)) {
      status = SolverStatus::kBudgetExhausted;
      break;
    }
    iterations = iter + 1;
    obs::Span iter_span("solver.fista.iter");
    // Let the step size recover; backtracking grows it back when needed.
    lipschitz = std::max(0.5 * lipschitz, 1e-12);

    if (poison_injected && iter == 0) {
      y[0] = std::numeric_limits<double>::quiet_NaN();
    }

    // Momentum point may have a non-finite or non-positive task total (the
    // objective is undefined there): a NaN/Inf total is a numerical
    // breakdown (x keeps the last good iterate); a vanishing one falls back
    // to the last feasible iterate.
    {
      const std::vector<double> ty = objective.totals(y);
      bool broken = false;
      bool restart = false;
      for (const double t : ty) {
        if (!std::isfinite(t)) broken = true;
        if (t <= 1e-300) restart = true;
      }
      if (broken) {
        status = SolverStatus::kNumericalBreakdown;
        break;
      }
      if (restart) {
        y = x;
        momentum_t = 1.0;
      }
    }

    objective.gradient(y, grad, totals);
    const double f_y = objective.value_from_totals(totals);
    double f_candidate = backtracked_step(y, f_y, grad, candidate);

    if (std::isnan(f_candidate)) {
      status = SolverStatus::kNumericalBreakdown;
      break;
    }
    if (f_candidate > f_x) {
      // Momentum overshoot: restart and take a plain (monotone) projected
      // gradient step from x — backtracking guarantees descent from x.
      momentum_t = 1.0;
      objective.gradient(x, grad, totals);
      f_candidate = backtracked_step(x, f_x, grad, candidate);
      if (std::isnan(f_candidate)) {
        status = SolverStatus::kNumericalBreakdown;
        break;
      }
    }

    const double t_next = 0.5 * (1.0 + std::sqrt(1.0 + 4.0 * momentum_t * momentum_t));
    y = candidate;
    const double beta = (momentum_t - 1.0) / t_next;
    for (std::size_t k = 0; k < y.size(); ++k) y[k] += beta * (candidate[k] - x_prev[k]);
    momentum_t = t_next;
    x_prev = x;
    x = candidate;
    f_x = std::min(f_x, f_candidate);
    iter_span.arg("lipschitz", lipschitz);

    // Stationarity check (cheap relative to a step); scale-free: relative
    // to the residual at the starting point. The projection's bisection puts
    // a noise floor under the residual, so a long plateau also terminates.
    if (iter % 4 == 3 || iter + 1 == options.max_iterations) {
      const double gm = gradient_mapping();
      iter_span.arg("residual", gm);
      if (gm <= options.objective_tol * initial_residual) {
        status = SolverStatus::kConverged;
        break;
      }
      if (gm < 0.5 * best_residual) {
        best_residual = gm;
        checks_without_progress = 0;
      } else if (++checks_without_progress >= 50) {
        // Numerically stationary: accept if within a relaxed band.
        if (gm <= 1e-4 * initial_residual) status = SolverStatus::kConverged;
        break;
      }
    }
  }

  // Without an iteration x is still the starting point, whose residual is
  // known.
  const double residual = iterations == 0 ? starting_residual : gradient_mapping();
  solve_span.arg("iterations", static_cast<double>(iterations));
  solve_span.set_status(solver_status_name(status).data());
  return result_at(status, iterations, residual);
}

Schedule materialize_optimal_schedule(const TaskSet& tasks, const SubintervalDecomposition& subs,
                                      int cores, const SolverResult& result) {
  EASCHED_EXPECTS(result.execution_time.size() == tasks.size());
  Schedule schedule(cores);
  for (std::size_t j = 0; j < subs.size(); ++j) {
    std::vector<PackItem> items;
    // The CSR overlap row is ascending TaskId and carries every possibly
    // nonzero cell of column j — same items, same order as the dense sweep.
    for (const TaskId id : subs[j].overlapping) {
      const auto i = static_cast<std::size_t>(id);
      const double time = result.allocation(i, j);
      if (time <= 1e-12) continue;
      const double total = result.execution_time[i];
      EASCHED_ASSERT(total > 0.0);
      items.push_back({id, std::min(time, subs[j].length()), tasks[i].work / total});
    }
    if (!items.empty()) pack_subinterval(subs[j].begin, subs[j].end, cores, items, schedule);
  }
  schedule.coalesce();
  return schedule;
}

}  // namespace easched
