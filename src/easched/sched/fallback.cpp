#include "easched/sched/fallback.hpp"

#include <cmath>
#include <exception>
#include <optional>
#include <string>
#include <utility>

#include "easched/common/contracts.hpp"
#include "easched/obs/trace.hpp"
#include "easched/parallel/exec.hpp"
#include "easched/sched/ideal.hpp"
#include "easched/sched/pipeline.hpp"
#include "easched/tasksys/subintervals.hpp"

namespace easched {

std::string_view plan_rung_name(PlanRung rung) {
  switch (rung) {
    case PlanRung::kExact:
      return "exact";
    case PlanRung::kDer:
      return "der";
    case PlanRung::kEven:
      return "even";
    case PlanRung::kNone:
      return "none";
  }
  return "unknown";
}

std::string_view rung_failure_name(RungFailure failure) {
  switch (failure) {
    case RungFailure::kNone:
      return "none";
    case RungFailure::kTimeout:
      return "timeout";
    case RungFailure::kIterationCap:
      return "iteration_cap";
    case RungFailure::kNumericalBreakdown:
      return "numerical_breakdown";
    case RungFailure::kStallInjected:
      return "stall_injected";
    case RungFailure::kInvalidPlan:
      return "invalid_plan";
    case RungFailure::kNonFiniteEnergy:
      return "non_finite_energy";
    case RungFailure::kException:
      return "exception";
  }
  return "unknown";
}

bool FallbackOutcome::degraded() const {
  if (rejected() || attempts.empty()) return false;
  return served != attempts.front().rung;
}

std::string FallbackOutcome::reason() const {
  std::string out;
  for (const RungAttempt& a : attempts) {
    if (a.served) continue;
    if (!out.empty()) out += "; ";
    out += plan_rung_name(a.rung);
    out += ": ";
    out += rung_failure_name(a.failure);
    if (!a.detail.empty()) {
      out += " (";
      out += a.detail;
      out += ")";
    }
  }
  if (out.empty()) out = "no rungs attempted";
  return out;
}

namespace {

/// Map a non-converged solver ending onto the rung-failure taxonomy.
RungFailure failure_of_status(SolverStatus status) {
  switch (status) {
    case SolverStatus::kConverged:
      return RungFailure::kNone;
    case SolverStatus::kIterationCap:
      return RungFailure::kIterationCap;
    case SolverStatus::kBudgetExhausted:
      return RungFailure::kTimeout;
    case SolverStatus::kNumericalBreakdown:
      return RungFailure::kNumericalBreakdown;
    case SolverStatus::kStallInjected:
      return RungFailure::kStallInjected;
  }
  return RungFailure::kException;
}

/// Validate + finite-energy gate shared by every rung. On success fills
/// `plan` and flips the attempt to served; otherwise records why not.
bool try_serve(const TaskSet& tasks, Schedule schedule, double energy, double validate_tol,
               RungAttempt& attempt, FallbackPlan& plan) {
  if (!std::isfinite(energy)) {
    attempt.failure = RungFailure::kNonFiniteEnergy;
    attempt.detail = "energy is not finite";
    return false;
  }
  const ValidationReport report = schedule.validate(tasks, validate_tol, validate_tol);
  if (!report.ok) {
    attempt.failure = RungFailure::kInvalidPlan;
    attempt.detail = report.violations.empty() ? std::string("validator failed")
                                               : report.violations.front();
    return false;
  }
  attempt.served = true;
  attempt.failure = RungFailure::kNone;
  plan.schedule = std::move(schedule);
  plan.energy = energy;
  plan.outcome.served = attempt.rung;
  return true;
}

/// The exact rung: budget-capped convex solve, then Algorithm-1
/// materialization of the optimal allocation.
bool attempt_exact(const TaskSet& tasks, const SubintervalDecomposition& subs, int cores,
                   const PowerModel& power, const FallbackOptions& options, RungAttempt& attempt,
                   FallbackPlan& plan) {
  attempt.rung = PlanRung::kExact;
  try {
    SolverOptions solver_options = options.exact;
    solver_options.budget = options.budget;
    const SolverResult solved = solve_optimal_allocation(tasks, subs, cores, power, solver_options);
    if (!solved.converged) {
      attempt.failure = failure_of_status(solved.status);
      attempt.detail = std::string("solver status: ") + std::string(solver_status_name(solved.status));
      return false;
    }
    if (solved.warm_started) attempt.detail = "warm_started";
    Schedule schedule = materialize_optimal_schedule(tasks, subs, cores, solved);
    return try_serve(tasks, std::move(schedule), solved.energy, options.validate_tol, attempt, plan);
  } catch (const std::exception& e) {
    attempt.failure = RungFailure::kException;
    attempt.detail = e.what();
    return false;
  }
}

/// A heuristic rung (F2/DER or F1/even): the pipeline's final plan alone.
bool attempt_heuristic(const TaskSet& tasks, const SubintervalDecomposition& subs, int cores,
                       const PowerModel& power, const IdealCase& ideal, AllocationMethod method,
                       const FallbackOptions& options, const Exec& exec, RungAttempt& attempt,
                       FallbackPlan& plan) {
  attempt.rung = method == AllocationMethod::kDer ? PlanRung::kDer : PlanRung::kEven;
  try {
    FinalPlan result = plan_final(tasks, subs, cores, power, ideal, method, exec);
    return try_serve(tasks, std::move(result.schedule), result.refinement.energy,
                     options.validate_tol, attempt, plan);
  } catch (const std::exception& e) {
    attempt.failure = RungFailure::kException;
    attempt.detail = e.what();
    return false;
  }
}

/// Trace status for a finished rung attempt: "served" or the failure name
/// (both static storage, as SpanRecord requires).
const char* attempt_status(const RungAttempt& attempt) {
  return attempt.served ? "served" : rung_failure_name(attempt.failure).data();
}

/// Span name for a rung (static storage).
const char* rung_span_name(PlanRung rung) {
  switch (rung) {
    case PlanRung::kExact:
      return "rung.exact";
    case PlanRung::kDer:
      return "rung.der";
    case PlanRung::kEven:
      return "rung.even";
    case PlanRung::kNone:
      break;
  }
  return "rung.none";
}

}  // namespace

FallbackPlan plan_with_fallback(const TaskSet& tasks, int cores, const PowerModel& power,
                                const FallbackOptions& options) {
  return plan_with_fallback(tasks, cores, power, options, Exec::serial());
}

FallbackPlan plan_with_fallback(const TaskSet& tasks, int cores, const PowerModel& power,
                                const FallbackOptions& options, const Exec& exec) {
  EASCHED_EXPECTS(!tasks.empty());
  EASCHED_EXPECTS(cores > 0);

  obs::Span chain_span("fallback.plan");
  chain_span.arg("tasks", static_cast<double>(tasks.size()));

  FallbackPlan plan;
  auto& attempts = plan.outcome.attempts;

  // Shared geometry for every rung. If even this fails the request is
  // structurally broken — record it once and reject.
  std::optional<SubintervalDecomposition> subs;
  try {
    subs.emplace(tasks, 1e-12, exec);
  } catch (const std::exception& e) {
    RungAttempt& attempt = attempts.emplace_back();
    attempt.rung = options.try_exact ? PlanRung::kExact : PlanRung::kDer;
    attempt.failure = RungFailure::kException;
    attempt.detail = std::string("decomposition failed: ") + e.what();
    return plan;
  }

  if (options.try_exact) {
    obs::Span rung_span("rung.exact");
    RungAttempt& attempt = attempts.emplace_back();
    const bool served = attempt_exact(tasks, *subs, cores, power, options, attempt, plan);
    rung_span.set_status(attempt_status(attempt));
    if (served) return plan;
  }

  // The heuristic rungs share the ideal case. A failure here fails both
  // rungs at once (they cannot run without it).
  std::optional<IdealCase> ideal;
  try {
    ideal.emplace(tasks, power);
  } catch (const std::exception& e) {
    RungAttempt& attempt = attempts.emplace_back();
    attempt.rung = PlanRung::kDer;
    attempt.failure = RungFailure::kException;
    attempt.detail = std::string("ideal case failed: ") + e.what();
    return plan;
  }

  for (const AllocationMethod method : {AllocationMethod::kDer, AllocationMethod::kEven}) {
    if (method == AllocationMethod::kDer && options.first_heuristic == PlanRung::kEven) {
      continue;  // brownout ladder entered the chain below F2
    }
    obs::Span rung_span(
        rung_span_name(method == AllocationMethod::kDer ? PlanRung::kDer : PlanRung::kEven));
    RungAttempt& attempt = attempts.emplace_back();
    const bool served = attempt_heuristic(tasks, *subs, cores, power, *ideal, method, options,
                                          exec, attempt, plan);
    rung_span.set_status(attempt_status(attempt));
    if (served) return plan;
  }
  return plan;  // all rungs recorded their failures; outcome stays rejected
}

}  // namespace easched
