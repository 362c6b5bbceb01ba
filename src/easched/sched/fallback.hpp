#pragma once

/// \file fallback.hpp
/// \brief Deadline-budgeted planning with a deterministic fallback chain.
///
/// The paper's own argument — the subinterval heuristics are lightweight
/// *alternatives* to the exact convex program — becomes a runtime
/// degradation policy here. One planning request walks a fixed chain of
/// rungs, cheapest-rescue last:
///
///     exact (budgeted FISTA)  →  F2 (DER)  →  F1 (even)  →  reject
///
/// Each rung's schedule must pass `Schedule::validate` (and carry finite
/// energy) before it is served; a rung that times out, hits its iteration
/// cap, breaks down numerically, throws, or produces an invalid plan is
/// *recorded* and the chain escalates. An invalid plan is never returned —
/// the chain either serves a validated schedule or rejects with the
/// accumulated reasons. The walk is deterministic: rung order is fixed, and
/// every failure is a structured `RungFailure`, so a seeded fault plan
/// reproduces the same `FallbackOutcome` on every run and at any thread-pool
/// size (the kernels under each rung keep the `Exec` determinism contract).
///
/// The exact rung is optional (`FallbackOptions::try_exact`): the service
/// keeps F2 as its top rung by default — same plans as before this layer
/// existed — and turns the exact rung on when a caller asks for optimal
/// plans with a latency budget.
///
/// The F2 rung plans from scratch, or through a caller's `DeltaPlanner`
/// (`sched/incremental.hpp`), whose plans are bit-identical to the
/// from-scratch ones: a long-lived caller (a service shard) passes its
/// planner so that every F2 plan — whichever rung was tried first — splices
/// the previous plan instead of rebuilding it. The planner's plan faces the
/// same gate as any rung's.

#include <string>
#include <string_view>
#include <vector>

#include "easched/power/power_model.hpp"
#include "easched/sched/incremental.hpp"
#include "easched/sched/schedule.hpp"
#include "easched/solver/convex_solver.hpp"
#include "easched/solver/plan_budget.hpp"
#include "easched/tasksys/task_set.hpp"

namespace easched {

struct Exec;

/// The rungs of the chain, in escalation order.
enum class PlanRung {
  kExact,  ///< budgeted convex solve (E^OPT)
  kDer,    ///< F2: DER-proportional allocation
  kEven,   ///< F1: even allocation
  kNone,   ///< nothing served (rejected)
};

/// Stable display name ("exact", "der", "even", "none").
std::string_view plan_rung_name(PlanRung rung);

/// Why a rung did not serve the request.
enum class RungFailure {
  kNone,                ///< the rung served
  kTimeout,             ///< budget wall clock expired mid-solve
  kIterationCap,        ///< solver exhausted iterations without converging
  kNumericalBreakdown,  ///< NaN/Inf iterate, failed factorization
  kStallInjected,       ///< fault injection forced a stall
  kInvalidPlan,         ///< produced schedule failed the validator
  kNonFiniteEnergy,     ///< energy was NaN/Inf (never serve it)
  kException,           ///< the rung threw (fault-injected job failure, ...)
};

/// Stable display name ("timeout", "invalid_plan", ...).
std::string_view rung_failure_name(RungFailure failure);

/// One rung's audit record.
struct RungAttempt {
  PlanRung rung = PlanRung::kNone;
  bool served = false;
  RungFailure failure = RungFailure::kNone;
  /// Human-readable detail (solver status, first validator violation, ...).
  std::string detail;
};

/// Which rung served (if any) and the full per-rung audit trail.
struct FallbackOutcome {
  PlanRung served = PlanRung::kNone;
  std::vector<RungAttempt> attempts;

  bool rejected() const { return served == PlanRung::kNone; }
  /// True when a rung below the chain's top one served.
  bool degraded() const;
  /// Aggregated reason string, e.g. "exact: timeout; der: invalid_plan".
  std::string reason() const;
};

/// Chain configuration.
struct FallbackOptions {
  /// Attempt the exact convex solve as the top rung. Off by default: the
  /// heuristic chain (F2 → F1) matches the pre-fallback planning output
  /// exactly when nothing fails.
  bool try_exact = false;
  /// Budget for the whole request. Only the exact rung consumes it
  /// cooperatively; the heuristic rungs are the cheap rescue and always run
  /// to completion (that is the point of falling back).
  PlanBudget budget{};
  /// Knobs for the exact rung (its `budget` field is overwritten with the
  /// chain's remaining budget).
  SolverOptions exact{};
  /// Entry point into the heuristic sub-chain (the brownout ladder's knob):
  /// `kDer` (default) runs F2 → F1; `kEven` skips straight to the cheapest
  /// rung. Values other than those two are treated as the default.
  PlanRung first_heuristic = PlanRung::kDer;
  /// Validator tolerance applied to every candidate schedule.
  double validate_tol = 1e-5;
};

/// What the chain served.
struct FallbackPlan {
  Schedule schedule;
  double energy = 0.0;
  FallbackOutcome outcome;
  /// What the delta planner did on the F2 rung (left default when no
  /// planner ran).
  DeltaOutcome delta;
};

/// Walk the chain for `tasks` on `cores`. Never throws for rung-level
/// failures (they land in the outcome); contract violations on caller
/// inputs (`tasks` empty, `cores <= 0`) still throw.
FallbackPlan plan_with_fallback(const TaskSet& tasks, int cores, const PowerModel& power,
                                const FallbackOptions& options = {});

/// Parallel overload: kernels under each rung fan out over `exec`;
/// bit-identical to the serial overload at any pool size. With `delta`
/// (built for the same `cores` and `power`), the F2 rung is that planner's
/// `plan_to`; a plan that fails the gate, or a throw, invalidates the
/// planner and the chain escalates to F1. An `InjectedCrash` out of the
/// planner propagates (after invalidating it) instead of being recorded.
FallbackPlan plan_with_fallback(const TaskSet& tasks, int cores, const PowerModel& power,
                                const FallbackOptions& options, const Exec& exec,
                                DeltaPlanner* delta = nullptr);

}  // namespace easched
