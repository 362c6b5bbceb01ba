// The fallback chain: serves validated plans, escalates deterministically on
// solver failure, and never returns an invalid or non-finite plan.

#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "easched/common/contracts.hpp"
#include "easched/common/rng.hpp"
#include "easched/faults/fault_injection.hpp"
#include "easched/parallel/exec.hpp"
#include "easched/sched/fallback.hpp"
#include "easched/sched/pipeline.hpp"
#include "easched/tasksys/workload.hpp"

namespace easched {
namespace {

TaskSet test_tasks(std::uint64_t seed = 5, std::size_t count = 10) {
  Rng rng(Rng::seed_of("fallback-test", seed));
  WorkloadConfig config;
  config.task_count = count;
  return generate_workload(config, rng);
}

TEST(FallbackTest, DefaultChainServesDerBitIdenticalToPipeline) {
  const TaskSet tasks = test_tasks();
  const PowerModel power(3.0, 0.1);

  const FallbackPlan plan = plan_with_fallback(tasks, 4, power);
  EXPECT_EQ(plan.outcome.served, PlanRung::kDer);
  EXPECT_FALSE(plan.outcome.degraded());
  ASSERT_EQ(plan.outcome.attempts.size(), 1u);
  EXPECT_TRUE(plan.outcome.attempts[0].served);

  // The F2 rung rides the existing pipeline unchanged: same energy, same
  // segments, bit for bit.
  const PipelineResult pipeline = run_pipeline(tasks, 4, power);
  EXPECT_EQ(plan.energy, pipeline.der.final_energy);
  EXPECT_EQ(plan.schedule.segments(), pipeline.der.final_schedule.segments());

  // Through a delta planner the F2 rung serves the same plan, bit for bit.
  DeltaPlanner planner(power, DeltaOptions{});
  const FallbackPlan spliced =
      plan_with_fallback(tasks, 4, power, FallbackOptions{}, Exec::serial(), &planner);
  EXPECT_EQ(spliced.outcome.served, PlanRung::kDer);
  EXPECT_EQ(spliced.energy, plan.energy);
  EXPECT_EQ(spliced.schedule.segments(), plan.schedule.segments());
  EXPECT_TRUE(planner.has_plan());
}

// The delta planner's plan faces the gate every rung's plan faces: one that
// fails it is recorded as invalid, the planner is invalidated (its next call
// rebuilds from scratch), and the chain goes on to F1.
TEST(FallbackTest, DeltaPlanFailingTheGateInvalidatesThePlannerAndEscalates) {
  const TaskSet tasks = test_tasks();
  const PowerModel power(3.0, 0.1);
  DeltaPlanner planner(power, DeltaOptions{});
  FallbackOptions options;
  options.validate_tol = -1.0;  // no schedule meets a negative tolerance

  const FallbackPlan plan =
      plan_with_fallback(tasks, 4, power, options, Exec::serial(), &planner);
  EXPECT_FALSE(planner.has_plan());
  ASSERT_EQ(plan.outcome.attempts.size(), 2u);
  EXPECT_EQ(plan.outcome.attempts[0].rung, PlanRung::kDer);
  EXPECT_EQ(plan.outcome.attempts[0].failure, RungFailure::kInvalidPlan);
  EXPECT_EQ(plan.outcome.attempts[1].rung, PlanRung::kEven);
  EXPECT_TRUE(plan.outcome.rejected());
}

TEST(FallbackTest, ExactRungServesWhenSolverConverges) {
  const TaskSet tasks = test_tasks(9, 8);
  const PowerModel power(3.0, 0.05);
  FallbackOptions options;
  options.try_exact = true;

  const FallbackPlan plan = plan_with_fallback(tasks, 4, power, options);
  EXPECT_EQ(plan.outcome.served, PlanRung::kExact);
  EXPECT_FALSE(plan.outcome.degraded());
  ASSERT_EQ(plan.outcome.attempts.size(), 1u);
  EXPECT_EQ(plan.outcome.attempts[0].rung, PlanRung::kExact);

  // And the exact plan is at least as good as F2 (it is the optimum).
  const FallbackPlan der = plan_with_fallback(tasks, 4, power);
  EXPECT_LE(plan.energy, der.energy + 1e-6 * der.energy);
  EXPECT_TRUE(plan.schedule.validate(tasks, 1e-5, 1e-5).ok);
}

TEST(FallbackTest, InjectedStallFallsBackToDer) {
  const TaskSet tasks = test_tasks();
  const PowerModel power(3.0, 0.1);
  FallbackOptions options;
  options.try_exact = true;

  FaultInjector injector(FaultPlan::parse("seed=1;solver_stall:p=1"));
  faults::FaultScope scope(injector);
  const FallbackPlan plan = plan_with_fallback(tasks, 4, power, options);

  EXPECT_EQ(plan.outcome.served, PlanRung::kDer);
  EXPECT_TRUE(plan.outcome.degraded());
  ASSERT_EQ(plan.outcome.attempts.size(), 2u);
  EXPECT_EQ(plan.outcome.attempts[0].rung, PlanRung::kExact);
  EXPECT_EQ(plan.outcome.attempts[0].failure, RungFailure::kStallInjected);
  EXPECT_TRUE(plan.outcome.attempts[1].served);
  EXPECT_TRUE(plan.schedule.validate(tasks, 1e-5, 1e-5).ok);

  // The served fallback matches the clean F2 plan exactly.
  const PipelineResult pipeline = run_pipeline(tasks, 4, power);
  EXPECT_EQ(plan.energy, pipeline.der.final_energy);
  EXPECT_EQ(plan.schedule.segments(), pipeline.der.final_schedule.segments());
}

TEST(FallbackTest, InjectedNanFallsBackViaNumericalBreakdown) {
  const TaskSet tasks = test_tasks();
  const PowerModel power(3.0, 0.1);
  FallbackOptions options;
  options.try_exact = true;

  FaultInjector injector(FaultPlan::parse("seed=1;solver_nan:p=1"));
  faults::FaultScope scope(injector);
  const FallbackPlan plan = plan_with_fallback(tasks, 4, power, options);

  EXPECT_EQ(plan.outcome.served, PlanRung::kDer);
  ASSERT_GE(plan.outcome.attempts.size(), 2u);
  EXPECT_EQ(plan.outcome.attempts[0].failure, RungFailure::kNumericalBreakdown);
  EXPECT_TRUE(plan.schedule.validate(tasks, 1e-5, 1e-5).ok);
}

TEST(FallbackTest, ExpiredBudgetFallsBackViaTimeout) {
  const TaskSet tasks = test_tasks();
  const PowerModel power(3.0, 0.1);
  FallbackOptions options;
  options.try_exact = true;
  options.budget = PlanBudget::within(std::chrono::microseconds(0));

  const FallbackPlan plan = plan_with_fallback(tasks, 4, power, options);
  EXPECT_EQ(plan.outcome.served, PlanRung::kDer);
  ASSERT_GE(plan.outcome.attempts.size(), 2u);
  EXPECT_EQ(plan.outcome.attempts[0].failure, RungFailure::kTimeout);
}

TEST(FallbackTest, IterationCapFallsBackStructurally) {
  const TaskSet tasks = test_tasks(3, 14);
  const PowerModel power(3.0, 0.1);
  FallbackOptions options;
  options.try_exact = true;
  options.exact.max_iterations = 1;  // far too few to converge

  const FallbackPlan plan = plan_with_fallback(tasks, 4, power, options);
  EXPECT_EQ(plan.outcome.served, PlanRung::kDer);
  ASSERT_GE(plan.outcome.attempts.size(), 2u);
  EXPECT_EQ(plan.outcome.attempts[0].failure, RungFailure::kIterationCap);
}

TEST(FallbackTest, ReasonAggregatesFailedRungs) {
  const TaskSet tasks = test_tasks();
  const PowerModel power(3.0, 0.1);
  FallbackOptions options;
  options.try_exact = true;

  FaultInjector injector(FaultPlan::parse("solver_stall:p=1"));
  faults::FaultScope scope(injector);
  const FallbackPlan plan = plan_with_fallback(tasks, 4, power, options);

  const std::string reason = plan.outcome.reason();
  EXPECT_NE(reason.find("exact"), std::string::npos) << reason;
  EXPECT_NE(reason.find("stall_injected"), std::string::npos) << reason;
  // The serving rung does not appear in the reason.
  EXPECT_EQ(reason.find("der:"), std::string::npos) << reason;
}

TEST(FallbackTest, NonFinitePlansAreRejectedWithReasons) {
  // Astronomically large work overflows every rung's energy to infinity; the
  // chain must reject rather than serve a non-finite plan.
  const TaskSet tasks({{0.0, 1.0, 1e200}});
  const PowerModel power(3.0, 0.1);

  const FallbackPlan plan = plan_with_fallback(tasks, 2, power);
  EXPECT_TRUE(plan.outcome.rejected());
  EXPECT_EQ(plan.outcome.served, PlanRung::kNone);
  for (const RungAttempt& attempt : plan.outcome.attempts) {
    EXPECT_FALSE(attempt.served);
    EXPECT_NE(attempt.failure, RungFailure::kNone);
  }
  EXPECT_NE(plan.outcome.reason(), "no rungs attempted");
}

TEST(FallbackTest, ContractViolationsStillThrow) {
  const PowerModel power(3.0, 0.1);
  EXPECT_THROW(plan_with_fallback(TaskSet{}, 4, power), ContractViolation);
  EXPECT_THROW(plan_with_fallback(test_tasks(), 0, power), ContractViolation);
}

TEST(FallbackTest, RungAndFailureNamesAreStable) {
  EXPECT_EQ(plan_rung_name(PlanRung::kExact), "exact");
  EXPECT_EQ(plan_rung_name(PlanRung::kDer), "der");
  EXPECT_EQ(plan_rung_name(PlanRung::kEven), "even");
  EXPECT_EQ(plan_rung_name(PlanRung::kNone), "none");
  EXPECT_EQ(rung_failure_name(RungFailure::kTimeout), "timeout");
  EXPECT_EQ(rung_failure_name(RungFailure::kStallInjected), "stall_injected");
  EXPECT_EQ(rung_failure_name(RungFailure::kNonFiniteEnergy), "non_finite_energy");
}

}  // namespace
}  // namespace easched
