// The convex solver must reproduce closed-form optima (paper Section II),
// satisfy KKT stationarity, and lower-bound every heuristic scheduler.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <string_view>

#include "easched/common/rng.hpp"
#include "easched/faults/fault_injection.hpp"
#include "easched/obs/trace.hpp"
#include "easched/sched/pipeline.hpp"
#include "easched/sim/executor.hpp"
#include "easched/solver/convex_solver.hpp"
#include "easched/tasksys/workload.hpp"

namespace easched {
namespace {

TEST(ConvexSolverTest, MotivationalExampleMatchesKktSolution) {
  // Section II: tasks (R, D, C) = (0,12,4), (2,10,2), (4,8,4) on two cores,
  // p(f) = f^3 + 0.01. Optimal totals: T1 = 8 + 8/3, T2 = 4 + 4/3, T3 = 4;
  // energy = 64/(32/3)^2 + 8/(16/3)^2 + 64/16 + 0.01*(32/3 + 16/3 + 4).
  const TaskSet tasks({{0.0, 12.0, 4.0}, {2.0, 10.0, 2.0}, {4.0, 8.0, 4.0}});
  const PowerModel power(3.0, 0.01);
  const double expected_energy = 155.0 / 32.0 + 0.01 * 20.0;

  const SolverResult result = solve_optimal_allocation(tasks, 2, power);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.energy, expected_energy, 1e-5 * expected_energy);
  EXPECT_NEAR(result.execution_time[0], 32.0 / 3.0, 1e-3);
  EXPECT_NEAR(result.execution_time[1], 16.0 / 3.0, 1e-3);
  EXPECT_NEAR(result.execution_time[2], 4.0, 1e-3);
}

TEST(ConvexSolverTest, KktResidualIsSmallAtConvergence) {
  const TaskSet tasks({{0.0, 12.0, 4.0}, {2.0, 10.0, 2.0}, {4.0, 8.0, 4.0}});
  const PowerModel power(3.0, 0.01);
  const SolverResult result = solve_optimal_allocation(tasks, 2, power);
  EXPECT_LT(result.kkt_residual, 1e-5);
}

TEST(ConvexSolverTest, SingleTaskMatchesClosedForm) {
  // One task alone: the optimum is the ideal frequency of equation (19).
  const TaskSet tasks({{0.0, 10.0, 4.0}});
  for (const double p0 : {0.0, 0.05, 0.5, 2.0}) {
    const PowerModel power(3.0, p0);
    const double f = power.optimal_frequency(4.0, 10.0);
    const double expected = power.energy_for_work(4.0, f);
    const SolverResult result = solve_optimal_allocation(tasks, 1, power);
    EXPECT_NEAR(result.energy, expected, 1e-6 * expected) << "p0=" << p0;
  }
}

TEST(ConvexSolverTest, HighStaticPowerShortensExecution) {
  // With large p0 the optimum runs at the critical frequency and does not
  // stretch over the whole window (paper Fig 3's effect).
  const TaskSet tasks({{0.0, 5.0, 2.0}});
  const PowerModel power(2.0, 0.25);  // f* = sqrt(0.25/1) = 0.5
  const SolverResult result = solve_optimal_allocation(tasks, 1, power);
  EXPECT_NEAR(result.execution_time[0], 4.0, 1e-3);  // 2.0 / 0.5, not 5.0
  EXPECT_NEAR(result.energy, 2.0, 1e-5);             // paper: 2.00 < 2.05
}

TEST(ConvexSolverTest, OptimumLowerBoundsHeuristicsOnRandomInstances) {
  const PowerModel power(3.0, 0.1);
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(Rng::seed_of("solver-vs-heuristics", seed));
    WorkloadConfig config;
    config.task_count = 12;
    const TaskSet tasks = generate_workload(config, rng);
    const SolverResult opt = solve_optimal_allocation(tasks, 4, power);
    const PipelineResult pipeline = run_pipeline(tasks, 4, power);
    const double slack = 1e-6 * opt.energy;
    EXPECT_LE(opt.energy, pipeline.even.final_energy + slack) << "seed " << seed;
    EXPECT_LE(opt.energy, pipeline.der.final_energy + slack) << "seed " << seed;
    EXPECT_LE(opt.energy, pipeline.even.intermediate_energy + slack) << "seed " << seed;
    EXPECT_LE(opt.energy, pipeline.der.intermediate_energy + slack) << "seed " << seed;
  }
}

TEST(ConvexSolverTest, MaterializedOptimalScheduleIsValidAndMatchesEnergy) {
  const PowerModel power(3.0, 0.05);
  Rng rng(Rng::seed_of("solver-materialize", 7));
  WorkloadConfig config;
  config.task_count = 10;
  const TaskSet tasks = generate_workload(config, rng);
  const SubintervalDecomposition subs(tasks);
  const SolverResult opt = solve_optimal_allocation(tasks, subs, 4, power);

  const Schedule schedule = materialize_optimal_schedule(tasks, subs, 4, opt);
  const ValidationReport report = schedule.validate(tasks, 1e-5);
  EXPECT_TRUE(report.ok) << (report.violations.empty() ? "" : report.violations.front());
  EXPECT_NEAR(schedule.energy(power), opt.energy, 1e-4 * opt.energy);

  const ExecutionReport run = execute_schedule(tasks, schedule, power_function(power), 1e-5);
  EXPECT_TRUE(run.anomalies.empty()) << (run.anomalies.empty() ? "" : run.anomalies.front());
  EXPECT_TRUE(run.all_deadlines_met());
}

TEST(ConvexSolverTest, RespectsSubintervalCapacity) {
  const PowerModel power(2.5, 0.0);
  Rng rng(Rng::seed_of("solver-capacity", 3));
  WorkloadConfig config;
  config.task_count = 15;
  const TaskSet tasks = generate_workload(config, rng);
  const SubintervalDecomposition subs(tasks);
  const int cores = 2;
  const SolverResult opt = solve_optimal_allocation(tasks, subs, cores, power);
  for (std::size_t j = 0; j < subs.size(); ++j) {
    EXPECT_LE(opt.allocation.column_sum(j), cores * subs[j].length() + 1e-7);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      EXPECT_LE(opt.allocation(i, j), subs[j].length() + 1e-9);
      EXPECT_GE(opt.allocation(i, j), 0.0);
    }
  }
}

TEST(ConvexSolverTest, MoreCoresNeverIncreaseOptimalEnergy) {
  const PowerModel power(3.0, 0.1);
  Rng rng(Rng::seed_of("solver-cores-monotone", 11));
  WorkloadConfig config;
  config.task_count = 14;
  const TaskSet tasks = generate_workload(config, rng);
  double previous = 0.0;
  for (int cores = 1; cores <= 6; ++cores) {
    const double energy = solve_optimal_allocation(tasks, cores, power).energy;
    if (cores > 1) {
      EXPECT_LE(energy, previous + 1e-6 * previous) << "cores=" << cores;
    }
    previous = energy;
  }
}

TEST(ConvexSolverTest, ConvergedRunsCarryStructuredStatus) {
  const TaskSet tasks({{0.0, 12.0, 4.0}, {2.0, 10.0, 2.0}, {4.0, 8.0, 4.0}});
  const PowerModel power(3.0, 0.01);
  const SolverResult result = solve_optimal_allocation(tasks, 2, power);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.status, SolverStatus::kConverged);
  EXPECT_EQ(solver_status_name(result.status), "converged");
}

TEST(ConvexSolverTest, ExpiredBudgetReportsBudgetExhaustedWithUsableIterate) {
  Rng rng(Rng::seed_of("solver-budget", 2));
  WorkloadConfig config;
  config.task_count = 12;
  const TaskSet tasks = generate_workload(config, rng);
  const PowerModel power(3.0, 0.1);
  SolverOptions options;
  options.budget = PlanBudget::within(std::chrono::microseconds(0));
  const SolverResult result = solve_optimal_allocation(tasks, 4, power, options);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.status, SolverStatus::kBudgetExhausted);
  // Best-so-far iterate, not garbage: a finite energy over a feasible point.
  EXPECT_TRUE(std::isfinite(result.energy));
  EXPECT_EQ(result.execution_time.size(), tasks.size());
}

TEST(ConvexSolverTest, IterationBudgetReportsBudgetExhausted) {
  Rng rng(Rng::seed_of("solver-iteration-budget", 2));
  WorkloadConfig config;
  config.task_count = 12;
  const TaskSet tasks = generate_workload(config, rng);
  const PowerModel power(3.0, 0.1);
  SolverOptions options;
  options.budget.max_solver_iterations = 1;
  const SolverResult result = solve_optimal_allocation(tasks, 4, power, options);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.status, SolverStatus::kBudgetExhausted);
  EXPECT_LE(result.iterations, 1u);
}

TEST(ConvexSolverTest, IterationCapReportsStructuredStatus) {
  Rng rng(Rng::seed_of("solver-itercap", 2));
  WorkloadConfig config;
  config.task_count = 12;
  const TaskSet tasks = generate_workload(config, rng);
  const PowerModel power(3.0, 0.1);
  SolverOptions options;
  options.max_iterations = 1;
  const SolverResult result = solve_optimal_allocation(tasks, 4, power, options);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.status, SolverStatus::kIterationCap);
}

TEST(ConvexSolverTest, InjectedFaultsSurfaceAsStatuses) {
  const TaskSet tasks({{0.0, 12.0, 4.0}, {2.0, 10.0, 2.0}});
  const PowerModel power(3.0, 0.01);
  {
    FaultInjector injector(FaultPlan::parse("solver_stall:p=1"));
    faults::FaultScope scope(injector);
    const SolverResult result = solve_optimal_allocation(tasks, 2, power);
    EXPECT_FALSE(result.converged);
    EXPECT_EQ(result.status, SolverStatus::kStallInjected);
  }
  {
    FaultInjector injector(FaultPlan::parse("solver_nan:p=1"));
    faults::FaultScope scope(injector);
    const SolverResult result = solve_optimal_allocation(tasks, 2, power);
    EXPECT_FALSE(result.converged);
    EXPECT_EQ(result.status, SolverStatus::kNumericalBreakdown);
  }
}

// A stalled solve and one whose budget is spent at entry stop before the
// solver's setup: no `solver.fista` span (it opens once setup starts), no
// iteration, and the starting point comes back as the usable iterate.
TEST(ConvexSolverTest, StallAndSpentBudgetEndBeforeSetup) {
  Rng rng(Rng::seed_of("solver-entry-exit", 2));
  WorkloadConfig config;
  config.task_count = 12;
  const TaskSet tasks = generate_workload(config, rng);
  const PowerModel power(3.0, 0.1);
  const auto fista_spans = [](const obs::Tracer& tracer) {
    std::size_t count = 0;
    for (const obs::SpanRecord& record : tracer.records()) {
      if (std::string_view(record.name) == "solver.fista") ++count;
    }
    return count;
  };

  SolverOptions spent_options;
  spent_options.budget = PlanBudget::within(std::chrono::microseconds(0));
  obs::Tracer tracer;
  SolverResult stalled;
  SolverResult spent;
  {
    const obs::TraceScope scope(tracer);
    {
      FaultInjector injector(FaultPlan::parse("solver_stall:p=1"));
      faults::FaultScope faults(injector);
      stalled = solve_optimal_allocation(tasks, 4, power);
    }
    spent = solve_optimal_allocation(tasks, 4, power, spent_options);
  }
  EXPECT_EQ(fista_spans(tracer), 0u);
  EXPECT_EQ(stalled.status, SolverStatus::kStallInjected);
  EXPECT_EQ(spent.status, SolverStatus::kBudgetExhausted);
  for (const SolverResult* result : {&stalled, &spent}) {
    EXPECT_FALSE(result->converged);
    EXPECT_EQ(result->iterations, 0u);
    EXPECT_EQ(result->execution_time.size(), tasks.size());
    EXPECT_TRUE(std::isfinite(result->energy));
  }
  // Both return the same starting point.
  EXPECT_EQ(stalled.energy, spent.energy);
  EXPECT_EQ(stalled.execution_time, spent.execution_time);

  // Control: a solve with budget to spare records its span.
  obs::Tracer control;
  {
    const obs::TraceScope scope(control);
    EXPECT_TRUE(solve_optimal_allocation(tasks, 4, power).converged);
  }
  EXPECT_EQ(fista_spans(control), 1u);
}

}  // namespace
}  // namespace easched
