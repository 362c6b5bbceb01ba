// Deterministic fault injection: spec parsing, verdict determinism, kill
// points, scope install/restore, and the zero-cost idle path.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "easched/faults/fault_injection.hpp"
#include "easched/faults/fault_plan.hpp"
#include "easched/parallel/thread_pool.hpp"

namespace easched {
namespace {

TEST(FaultPlanTest, ParsesFullSpecAndRoundTrips) {
  const std::string spec =
      "seed=42;solver_stall:p=1;solver_nan:p=0.25;job_delay:p=0.1,us=200;"
      "job_fail:p=0.05;request_drop:p=0.01;request_dup:p=0.02;kill:journal.admit.post@3";
  const FaultPlan plan = FaultPlan::parse(spec);
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_DOUBLE_EQ(plan.solver_stall_p, 1.0);
  EXPECT_DOUBLE_EQ(plan.solver_nan_p, 0.25);
  EXPECT_DOUBLE_EQ(plan.job_delay_p, 0.1);
  EXPECT_EQ(plan.job_delay.count(), 200);
  EXPECT_DOUBLE_EQ(plan.job_fail_p, 0.05);
  EXPECT_DOUBLE_EQ(plan.request_drop_p, 0.01);
  EXPECT_DOUBLE_EQ(plan.request_dup_p, 0.02);
  ASSERT_EQ(plan.kills.size(), 1u);
  EXPECT_EQ(plan.kills[0].point, "journal.admit.post");
  EXPECT_EQ(plan.kills[0].at_visit, 3u);
  EXPECT_FALSE(plan.empty());

  // to_string parses back to the same plan.
  const FaultPlan reparsed = FaultPlan::parse(plan.to_string());
  EXPECT_EQ(reparsed.to_string(), plan.to_string());
}

TEST(FaultPlanTest, EmptyAndDefaultPlansAreEmpty) {
  EXPECT_TRUE(FaultPlan{}.empty());
  EXPECT_TRUE(FaultPlan::parse("seed=9").empty());
  EXPECT_FALSE(FaultPlan::parse("solver_stall:p=0.5").empty());
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("solver_stall:p=2"), std::runtime_error);
  EXPECT_THROW(FaultPlan::parse("solver_stall:p=-0.1"), std::runtime_error);
  EXPECT_THROW(FaultPlan::parse("bogus_site:p=0.5"), std::runtime_error);
  EXPECT_THROW(FaultPlan::parse("kill:"), std::runtime_error);
  EXPECT_THROW(FaultPlan::parse("kill:point@0"), std::runtime_error);
  EXPECT_THROW(FaultPlan::parse("job_delay:p=0.1,nonsense=1"), std::runtime_error);
}

TEST(FaultInjectionTest, VerdictSequenceIsDeterministicPerSeed) {
  const FaultPlan plan = FaultPlan::parse("seed=7;solver_stall:p=0.5");
  std::vector<bool> first;
  {
    FaultInjector injector(plan);
    for (int i = 0; i < 64; ++i) first.push_back(injector.fire(FaultSite::kSolverStall));
  }
  FaultInjector again(plan);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(again.fire(FaultSite::kSolverStall), first[static_cast<std::size_t>(i)]) << i;
  }
  // A fair probability fires some but not all occurrences.
  EXPECT_GT(again.fired(FaultSite::kSolverStall), 0u);
  EXPECT_LT(again.fired(FaultSite::kSolverStall), 64u);
  EXPECT_EQ(again.occurrences(FaultSite::kSolverStall), 64u);

  // A different seed draws a different sequence.
  FaultInjector other(FaultPlan::parse("seed=8;solver_stall:p=0.5"));
  std::vector<bool> other_verdicts;
  for (int i = 0; i < 64; ++i) other_verdicts.push_back(other.fire(FaultSite::kSolverStall));
  EXPECT_NE(other_verdicts, first);
}

TEST(FaultInjectionTest, ProbabilityEdgesShortCircuit) {
  FaultInjector always(FaultPlan::parse("solver_nan:p=1"));
  FaultInjector never(FaultPlan::parse("seed=3"));
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(always.fire(FaultSite::kSolverNan));
    EXPECT_FALSE(never.fire(FaultSite::kSolverNan));
  }
}

TEST(FaultInjectionTest, KillPointFiresExactlyAtArmedVisit) {
  FaultInjector injector(FaultPlan::parse("kill:journal.admit.post@3"));
  injector.kill_point("journal.admit.post");
  injector.kill_point("journal.admit.post");
  EXPECT_THROW(injector.kill_point("journal.admit.post"), InjectedCrash);
  // Later visits do not re-fire (one crash per armed spec).
  injector.kill_point("journal.admit.post");
  EXPECT_EQ(injector.kill_visits("journal.admit.post"), 4u);
  // Unarmed points never fire.
  injector.kill_point("journal.complete.pre");
  EXPECT_EQ(injector.kill_visits("journal.complete.pre"), 0u);
}

TEST(FaultInjectionTest, CrashCarriesThePointName) {
  FaultInjector injector(FaultPlan::parse("kill:somewhere@1"));
  try {
    injector.kill_point("somewhere");
    FAIL() << "expected InjectedCrash";
  } catch (const InjectedCrash& crash) {
    EXPECT_EQ(crash.point(), "somewhere");
  }
}

TEST(FaultInjectionTest, ScopeInstallsAndRestores) {
  EXPECT_EQ(faults::current(), nullptr);
  EXPECT_FALSE(faults::fire(FaultSite::kRequestDrop));  // idle hooks are no-ops
  {
    FaultInjector injector(FaultPlan::parse("request_drop:p=1"));
    faults::FaultScope scope(injector);
    EXPECT_EQ(faults::current(), &injector);
    EXPECT_TRUE(faults::fire(FaultSite::kRequestDrop));
  }
  EXPECT_EQ(faults::current(), nullptr);
  EXPECT_FALSE(faults::fire(FaultSite::kRequestDrop));
}

TEST(FaultInjectionTest, InjectedJobFailureFlowsIntoTheFutureAndSparesTheWorker) {
  ThreadPool pool(2);
  FaultInjector injector(FaultPlan::parse("job_fail:p=1"));
  {
    faults::FaultScope scope(injector);
    auto doomed = pool.submit([] { return 1; });
    EXPECT_THROW(doomed.get(), InjectedFault);  // thrown before the job body runs
  }
  // Workers survive injected failures and keep serving once the scope ends.
  auto healthy = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(healthy.get(), 42);
  EXPECT_EQ(injector.fired(FaultSite::kJobFail), 1u);
}

TEST(FaultInjectionTest, SiteNamesAreStable) {
  EXPECT_EQ(site_name(FaultSite::kSolverStall), "solver_stall");
  EXPECT_EQ(site_name(FaultSite::kSolverNan), "solver_nan");
  EXPECT_EQ(site_name(FaultSite::kJobDelay), "job_delay");
  EXPECT_EQ(site_name(FaultSite::kJobFail), "job_fail");
  EXPECT_EQ(site_name(FaultSite::kRequestDrop), "request_drop");
  EXPECT_EQ(site_name(FaultSite::kRequestDup), "request_dup");
}

}  // namespace
}  // namespace easched
