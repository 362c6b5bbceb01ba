// Service-level contract of the delta planner as the fallback chain's F2
// rung: plans and quotes are identical to a from-scratch fallback-chain plan
// of the same set, cache signatures follow the *post-delta* set (the admit →
// remove → re-quote poisoning scenario), the `plan_delta_*` metrics account
// for every cache miss, and F2 plans splice whichever rung was tried first.

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "easched/faults/fault_injection.hpp"
#include "easched/parallel/exec.hpp"
#include "easched/power/power_model.hpp"
#include "easched/sched/fallback.hpp"
#include "easched/service/service.hpp"

namespace easched {
namespace {

constexpr int kCores = 2;

ServiceOptions service_options() {
  ServiceOptions options;
  options.cores = kCores;
  return options;
}

void expect_same_segments(const Schedule& got, const Schedule& want) {
  ASSERT_EQ(got.segments().size(), want.segments().size());
  for (std::size_t s = 0; s < want.segments().size(); ++s) {
    ASSERT_EQ(got.segments()[s], want.segments()[s]) << "segment " << s;
  }
}

// Regression: a departure must invalidate the plan the delta path caches.
// admit A, admit B, complete A, re-read — the served plan must be the plan
// of {B} alone, byte-identical to a service that only ever saw B. A stale
// signature → plan binding would serve the pre-departure plan here.
TEST(ServiceDelta, DepartureInvalidatesCachedDeltaPlan) {
  const PowerModel power(3.0, 0.05);
  const Task task_a{0.0, 10.0, 4.0};
  const Task task_b{2.0, 12.0, 3.0};

  SchedulerService service(power, service_options());
  const ServiceDecision a = service.submit(task_a);
  ASSERT_TRUE(a.admission.admitted);
  const ServiceDecision b = service.submit(task_b);
  ASSERT_TRUE(b.admission.admitted);
  const double energy_both = service.current_energy();

  ASSERT_TRUE(service.complete(a.id));
  const double energy_after = service.current_energy();
  const Schedule plan_after = service.current_plan();
  ASSERT_NE(energy_after, energy_both);

  SchedulerService fresh(power, service_options());
  ASSERT_TRUE(fresh.submit(task_b).admission.admitted);
  ASSERT_EQ(energy_after, fresh.current_energy());
  expect_same_segments(plan_after, fresh.current_plan());

  // And the next quote prices against the post-departure set.
  const Task task_c{1.0, 9.0, 2.0};
  const AdmissionDecision quote = service.quote(task_c);
  const AdmissionDecision fresh_quote = fresh.quote(task_c);
  ASSERT_EQ(quote.admitted, fresh_quote.admitted);
  ASSERT_EQ(quote.energy_after, fresh_quote.energy_after);
  ASSERT_EQ(quote.marginal_energy, fresh_quote.marginal_energy);
}

// The delta planner changes latency, never answers: at every step of an
// admit / complete sequence, the service's decisions, energies and plans
// equal a from-scratch plan of the same set through the planner-less
// fallback chain.
TEST(ServiceDelta, IncrementalAndFullReplanServeIdenticalPlans) {
  const PowerModel power(3.0, 0.05);
  SchedulerService service(power, service_options());
  const auto expect_scratch_plan = [&](double energy) {
    const FallbackPlan scratch = plan_with_fallback(service.committed_task_set(), kCores,
                                                    power, FallbackOptions{}, Exec::serial());
    ASSERT_EQ(energy, scratch.energy);
    ASSERT_EQ(service.current_energy(), scratch.energy);
    expect_same_segments(service.current_plan(), scratch.schedule);
  };

  const std::vector<Task> arrivals = {
      {0.0, 10.0, 4.0}, {2.0, 8.0, 3.0},  {5.0, 15.0, 2.0},
      {1.0, 6.0, 1.5},  {7.0, 14.0, 2.5}, {3.0, 11.0, 3.5},
  };
  std::vector<TaskId> ids;
  for (std::size_t k = 0; k < arrivals.size(); ++k) {
    SCOPED_TRACE(k);
    const ServiceDecision decision = service.submit(arrivals[k]);
    ASSERT_TRUE(decision.admission.admitted);
    ids.push_back(decision.id);
    expect_scratch_plan(decision.admission.energy_after);
    if (HasFatalFailure()) return;

    if (k % 2 == 1) {  // interleave departures
      ASSERT_TRUE(service.complete(ids[k / 2]));
      expect_scratch_plan(service.current_energy());
      if (HasFatalFailure()) return;
    }
  }
}

// Every plan-cache miss is accounted to exactly one of the delta counters
// or an F2 rung failure, and steady-state misses ride the splice.
TEST(ServiceDelta, DeltaMetricsAccountForCacheMisses) {
  const PowerModel power(3.0, 0.05);
  SchedulerService service(power, service_options());

  const std::vector<Task> arrivals = {
      {0.0, 10.0, 4.0}, {2.0, 8.0, 3.0}, {5.0, 15.0, 2.0}, {1.0, 6.0, 1.5},
  };
  std::vector<TaskId> ids;
  for (const Task& t : arrivals) {
    const ServiceDecision d = service.submit(t);
    ASSERT_TRUE(d.admission.admitted);
    ids.push_back(d.id);
  }
  ASSERT_TRUE(service.complete(ids[0]));
  service.current_plan();

  const MetricsSnapshot snap = service.metrics().snapshot();
  const std::uint64_t hits = service.metrics().counter("plan_delta_hits_total");
  const std::uint64_t full = service.metrics().counter("plan_delta_full_total");
  const std::uint64_t failures = service.metrics().counter("fallback_rung_failures_der");
  const std::uint64_t misses = service.metrics().counter("plan_cache_misses_total");
  EXPECT_EQ(hits + full + failures, misses);
  EXPECT_EQ(failures, 0u);
  EXPECT_EQ(full, 1u);  // only the cold first plan rebuilds
  EXPECT_GE(hits, arrivals.size());
  ASSERT_NE(snap.bucketed.find("plan_latency_us_der"), snap.bucketed.end());
  EXPECT_EQ(snap.bucketed.at("plan_latency_us_der").count(), hits + full);
}

// With the exact rung first and always stalling, every plan degrades to F2,
// and F2 is still the delta planner: after the cold first plan every cache
// miss splices, and every decision, energy and plan equals a default-planner
// service's, bit for bit.
TEST(ServiceDelta, StalledExactRungDegradesThroughTheDeltaPlanner) {
  const PowerModel power(3.0, 0.05);
  ServiceOptions exact_options = service_options();
  exact_options.exact_first = true;
  SchedulerService service(power, exact_options);
  SchedulerService reference(power, service_options());
  FaultInjector injector(FaultPlan::parse("seed=1;solver_stall:p=1"));
  faults::FaultScope scope(injector);
  const auto expect_same_plan = [&] {
    ASSERT_EQ(service.current_energy(), reference.current_energy());
    expect_same_segments(service.current_plan(), reference.current_plan());
  };

  const std::vector<Task> arrivals = {
      {0.0, 10.0, 4.0}, {2.0, 8.0, 3.0},  {5.0, 15.0, 2.0},
      {1.0, 6.0, 1.5},  {7.0, 14.0, 2.5}, {3.0, 11.0, 3.5},
  };
  std::vector<TaskId> ids;
  for (std::size_t k = 0; k < arrivals.size(); ++k) {
    SCOPED_TRACE(k);
    const ServiceDecision got = service.submit(arrivals[k]);
    const ServiceDecision want = reference.submit(arrivals[k]);
    ASSERT_TRUE(got.admission.admitted);
    ASSERT_EQ(got.id, want.id);
    ASSERT_EQ(got.plan_rung, PlanRung::kDer);
    ASSERT_EQ(got.admission.energy_before, want.admission.energy_before);
    ASSERT_EQ(got.admission.energy_after, want.admission.energy_after);
    ASSERT_EQ(got.admission.marginal_energy, want.admission.marginal_energy);
    ids.push_back(got.id);
    expect_same_plan();
    if (HasFatalFailure()) return;

    if (k % 2 == 1) {  // interleave departures
      ASSERT_TRUE(service.complete(ids[k / 2]));
      ASSERT_TRUE(reference.complete(ids[k / 2]));
      expect_same_plan();
      if (HasFatalFailure()) return;
    }
  }

  const MetricsRegistry& metrics = service.metrics();
  const std::uint64_t misses = metrics.counter("plan_cache_misses_total");
  EXPECT_EQ(metrics.counter("fallback_rung_failures_exact"), misses);
  EXPECT_EQ(metrics.counter("plans_by_rung_der"), misses);
  EXPECT_EQ(metrics.counter("plan_delta_full_total"), 1u);
  EXPECT_EQ(metrics.counter("plan_delta_hits_total"), misses - 1);
}

}  // namespace
}  // namespace easched
