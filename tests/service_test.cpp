// SchedulerService core behavior: admission decisions, quotes, plan cache
// integration, complete/cancel, snapshot export round trip, restart from
// the journal.

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "easched/power/power_model.hpp"
#include "easched/sched/admission.hpp"
#include "easched/service/service.hpp"
#include "easched/service/snapshot.hpp"
#include "easched/sim/executor.hpp"

namespace easched {
namespace {

PowerModel test_power() { return PowerModel(/*alpha=*/3.0, /*static_power=*/0.1); }

ServiceOptions service_options(double f_max = kInf) {
  ServiceOptions options;
  options.cores = 2;
  options.f_max = f_max;
  return options;
}

TEST(SchedulerServiceTest, AdmitsFeasibleTasksAndQuotesMarginalEnergy) {
  SchedulerService service(test_power(), service_options());
  const ServiceDecision first = service.submit(Task{0.0, 10.0, 8.0});
  ASSERT_TRUE(first.admission.admitted);
  EXPECT_EQ(first.id, 0);
  EXPECT_DOUBLE_EQ(first.admission.energy_before, 0.0);
  EXPECT_GT(first.admission.energy_after, 0.0);
  EXPECT_DOUBLE_EQ(first.admission.marginal_energy, first.admission.energy_after);

  const ServiceDecision second = service.submit(Task{2.0, 18.0, 14.0});
  ASSERT_TRUE(second.admission.admitted);
  EXPECT_EQ(second.id, 1);
  EXPECT_DOUBLE_EQ(second.admission.energy_before, first.admission.energy_after);
  EXPECT_GT(second.admission.marginal_energy, 0.0);
  EXPECT_EQ(service.committed_count(), 2u);
}

TEST(SchedulerServiceTest, RejectsMalformedAndOverloadedTasks) {
  SchedulerService service(test_power(), service_options(/*f_max=*/1.0));
  const ServiceDecision malformed = service.submit(Task{5.0, 5.0, 1.0});
  EXPECT_FALSE(malformed.admission.admitted);
  EXPECT_EQ(malformed.id, -1);
  EXPECT_NE(malformed.admission.rejection_reason.find("malformed"), std::string::npos);

  // Intensity 2 > f_max = 1: cannot finish even running alone.
  const ServiceDecision hopeless = service.submit(Task{0.0, 1.0, 2.0});
  EXPECT_FALSE(hopeless.admission.admitted);
  EXPECT_NE(hopeless.admission.rejection_reason.find("frequency ceiling"), std::string::npos);
  EXPECT_EQ(service.committed_count(), 0u);
}

TEST(SchedulerServiceTest, RejectionsMatchStandaloneAdmitTask) {
  const PowerModel power = test_power();
  const double f_max = 1.0;
  SchedulerService service(power, service_options(f_max));
  // Saturate a 2-core window [0, 10] at f_max = 1 (capacity 20 work units).
  std::vector<Task> stream = {Task{0.0, 10.0, 9.0}, Task{0.0, 10.0, 9.0},
                              Task{0.0, 10.0, 9.0}, Task{1.0, 9.0, 4.0}};
  std::vector<Task> committed;
  for (const Task& t : stream) {
    const ServiceDecision got = service.submit(t);
    const AdmissionDecision want =
        admit_task(TaskSet(committed), t, /*cores=*/2, power, f_max);
    EXPECT_EQ(got.admission.admitted, want.admitted);
    EXPECT_EQ(got.admission.rejection_reason, want.rejection_reason);
    EXPECT_NEAR(got.admission.energy_before, want.energy_before, 1e-9);
    EXPECT_NEAR(got.admission.energy_after, want.energy_after, 1e-9);
    if (want.admitted) committed.push_back(t);
  }
  EXPECT_EQ(service.committed_count(), committed.size());
}

TEST(SchedulerServiceTest, QuoteDoesNotCommitAndWarmsTheCacheForAdmit) {
  SchedulerService service(test_power(), service_options());
  ASSERT_TRUE(service.submit(Task{0.0, 10.0, 8.0}).admission.admitted);
  const Task candidate{2.0, 18.0, 14.0};

  const AdmissionDecision quoted = service.quote(candidate);
  ASSERT_TRUE(quoted.admitted);
  EXPECT_EQ(service.committed_count(), 1u);

  const std::uint64_t misses_before = service.metrics().counter("plan_cache_misses_total");
  const ServiceDecision admitted = service.submit(candidate);
  ASSERT_TRUE(admitted.admission.admitted);
  // The quote already planned committed+candidate, so the admit re-plans
  // nothing: no new cache miss.
  EXPECT_EQ(service.metrics().counter("plan_cache_misses_total"), misses_before);
  EXPECT_DOUBLE_EQ(admitted.admission.energy_after, quoted.energy_after);
}

TEST(SchedulerServiceTest, RepeatedPlanReadsHitTheCache) {
  SchedulerService service(test_power(), service_options());
  ASSERT_TRUE(service.submit(Task{0.0, 10.0, 8.0}).admission.admitted);
  const double energy = service.current_energy();
  const std::uint64_t misses_before = service.metrics().counter("plan_cache_misses_total");
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(service.current_energy(), energy);
    EXPECT_FALSE(service.current_plan().empty());
  }
  EXPECT_EQ(service.metrics().counter("plan_cache_misses_total"), misses_before);
  EXPECT_GE(service.metrics().counter("plan_cache_hits_total"), 10u);
}

TEST(SchedulerServiceTest, CompleteAndCancelInvalidateThePlan) {
  SchedulerService service(test_power(), service_options());
  const ServiceDecision a = service.submit(Task{0.0, 10.0, 8.0});
  const ServiceDecision b = service.submit(Task{2.0, 18.0, 14.0});
  const double both = service.current_energy();

  ASSERT_TRUE(service.complete(a.id));
  EXPECT_EQ(service.committed_count(), 1u);
  EXPECT_LT(service.current_energy(), both);
  EXPECT_FALSE(service.complete(a.id)) << "double-complete must be rejected";

  ASSERT_TRUE(service.cancel(b.id));
  EXPECT_EQ(service.committed_count(), 0u);
  EXPECT_DOUBLE_EQ(service.current_energy(), 0.0);
  EXPECT_FALSE(service.cancel(b.id));
  EXPECT_EQ(service.metrics().counter("completions_total"), 1u);
  EXPECT_EQ(service.metrics().counter("cancellations_total"), 1u);
}

TEST(SchedulerServiceTest, PlanIsValidForCommittedSet) {
  SchedulerService service(test_power(), service_options());
  service.submit(Task{0.0, 10.0, 8.0});
  service.submit(Task{2.0, 18.0, 14.0});
  service.submit(Task{5.0, 12.0, 6.0});
  const TaskSet committed = service.committed_task_set();
  const Schedule plan = service.current_plan();
  const ValidationReport report = plan.validate(committed, 1e-6);
  EXPECT_TRUE(report.ok) << (report.violations.empty() ? "" : report.violations.front());

  const ExecutionReport executed =
      execute_schedule(committed, plan, power_function(test_power()));
  EXPECT_TRUE(executed.all_deadlines_met());
}

TEST(SchedulerServiceTest, MetricsDumpCoversTheServiceCounters) {
  SchedulerService service(test_power(), service_options(/*f_max=*/1.0));
  service.submit(Task{0.0, 10.0, 8.0});
  service.submit(Task{0.0, 10.0, 30.0});  // infeasible at f_max on 2 cores
  const std::string dump = service.metrics().dump();
  EXPECT_NE(dump.find("counter admitted_total 1"), std::string::npos);
  EXPECT_NE(dump.find("counter rejected_total 1"), std::string::npos);
  EXPECT_NE(dump.find("counter requests_total 2"), std::string::npos);
  EXPECT_NE(dump.find("gauge committed_tasks 1"), std::string::npos);
  EXPECT_NE(dump.find("bucket_histogram batch_size"), std::string::npos);
  EXPECT_NE(dump.find("bucket_histogram replan_latency_us"), std::string::npos);
}

TEST(SchedulerServiceTest, SnapshotRoundTripsThroughText) {
  SchedulerService service(test_power(), service_options());
  service.submit(Task{0.0, 10.0, 8.0});
  service.submit(Task{2.0, 18.0, 14.0});
  service.complete(0);  // leave a gap in the id space

  const ServiceSnapshot snap = service.snapshot();
  const ServiceSnapshot parsed = snapshot_from_text(snapshot_to_text(snap));
  EXPECT_EQ(parsed.cores, snap.cores);
  EXPECT_EQ(parsed.next_id, snap.next_id);
  ASSERT_EQ(parsed.committed.size(), snap.committed.size());
  EXPECT_EQ(parsed.committed[0].first, snap.committed[0].first);
  EXPECT_EQ(parsed.committed[0].second.work, snap.committed[0].second.work);
}

TEST(SchedulerServiceTest, SnapshotRejectsMalformedDocuments) {
  EXPECT_THROW(snapshot_from_text("not a snapshot"), std::runtime_error);
  EXPECT_THROW(snapshot_from_text("# easched-service-snapshot v1\n# cores=2\n"),
               std::runtime_error);
}

TEST(SchedulerServiceTest, RestoredServiceResumesWithIdsAndPlanIntact) {
  const std::string journal = ::testing::TempDir() + "/service_restart.wal";
  std::remove(journal.c_str());
  ServiceOptions options = service_options();
  options.journal_path = journal;

  double energy = 0.0;
  {
    SchedulerService original(test_power(), options);
    original.submit(Task{0.0, 10.0, 8.0});
    original.submit(Task{2.0, 18.0, 14.0});
    energy = original.current_energy();
  }

  // A restart on the same journal recovers the committed set and counter.
  SchedulerService restored(test_power(), options);
  EXPECT_EQ(restored.committed_count(), 2u);
  EXPECT_EQ(restored.committed_ids(), (std::vector<TaskId>{0, 1}));
  EXPECT_EQ(restored.next_id(), 2);
  // The plan is re-derived from the restored set, bit-identical to the
  // plan the original service held for the same set.
  EXPECT_EQ(restored.current_energy(), energy);

  // New admissions continue the id sequence rather than reusing ids.
  const ServiceDecision next = restored.submit(Task{1.0, 30.0, 5.0});
  ASSERT_TRUE(next.admission.admitted);
  EXPECT_EQ(next.id, 2);
}

}  // namespace
}  // namespace easched
