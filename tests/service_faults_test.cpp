// Service-level fault tolerance: 100% exact-solver failure (every request
// answered by a fallback rung or reasoned rejection, zero invalid plans),
// structured error kinds, and the request fault hooks.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "easched/common/math.hpp"
#include "easched/faults/fault_injection.hpp"
#include "easched/service/service.hpp"

namespace easched {
namespace {

PowerModel test_power() { return PowerModel(3.0, 0.1); }

ServiceOptions service_options() {
  ServiceOptions options;
  options.cores = 2;
  options.f_max = kInf;
  return options;
}

Task stream_task(int i) {
  const double release = 0.1 * i;
  return Task{release, release + 15.0, 0.5 + 0.01 * i};
}

TEST(ServiceFaultsTest, TotalExactFailureStreamIsServedByFallback) {
  // Acceptance scenario: the exact solver fails 100% of the time, yet every
  // request is answered by a fallback rung or a reasoned rejection, and the
  // plan that backs each admit validates.
  constexpr int kRequests = 200;
  FaultInjector injector(FaultPlan::parse("seed=5;solver_stall:p=1"));
  faults::FaultScope scope(injector);

  ServiceOptions options = service_options();
  options.exact_first = true;
  SchedulerService service(test_power(), options);

  int admitted = 0;
  for (int i = 0; i < kRequests; ++i) {
    const ServiceDecision decision = service.submit(stream_task(i));
    if (decision.admission.admitted) {
      ++admitted;
      // Served by a rung below exact — never by the failing exact rung.
      EXPECT_EQ(decision.plan_rung, PlanRung::kDer);
    } else {
      EXPECT_FALSE(decision.admission.rejection_reason.empty());
    }
  }
  EXPECT_EQ(admitted, kRequests);  // f_max = inf: everything is admittable

  // No plan ever came from the exact rung, every planning pass recorded its
  // failure and degraded, and the final plan is valid.
  EXPECT_EQ(service.metrics().counter("plans_by_rung_exact"), 0u);
  EXPECT_GT(service.metrics().counter("plans_by_rung_der"), 0u);
  EXPECT_GT(service.metrics().counter("fallback_rung_failures_exact"), 0u);
  EXPECT_GT(service.metrics().counter("fallback_degraded_total"), 0u);
  EXPECT_EQ(service.metrics().counter("planning_failures_total"), 0u);
  const ValidationReport report =
      service.current_plan().validate(service.committed_task_set(), 1e-5, 1e-5);
  EXPECT_TRUE(report.ok) << (report.violations.empty() ? "" : report.violations.front());
  EXPECT_EQ(injector.fired(FaultSite::kSolverStall), injector.occurrences(FaultSite::kSolverStall));
}

TEST(ServiceFaultsTest, PlanningFailureBecomesReasonedRejection) {
  SchedulerService service(test_power(), service_options());

  // Astronomical work overflows every rung's energy to infinity: the whole
  // chain fails, and the service must reject with the chain's reasons — not
  // crash, not serve a non-finite plan.
  const ServiceDecision poisoned = service.submit(Task{0.0, 1.0, 1e200});
  EXPECT_FALSE(poisoned.admission.admitted);
  EXPECT_EQ(poisoned.error_kind, AdmissionErrorKind::kPlanning);
  EXPECT_NE(poisoned.admission.rejection_reason.find("planning failed"), std::string::npos)
      << poisoned.admission.rejection_reason;
  EXPECT_EQ(service.metrics().counter("admission_errors_by_kind_planning"), 1u);
  EXPECT_EQ(service.metrics().counter("admission_errors_total"), 1u);
  EXPECT_GE(service.metrics().counter("planning_failures_total"), 1u);

  // The committed set is untouched and the service keeps serving.
  EXPECT_EQ(service.committed_count(), 0u);
  const ServiceDecision normal = service.submit(stream_task(0));
  EXPECT_TRUE(normal.admission.admitted);
  EXPECT_EQ(normal.error_kind, AdmissionErrorKind::kNone);
}

TEST(ServiceFaultsTest, DecisionsCarryTheServingRung) {
  {
    SchedulerService service(test_power(), service_options());
    const ServiceDecision decision = service.submit(stream_task(0));
    ASSERT_TRUE(decision.admission.admitted);
    EXPECT_EQ(decision.plan_rung, PlanRung::kDer);  // default chain tops at F2
  }
  {
    ServiceOptions options = service_options();
    options.exact_first = true;
    SchedulerService service(test_power(), options);
    const ServiceDecision decision = service.submit(stream_task(0));
    ASSERT_TRUE(decision.admission.admitted);
    EXPECT_EQ(decision.plan_rung, PlanRung::kExact);
  }
}

TEST(ServiceFaultsTest, DroppedRequestsAreAnsweredAndCounted) {
  FaultInjector injector(FaultPlan::parse("seed=3;request_drop:p=0.5"));
  faults::FaultScope scope(injector);

  SchedulerService service(test_power(), service_options());
  int dropped = 0;
  for (int i = 0; i < 40; ++i) {
    const ServiceDecision decision = service.submit(stream_task(i));
    if (decision.error_kind == AdmissionErrorKind::kDropped) {
      ++dropped;
      EXPECT_FALSE(decision.admission.admitted);
    } else {
      EXPECT_TRUE(decision.admission.admitted);
    }
  }
  EXPECT_GT(dropped, 0);
  EXPECT_LT(dropped, 40);
  EXPECT_EQ(static_cast<std::uint64_t>(dropped), injector.fired(FaultSite::kRequestDrop));
  EXPECT_EQ(service.committed_count(), static_cast<std::size_t>(40 - dropped));
}

TEST(ServiceFaultsTest, DuplicatedRequestsKeepTheServiceConsistent) {
  FaultInjector injector(FaultPlan::parse("request_dup:p=1"));
  faults::FaultScope scope(injector);

  SchedulerService service(test_power(), service_options());
  const ServiceDecision decision = service.submit(stream_task(0));
  EXPECT_TRUE(decision.admission.admitted);
  // At-least-once delivery: the duplicate is admitted as its own task (a
  // real client retry after a lost ack would do the same); the set stays
  // consistent and plannable.
  EXPECT_EQ(service.committed_count(), 2u);
  EXPECT_TRUE(service.current_plan().validate(service.committed_task_set(), 1e-5, 1e-5).ok);
  // The duplicate was decided under its own sequence number, right after
  // the original's, so the next call's item comes two numbers later.
  EXPECT_EQ(service.submit(stream_task(1)).sequence, decision.sequence + 2);
}

// The request hooks item by item, at the service's intake (the suite keeps
// the name of the bounded queue that once ran them).

TEST(RequestQueueOverloadTest, InjectedDropAnswersWithoutEnqueuing) {
  FaultInjector injector(FaultPlan::parse("request_drop:p=1"));
  faults::FaultScope scope(injector);
  SchedulerService service(test_power(), service_options());
  std::vector<std::optional<ServiceDecision>> decided;
  service.submit_batch({ServiceRequest{stream_task(0), ""}}, decided);
  EXPECT_EQ(injector.fired(FaultSite::kRequestDrop), 1u);
  ASSERT_EQ(decided.size(), 1u);
  ASSERT_TRUE(decided[0].has_value());
  EXPECT_FALSE(decided[0]->admission.admitted);
  EXPECT_EQ(decided[0]->error_kind, AdmissionErrorKind::kDropped);
  // Never decided: nothing committed and no id handed out.
  EXPECT_EQ(service.committed_count(), 0u);
  EXPECT_EQ(service.next_id(), 0u);
}

TEST(RequestQueueOverloadTest, InjectedDuplicateGetsItsOwnSequence) {
  FaultInjector injector(FaultPlan::parse("request_dup:p=1"));
  faults::FaultScope scope(injector);
  SchedulerService service(test_power(), service_options());
  const std::vector<ServiceDecision> decisions =
      service.submit_batch({ServiceRequest{stream_task(0), ""}});
  EXPECT_EQ(injector.fired(FaultSite::kRequestDup), 1u);

  // The original answers item 0; the duplicate answers nobody.
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].sequence, 0u);
  EXPECT_TRUE(decisions[0].admission.admitted);
  // Both copies were decided, as distinct tasks with the same timing.
  const TaskSet committed = service.committed_task_set();
  ASSERT_EQ(committed.size(), 2u);
  EXPECT_EQ(committed[0].deadline, committed[1].deadline);
  const std::vector<TaskId> ids = service.committed_ids();
  EXPECT_NE(ids[0], ids[1]);
  // The duplicate took sequence 1, so the next call starts at 2.
  EXPECT_EQ(service.submit(stream_task(1)).sequence, 2u);
}

}  // namespace
}  // namespace easched
