// The bounded intake's overload contract: never block, never throw, shed the
// lowest-laxity item of a call first, and always leave the client with an
// answer.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "easched/faults/fault_injection.hpp"
#include "easched/service/request_queue.hpp"

namespace easched {
namespace {

/// laxity = window - work; pick (deadline, work) to hit a target laxity.
Task with_laxity(double laxity) { return Task{0.0, laxity + 2.0, 2.0}; }

std::vector<ServiceRequest> call_of(const std::vector<double>& laxities) {
  std::vector<ServiceRequest> items;
  for (const double laxity : laxities) items.push_back({with_laxity(laxity), ""});
  return items;
}

TEST(RequestQueueOverloadTest, UnboundedQueueNeverRejects) {
  RequestQueue queue;  // capacity 0
  EXPECT_EQ(queue.capacity(), 0u);
  std::vector<std::optional<ServiceDecision>> decided;
  const auto pending = queue.intake(call_of(std::vector<double>(100, 1.0)), decided);
  EXPECT_EQ(pending.size(), 100u);
  EXPECT_EQ(queue.shed() + queue.overload_rejected(), 0u);
  ASSERT_EQ(decided.size(), 100u);
  for (const auto& decision : decided) EXPECT_FALSE(decision.has_value());
}

TEST(RequestQueueOverloadTest, ShedsLowestLaxityQueuedVictim) {
  RequestQueue queue(2);
  // A (5) and B (3) fill the call's capacity; the laxer C (10) displaces the
  // tightest survivor (B), and D (1), tighter than everything left, is
  // itself rejected.
  std::vector<std::optional<ServiceDecision>> decided;
  const auto pending = queue.intake(call_of({5.0, 3.0, 10.0, 1.0}), decided);
  EXPECT_EQ(queue.shed(), 1u);
  EXPECT_EQ(queue.overload_rejected(), 1u);

  EXPECT_FALSE(decided[0].has_value());
  ASSERT_TRUE(decided[1].has_value());
  EXPECT_FALSE(decided[1]->admission.admitted);
  EXPECT_EQ(decided[1]->error_kind, AdmissionErrorKind::kOverload);
  EXPECT_FALSE(decided[1]->admission.rejection_reason.empty());
  EXPECT_FALSE(decided[2].has_value());
  ASSERT_TRUE(decided[3].has_value());
  EXPECT_EQ(decided[3]->error_kind, AdmissionErrorKind::kOverload);

  // The survivors are A and C, still in arrival order.
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0].task.deadline, with_laxity(5.0).deadline);
  EXPECT_EQ(pending[1].task.deadline, with_laxity(10.0).deadline);
  EXPECT_EQ(pending[0].slot, 0u);
  EXPECT_EQ(pending[1].slot, 2u);
  EXPECT_LT(pending[0].sequence, pending[1].sequence);
}

TEST(RequestQueueOverloadTest, LaxityTieRejectsTheArrival) {
  RequestQueue queue(1);
  std::vector<std::optional<ServiceDecision>> decided;
  // Equal laxity: the second item is not *strictly* laxer.
  const auto pending = queue.intake(call_of({4.0, 4.0}), decided);
  EXPECT_EQ(queue.shed(), 0u);
  EXPECT_EQ(queue.overload_rejected(), 1u);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].slot, 0u);
  ASSERT_TRUE(decided[1].has_value());
  EXPECT_EQ(decided[1]->error_kind, AdmissionErrorKind::kOverload);
}

TEST(RequestQueueOverloadTest, InjectedDropAnswersWithoutEnqueuing) {
  FaultInjector injector(FaultPlan::parse("request_drop:p=1"));
  faults::FaultScope scope(injector);
  RequestQueue queue(4);
  std::vector<std::optional<ServiceDecision>> decided;
  const auto pending = queue.intake(call_of({3.0}), decided);
  EXPECT_TRUE(pending.empty());
  EXPECT_EQ(queue.fault_dropped(), 1u);
  ASSERT_TRUE(decided[0].has_value());
  EXPECT_FALSE(decided[0]->admission.admitted);
  EXPECT_EQ(decided[0]->error_kind, AdmissionErrorKind::kDropped);
}

TEST(RequestQueueOverloadTest, InjectedDuplicateGetsItsOwnSequence) {
  FaultInjector injector(FaultPlan::parse("request_dup:p=1"));
  faults::FaultScope scope(injector);
  RequestQueue queue;
  std::vector<std::optional<ServiceDecision>> decided;
  const auto pending = queue.intake(call_of({3.0}), decided);
  EXPECT_EQ(queue.fault_duplicated(), 1u);

  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0].task.deadline, pending[1].task.deadline);
  EXPECT_NE(pending[0].sequence, pending[1].sequence);
  // The original answers item 0; the duplicate answers nobody.
  EXPECT_EQ(pending[0].slot, 0u);
  EXPECT_EQ(pending[1].slot, PendingRequest::kNoSlot);
  EXPECT_FALSE(decided[0].has_value());  // still awaits its admission run
}

}  // namespace
}  // namespace easched
