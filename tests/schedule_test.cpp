// Schedule container: accounting, validation, coalescing.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "easched/common/contracts.hpp"

#include "easched/sched/schedule.hpp"

namespace easched {
namespace {

TaskSet two_tasks() { return TaskSet({{0.0, 10.0, 4.0}, {2.0, 12.0, 5.0}}); }

TEST(ScheduleTest, AccountingPerTask) {
  Schedule s(2);
  s.add({0, 0, 0.0, 4.0, 1.0});
  s.add({0, 1, 6.0, 8.0, 0.5});
  s.add({1, 0, 4.0, 9.0, 1.0});
  EXPECT_DOUBLE_EQ(s.execution_time(0), 6.0);
  EXPECT_DOUBLE_EQ(s.completed_work(0), 5.0);
  EXPECT_DOUBLE_EQ(s.completed_work(1), 5.0);
  EXPECT_EQ(s.segments_of_task(0).size(), 2u);
  EXPECT_EQ(s.segments_on_core(0).size(), 2u);
}

TEST(ScheduleTest, EnergyIntegratesPower) {
  Schedule s(1);
  s.add({0, 0, 0.0, 2.0, 1.0});
  s.add({0, 0, 3.0, 4.0, 2.0});
  const PowerModel m(3.0, 0.5);
  // (1 + 0.5)*2 + (8 + 0.5)*1 = 11.5; the idle gap costs nothing.
  EXPECT_DOUBLE_EQ(s.energy(m), 11.5);
}

TEST(ScheduleTest, ValidScheduleReportsOk) {
  const TaskSet ts = two_tasks();
  Schedule s(2);
  s.add({0, 0, 0.0, 4.0, 1.0});
  s.add({1, 1, 2.0, 7.0, 1.0});
  const ValidationReport r = s.validate(ts);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.violations.empty());
}

TEST(ScheduleTest, DetectsCoreOverlap) {
  const TaskSet ts = two_tasks();
  Schedule s(2);
  s.add({0, 0, 0.0, 4.0, 1.0});
  s.add({1, 0, 3.0, 8.0, 1.0});  // same core, overlapping
  const ValidationReport r = s.validate(ts);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.violations.front().find("core overlap"), std::string::npos);
}

TEST(ScheduleTest, DetectsTaskSelfOverlap) {
  const TaskSet ts = two_tasks();
  Schedule s(2);
  s.add({0, 0, 0.0, 4.0, 0.5});
  s.add({0, 1, 2.0, 6.0, 0.5});  // task 0 on two cores at once
  const ValidationReport r = s.validate(ts);
  EXPECT_FALSE(r.ok);
}

TEST(ScheduleTest, DetectsWindowViolations) {
  const TaskSet ts = two_tasks();
  Schedule early(2), late(2);
  early.add({1, 0, 1.0, 7.0, 1.0});  // task 1 releases at 2
  EXPECT_FALSE(early.validate(ts).ok);
  late.add({0, 0, 7.0, 11.0, 1.0});  // task 0 deadline is 10
  EXPECT_FALSE(late.validate(ts).ok);
}

TEST(ScheduleTest, DetectsUnderServedTask) {
  const TaskSet ts = two_tasks();
  Schedule s(2);
  s.add({0, 0, 0.0, 4.0, 1.0});  // task 0 done, task 1 untouched
  const ValidationReport r = s.validate(ts);
  EXPECT_FALSE(r.ok);
}

TEST(ScheduleTest, DetectsUnknownTaskAndCore) {
  const TaskSet ts = two_tasks();
  Schedule s(1);
  s.add({0, 0, 0.0, 4.0, 1.0});
  s.add({1, 3, 2.0, 7.0, 1.0});  // core 3 on a 1-core machine
  EXPECT_FALSE(s.validate(ts).ok);

  Schedule unknown(2);
  unknown.add({5, 0, 0.0, 1.0, 1.0});
  EXPECT_FALSE(unknown.validate(ts).ok);
}

TEST(ScheduleTest, AddRejectsDegenerateSegments) {
  Schedule s(1);
  EXPECT_THROW(s.add({0, 0, 2.0, 2.0, 1.0}), ContractViolation);
  EXPECT_THROW(s.add({0, 0, 3.0, 2.0, 1.0}), ContractViolation);
  EXPECT_THROW(s.add({0, 0, 0.0, 1.0, 0.0}), ContractViolation);
  EXPECT_THROW(s.add({-1, 0, 0.0, 1.0, 1.0}), ContractViolation);
}

TEST(ScheduleTest, CoalesceMergesAdjacentSameFrequencySegments) {
  Schedule s(1);
  s.add({0, 0, 0.0, 2.0, 1.0});
  s.add({0, 0, 2.0, 4.0, 1.0});
  s.add({0, 0, 4.0, 5.0, 2.0});  // different frequency: not merged
  const std::size_t merges = s.coalesce();
  EXPECT_EQ(merges, 1u);
  ASSERT_EQ(s.segments().size(), 2u);
  EXPECT_DOUBLE_EQ(s.segments_of_task(0).front().end, 4.0);
}

TEST(ScheduleTest, CoalescePreservesWorkAndEnergy) {
  Schedule s(2);
  s.add({0, 0, 0.0, 2.0, 1.5});
  s.add({0, 0, 2.0, 4.0, 1.5});
  s.add({1, 1, 1.0, 3.0, 0.5});
  const PowerModel m(2.0, 0.1);
  const double work0 = s.completed_work(0);
  const double energy = s.energy(m);
  s.coalesce();
  EXPECT_NEAR(s.completed_work(0), work0, 1e-12);
  EXPECT_NEAR(s.energy(m), energy, 1e-12);
}

TEST(ScheduleTest, CopiesShareSegmentsUntilOneSideWrites) {
  Schedule original(2);
  original.add({0, 0, 0.0, 2.0, 1.0});
  original.add({0, 0, 2.0, 4.0, 1.0});
  original.add({1, 1, 1.0, 3.0, 0.5});
  const std::vector<Segment> before = original.segments();

  for (const char* op : {"add", "reserve", "coalesce"}) {
    SCOPED_TRACE(op);
    Schedule copy = original;
    Schedule assigned;
    assigned = copy;
    EXPECT_EQ(copy.segments().data(), original.segments().data());  // shared, not copied
    EXPECT_EQ(assigned.segments().data(), original.segments().data());
    if (std::string(op) == "add") copy.add({1, 0, 5.0, 6.0, 1.0});
    if (std::string(op) == "reserve") copy.reserve(64);
    if (std::string(op) == "coalesce") copy.coalesce();
    EXPECT_NE(copy.segments().data(), original.segments().data());
    EXPECT_EQ(original.segments(), before);  // the other sides never change
    EXPECT_EQ(assigned.segments(), before);
    EXPECT_EQ(assigned.segments().data(), original.segments().data());
  }

  // Writing the original detaches it from its copies just the same.
  const Schedule copy = original;
  original.add({1, 0, 7.0, 8.0, 1.0});
  EXPECT_EQ(copy.segments(), before);
  EXPECT_EQ(original.segments().size(), before.size() + 1);
  EXPECT_TRUE(Schedule(3).segments().empty());
}

TEST(ScheduleTest, SegmentHelpers) {
  const Segment seg{0, 0, 1.0, 3.5, 2.0};
  EXPECT_DOUBLE_EQ(seg.duration(), 2.5);
  EXPECT_DOUBLE_EQ(seg.work(), 5.0);
}

}  // namespace
}  // namespace easched
