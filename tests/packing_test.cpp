// Algorithm 1 (McNaughton wrap-around packing) inside one subinterval.

#include <gtest/gtest.h>

#include "easched/common/contracts.hpp"

#include "easched/common/rng.hpp"
#include "easched/parallel/exec.hpp"
#include "easched/sched/packing.hpp"

namespace easched {
namespace {

/// Check the packed schedule: all segments in [begin,end], no core overlap,
/// no task self-overlap, per-task time preserved.
void expect_valid_packing(const Schedule& s, double begin, double end, int cores,
                          const std::vector<PackItem>& items) {
  for (const Segment& seg : s.segments()) {
    EXPECT_GE(seg.start, begin - 1e-9);
    EXPECT_LE(seg.end, end + 1e-9);
    EXPECT_GE(seg.core, 0);
    EXPECT_LT(seg.core, cores);
  }
  for (int c = 0; c < cores; ++c) {
    const auto on_core = s.segments_on_core(c);
    for (std::size_t k = 1; k < on_core.size(); ++k) {
      EXPECT_GE(on_core[k].start, on_core[k - 1].end - 1e-9) << "core " << c;
    }
  }
  for (const PackItem& item : items) {
    const auto of_task = s.segments_of_task(item.task);
    double total = 0.0;
    for (const Segment& seg : of_task) total += seg.duration();
    EXPECT_NEAR(total, item.time, 1e-9) << "task " << item.task;
    for (std::size_t k = 1; k < of_task.size(); ++k) {
      EXPECT_GE(of_task[k].start, of_task[k - 1].end - 1e-9)
          << "task " << item.task << " self-overlaps";
    }
  }
}

TEST(PackingTest, SingleItemSingleCore) {
  Schedule s(1);
  const std::vector<PackItem> items{{0, 1.5, 1.0}};
  pack_subinterval(0.0, 2.0, 1, items, s);
  ASSERT_EQ(s.segments().size(), 1u);
  EXPECT_DOUBLE_EQ(s.segments().front().start, 0.0);
  EXPECT_DOUBLE_EQ(s.segments().front().end, 1.5);
}

TEST(PackingTest, WrapAroundSplitsAcrossCores) {
  // Three items of 1.5 in a length-2 interval on 2 cores < capacity 4...
  // no: total 4.5 > 4. Use times 1.3 each (total 3.9 <= 4).
  Schedule s(2);
  const std::vector<PackItem> items{{0, 1.3, 1.0}, {1, 1.3, 1.0}, {2, 1.3, 1.0}};
  pack_subinterval(0.0, 2.0, 2, items, s);
  expect_valid_packing(s, 0.0, 2.0, 2, items);
  // Item 1 wraps: one piece ends at 2.0 on core 0, the rest on core 1.
  const auto of1 = s.segments_of_task(1);
  ASSERT_EQ(of1.size(), 2u);
  EXPECT_NE(of1[0].core, of1[1].core);
}

TEST(PackingTest, PaperWorkedExampleEvenSplit) {
  // Section V-D / Fig 4(b): five tasks, 8/5 each, in [8,10] on 4 cores.
  Schedule s(4);
  std::vector<PackItem> items;
  for (TaskId i = 0; i < 5; ++i) items.push_back({i, 8.0 / 5.0, 1.0});
  pack_subinterval(8.0, 10.0, 4, items, s);
  expect_valid_packing(s, 8.0, 10.0, 4, items);
  // Full capacity: every core is busy for the whole subinterval.
  for (int c = 0; c < 4; ++c) {
    double busy = 0.0;
    for (const Segment& seg : s.segments_on_core(c)) busy += seg.duration();
    EXPECT_NEAR(busy, 2.0, 1e-9);
  }
}

TEST(PackingTest, ExactFullCapacityPacksWithoutSpill) {
  Schedule s(3);
  const std::vector<PackItem> items{{0, 2.0, 1.0}, {1, 2.0, 1.0}, {2, 2.0, 1.0}};
  pack_subinterval(4.0, 6.0, 3, items, s);
  expect_valid_packing(s, 4.0, 6.0, 3, items);
}

TEST(PackingTest, ZeroTimeItemsProduceNoSegments) {
  Schedule s(2);
  const std::vector<PackItem> items{{0, 0.0, 1.0}, {1, 1.0, 1.0}};
  pack_subinterval(0.0, 2.0, 2, items, s);
  EXPECT_TRUE(s.segments_of_task(0).empty());
  EXPECT_EQ(s.segments_of_task(1).size(), 1u);
}

TEST(PackingTest, WrappedPiecesNeverOverlapInTime) {
  // The wrap invariant: head piece ends no later than the tail piece starts.
  Rng rng(Rng::seed_of("packing-wrap", 0));
  for (int trial = 0; trial < 100; ++trial) {
    const int cores = 2 + static_cast<int>(rng.uniform_index(4));
    const double begin = rng.uniform(0.0, 10.0);
    const double length = rng.uniform(0.5, 4.0);
    const std::size_t n = static_cast<std::size_t>(cores) + 1 + rng.uniform_index(6);
    // Random times summing to at most cores*length, each <= length.
    std::vector<PackItem> items;
    double budget = cores * length;
    for (std::size_t i = 0; i < n; ++i) {
      const double t = std::min({rng.uniform(0.0, length), budget});
      items.push_back({static_cast<TaskId>(i), t, rng.uniform(0.5, 2.0)});
      budget -= t;
    }
    Schedule s(cores);
    pack_subinterval(begin, begin + length, cores, items, s);
    expect_valid_packing(s, begin, begin + length, cores, items);
  }
}

TEST(PackingTest, RejectsOversizedItems) {
  Schedule s(2);
  const std::vector<PackItem> items{{0, 2.5, 1.0}};
  EXPECT_THROW(pack_subinterval(0.0, 2.0, 2, items, s), ContractViolation);
}

TEST(PackingTest, RejectsOverCapacity) {
  Schedule s(2);
  const std::vector<PackItem> items{{0, 2.0, 1.0}, {1, 2.0, 1.0}, {2, 1.0, 1.0}};
  EXPECT_THROW(pack_subinterval(0.0, 2.0, 2, items, s), ContractViolation);
}

TEST(PackingTest, RejectsDegenerateInterval) {
  Schedule s(1);
  EXPECT_THROW(pack_subinterval(2.0, 2.0, 1, {}, s), ContractViolation);
  EXPECT_THROW(pack_subinterval(0.0, 2.0, 0, {}, s), ContractViolation);
}

TEST(PackingTest, ToleratesTinyFloatOverrun) {
  // Items a hair over the cap (float noise from upstream) are clamped.
  Schedule s(1);
  const double eps = 1e-12;
  const std::vector<PackItem> items{{0, 1.0 + eps, 1.0}};
  EXPECT_NO_THROW(pack_subinterval(0.0, 1.0, 1, items, s));
  double total = 0.0;
  for (const Segment& seg : s.segments()) total += seg.duration();
  EXPECT_LE(total, 1.0 + 1e-9);
}

TEST(PackingTest, FusedPackStaysExactAcrossKeyTablesPastTheKeptSize) {
  // Ids up to 99999 on 4 cores need 500k (task, core) keys, more than a
  // thread keeps between packs; the small pack after it must be exact too.
  const TaskSet tasks({Task{0.0, 4.0, 1.0}, Task{1.0, 3.0, 1.0}});
  const SubintervalDecomposition subs(tasks);
  constexpr int kCores = 4;
  for (const TaskId max_task : {TaskId{99999}, TaskId{7}}) {
    SCOPED_TRACE(::testing::Message() << "max_task " << max_task);
    std::vector<std::vector<PackItem>> items(subs.size());
    for (std::size_t j = 0; j < subs.size(); ++j) {
      const double length = subs[j].length();
      items[j] = {{0, 0.75 * length, 1.0}, {3, 0.5 * length, 1.5}, {max_task, length, 2.0}};
    }
    Schedule expected = pack_subintervals(subs, kCores, items, Exec::serial());
    expected.coalesce();
    const Schedule fused = pack_subintervals_coalesced(
        subs, kCores, 0, subs.size(),
        [&](std::size_t j) { return std::span<const PackItem>(items[j]); }, max_task,
        Exec::serial());
    EXPECT_EQ(fused.segments(), expected.segments());
  }
}

TEST(PackingTest, FusedPackStaysExactPastTheScatterBound) {
  // 1.2 million runs are past what the fused pack orders by scattering
  // through a second buffer, so they move in place (bucket passes, then
  // cycles) and must still come out in `coalesce`'s order.
  const TaskSet tasks({Task{0.0, 4.0, 1.0}, Task{1.0, 3.0, 1.0}});
  const SubintervalDecomposition subs(tasks);
  constexpr int kCores = 4;
  constexpr TaskId kTasks = 400000;
  std::vector<std::vector<PackItem>> items(subs.size());
  for (std::size_t j = 0; j < subs.size(); ++j) {
    const double time = 0.9 * kCores * subs[j].length() / kTasks;
    for (TaskId id = 0; id < kTasks; ++id) items[j].push_back({id, time, 1.0 + (id % 3) * 0.5});
  }
  Schedule expected = pack_subintervals(subs, kCores, items, Exec::serial());
  expected.coalesce();
  ASSERT_GT(expected.segments().size(), std::size_t{1} << 20);
  const Schedule fused = pack_subintervals_coalesced(
      subs, kCores, 0, subs.size(),
      [&](std::size_t j) { return std::span<const PackItem>(items[j]); }, kTasks - 1,
      Exec::serial());
  EXPECT_TRUE(fused.segments() == expected.segments());
}

}  // namespace
}  // namespace easched
