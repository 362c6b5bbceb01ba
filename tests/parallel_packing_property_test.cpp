// Property test for McNaughton packing under randomized heavy subintervals,
// exercised through both the serial and the parallel `pack_subintervals`
// path. Invariants checked on every instance: the two paths emit the exact
// same segments; no two segments collide on a core; no task runs on two
// cores at once; and every pack item's time is conserved by its segments.
// The fused pack + coalesce (`pack_final`, and the intermediate pieces'
// overload) must equal `pack_subintervals` followed by `Schedule::coalesce`
// segment for segment, over the full horizon and random windows, serially
// and on pools of 2 and 8 threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "easched/common/rng.hpp"
#include "easched/parallel/exec.hpp"
#include "easched/parallel/thread_pool.hpp"
#include "easched/sched/packing.hpp"
#include "easched/sched/pipeline.hpp"
#include "easched/tasksys/workload.hpp"

namespace easched {
namespace {

constexpr int kCores = 3;

/// Random pack items for each subinterval, biased heavy: total demand close
/// to (but within) the `cores · length` capacity, items within the length.
std::vector<std::vector<PackItem>> random_items(const SubintervalDecomposition& subs,
                                                Rng& rng) {
  std::vector<std::vector<PackItem>> items(subs.size());
  for (std::size_t j = 0; j < subs.size(); ++j) {
    const double length = subs[j].length();
    double capacity = static_cast<double>(kCores) * length * rng.uniform(0.6, 0.999);
    const std::size_t count = 1 + rng.uniform_index(12);
    for (std::size_t k = 0; k < count && capacity > 0.0; ++k) {
      const double time = std::min(capacity, length * rng.uniform(0.05, 0.999));
      items[j].push_back(
          {static_cast<TaskId>(k), time, rng.uniform(0.5, 4.0)});
      capacity -= time;
    }
  }
  return items;
}

void expect_no_core_collision(const Schedule& schedule) {
  for (CoreId core = 0; core < schedule.core_count(); ++core) {
    const std::vector<Segment> on_core = schedule.segments_on_core(core);
    for (std::size_t k = 1; k < on_core.size(); ++k) {
      ASSERT_LE(on_core[k - 1].end, on_core[k].start + 1e-12)
          << "core " << core << " segments overlap";
    }
  }
}

void expect_no_intra_task_parallelism(const Schedule& schedule,
                                      const std::vector<std::vector<PackItem>>& items) {
  for (const auto& sub_items : items) {
    for (const PackItem& item : sub_items) {
      const std::vector<Segment> of_task = schedule.segments_of_task(item.task);
      for (std::size_t k = 1; k < of_task.size(); ++k) {
        ASSERT_LE(of_task[k - 1].end, of_task[k].start + 1e-12)
            << "task " << item.task << " runs on two cores at once";
      }
    }
  }
}

void expect_work_conservation(const Schedule& schedule, const SubintervalDecomposition& subs,
                              const std::vector<std::vector<PackItem>>& items) {
  // Segment time per (task, subinterval), reconstructed from segment spans.
  std::map<std::pair<TaskId, std::size_t>, double> packed;
  for (const Segment& segment : schedule.segments()) {
    for (std::size_t j = 0; j < subs.size(); ++j) {
      if (segment.start >= subs[j].begin - 1e-12 && segment.end <= subs[j].end + 1e-12) {
        packed[{segment.task, j}] += segment.duration();
        break;
      }
    }
  }
  for (std::size_t j = 0; j < subs.size(); ++j) {
    const double tol = 1e-8 * std::max(1.0, subs[j].length());
    for (const PackItem& item : items[j]) {
      const double packed_time = packed[std::make_pair(item.task, j)];
      ASSERT_NEAR(packed_time, item.time, tol)
          << "task " << item.task << " subinterval " << j;
    }
  }
}

class PackingPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PackingPropertyTest, SerialAndParallelPackingAgreeAndHoldInvariants) {
  Rng rng(Rng::seed_of("parallel-packing", GetParam()));
  WorkloadConfig config;
  config.task_count = 6 + GetParam() % 20;
  const TaskSet tasks = generate_workload(config, rng);
  const SubintervalDecomposition subs(tasks);
  const auto items = random_items(subs, rng);

  const Schedule serial = pack_subintervals(subs, kCores, items, Exec::serial());
  ThreadPool pool(4);
  const Schedule parallel = pack_subintervals(subs, kCores, items, Exec::on(pool));

  ASSERT_EQ(serial.segments(), parallel.segments());
  for (const Schedule* schedule : {&serial, &parallel}) {
    expect_no_core_collision(*schedule);
    expect_no_intra_task_parallelism(*schedule, items);
    expect_work_conservation(*schedule, subs, items);
  }
}

TEST_P(PackingPropertyTest, FullPipelineValidatesThroughBothPaths) {
  Rng rng(Rng::seed_of("parallel-packing-pipeline", GetParam()));
  WorkloadConfig config;
  config.task_count = 6 + GetParam() % 20;
  const TaskSet tasks = generate_workload(config, rng);
  const PowerModel power(3.0, 0.05);

  const PipelineResult serial = run_pipeline(tasks, kCores, power);
  ThreadPool pool(4);
  const PipelineResult parallel = run_pipeline(tasks, kCores, power, Exec::on(pool));

  for (const PipelineResult* result : {&serial, &parallel}) {
    for (const MethodResult* m : {&result->even, &result->der}) {
      const ValidationReport inter = m->intermediate_schedule.validate(tasks, 1e-5);
      EXPECT_TRUE(inter.ok) << (inter.violations.empty() ? "" : inter.violations.front());
      const ValidationReport final_r = m->final_schedule.validate(tasks, 1e-5);
      EXPECT_TRUE(final_r.ok) << (final_r.violations.empty() ? "" : final_r.violations.front());
    }
  }
  ASSERT_EQ(serial.der.final_schedule.segments(), parallel.der.final_schedule.segments());
  ASSERT_EQ(serial.even.final_schedule.segments(), parallel.even.final_schedule.segments());
}

/// `pack_final`'s items for subinterval `j`, spelled out independently.
std::vector<PackItem> final_items(const SubintervalDecomposition& subs, const FinalPlan& plan,
                                  std::size_t j) {
  std::vector<PackItem> items;
  for (const TaskId id : subs[j].overlapping) {
    const auto i = static_cast<std::size_t>(id);
    const double budget = plan.availability(i, j);
    if (budget <= 0.0) continue;
    const double time = std::min(budget * plan.refinement.scale[i], subs[j].length());
    if (time > 0.0) items.push_back({id, time, plan.refinement.frequency[i]});
  }
  return items;
}

TEST_P(PackingPropertyTest, FusedPackEqualsPackThenCoalesce) {
  Rng rng(Rng::seed_of("fused-packing", GetParam()));
  WorkloadConfig config;
  // One larger set is big enough to pack on the pool at all, and spans
  // several of the pooled path's packing waves.
  config.task_count = GetParam() == 0 ? 1000 : 6 + GetParam() % 30;
  const TaskSet tasks = generate_workload(config, rng);
  const PowerModel power(3.0, 0.05);
  const SubintervalDecomposition subs(tasks);
  const IdealCase ideal(tasks, power);
  const FinalPlan plan =
      plan_final(tasks, subs, kCores, power, ideal, AllocationMethod::kDer, Exec::serial());
  const MethodResult method =
      schedule_with_method(tasks, subs, kCores, power, ideal, AllocationMethod::kDer);

  std::vector<std::pair<std::size_t, std::size_t>> windows = {{0, subs.size()}};
  for (int w = 0; w < 4; ++w) {
    const std::size_t begin = rng.uniform_index(subs.size());
    windows.emplace_back(begin, begin + 1 + rng.uniform_index(subs.size() - begin));
  }
  std::vector<std::vector<PackItem>> pieces(subs.size());
  for (const IntermediatePiece& p : method.intermediate_pieces) {
    pieces[p.subinterval].push_back({p.task, p.time, p.frequency});
  }
  Schedule intermediate = pack_subintervals(subs, kCores, pieces, Exec::serial());
  intermediate.coalesce();
  ASSERT_EQ(method.intermediate_schedule.segments(), intermediate.segments());

  ThreadPool two(2);
  ThreadPool eight(8);
  for (const auto& [begin, end] : windows) {
    SCOPED_TRACE(::testing::Message() << "window [" << begin << ", " << end << ")");
    std::vector<std::vector<PackItem>> items(subs.size());
    for (std::size_t j = begin; j < end; ++j) items[j] = final_items(subs, plan, j);
    Schedule expected = pack_subintervals(subs, kCores, items, Exec::serial());
    expected.coalesce();
    for (const Exec& exec : {Exec::serial(), Exec::on(two), Exec::on(eight)}) {
      const Schedule fused =
          pack_final(subs, kCores, plan.availability, plan.refinement, begin, end, exec);
      ASSERT_EQ(fused.segments(), expected.segments());
    }
  }
  for (ThreadPool* pool : {&two, &eight}) {
    const MethodResult pooled = schedule_with_method(tasks, subs, kCores, power, ideal,
                                                     AllocationMethod::kDer, Exec::on(*pool));
    ASSERT_EQ(pooled.intermediate_schedule.segments(), intermediate.segments());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackingPropertyTest,
                         ::testing::Range(std::uint64_t{0}, std::uint64_t{12}));

}  // namespace
}  // namespace easched
