// `Schedule::validate` against an oracle: the validator as it was when its
// start order came from a stable 64-bit LSD radix sort of (start key,
// index) pairs. The bucketed start order must be the same total order —
// ties by index, −0 before +0 — so on any schedule the two must return the
// same `ok` and the same violations in the same order. The schedules mix
// tied starts, signed zeros and one far outlier, with core overlaps, task
// self-overlaps, window violations, under-service, unknown tasks and cores
// out of range injected at random.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "easched/common/math.hpp"
#include "easched/common/radix.hpp"
#include "easched/common/rng.hpp"
#include "easched/sched/pipeline.hpp"
#include "easched/sched/schedule.hpp"
#include "easched/tasksys/workload.hpp"

namespace easched {
namespace {

std::string describe(const Segment& s) {
  std::ostringstream os;
  os << "task " << s.task << " on core " << s.core << " [" << s.start << ", " << s.end << ") @ f="
     << s.frequency;
  return os.str();
}

/// The radix-ordered validator, kept verbatim as the reference.
ValidationReport oracle_validate(const Schedule& schedule, const TaskSet& tasks,
                                 double work_tol = 1e-6, double time_tol = 1e-7) {
  ValidationReport report;
  const std::vector<Segment>& segs = schedule.segments();
  const int core_count = schedule.core_count();
  std::vector<double> done(tasks.size(), 0.0);
  for (const Segment& s : segs) {
    if (s.task < 0 || static_cast<std::size_t>(s.task) >= tasks.size()) {
      report.fail("segment references unknown " + describe(s));
      continue;
    }
    if (s.core < 0 || s.core >= core_count) {
      report.fail("segment uses core outside [0, m): " + describe(s));
    }
    const Task& t = tasks.at(s.task);
    if (!geq_tol(s.start, t.release, time_tol)) {
      report.fail("segment starts before release: " + describe(s));
    }
    if (!leq_tol(s.end, t.deadline, time_tol)) {
      report.fail("segment ends after deadline: " + describe(s));
    }
    done[static_cast<std::size_t>(s.task)] += s.work();
  }
  std::vector<std::pair<std::uint64_t, std::uint32_t>> order;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> swap;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    order.push_back({ordered_double_key(segs[i].start), static_cast<std::uint32_t>(i)});
  }
  radix_sort_keys(order, swap);
  std::vector<const Segment*> last_on_core(static_cast<std::size_t>(std::max(core_count, 0)),
                                           nullptr);
  std::vector<const Segment*> last_of_task(tasks.size(), nullptr);
  std::vector<std::pair<CoreId, std::string>> core_failures;
  std::vector<std::pair<TaskId, std::string>> task_failures;
  for (const auto& [key, index] : order) {
    const Segment& s = segs[index];
    if (s.core >= 0 && s.core < core_count) {
      const Segment*& last = last_on_core[static_cast<std::size_t>(s.core)];
      if (last != nullptr && s.start < last->end - time_tol) {
        core_failures.emplace_back(s.core,
                                   "core overlap: " + describe(*last) + " vs " + describe(s));
      }
      last = &s;
    }
    if (s.task >= 0 && static_cast<std::size_t>(s.task) < tasks.size()) {
      const Segment*& last = last_of_task[static_cast<std::size_t>(s.task)];
      if (last != nullptr && s.start < last->end - time_tol) {
        task_failures.emplace_back(s.task,
                                   "task self-overlap: " + describe(*last) + " vs " + describe(s));
      }
      last = &s;
    }
  }
  std::stable_sort(core_failures.begin(), core_failures.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [core, message] : core_failures) report.fail(std::move(message));
  std::stable_sort(task_failures.begin(), task_failures.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [task, message] : task_failures) report.fail(std::move(message));
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const double required = tasks[i].work;
    if (done[i] < required * (1.0 - work_tol) - work_tol) {
      std::ostringstream os;
      os << "task " << i << " completes " << done[i] << " of required " << required;
      report.fail(os.str());
    }
  }
  return report;
}

void expect_same_report(const Schedule& schedule, const TaskSet& tasks) {
  const ValidationReport got = schedule.validate(tasks);
  const ValidationReport want = oracle_validate(schedule, tasks);
  ASSERT_EQ(got.ok, want.ok);
  ASSERT_EQ(got.violations.size(), want.violations.size());
  for (std::size_t k = 0; k < want.violations.size(); ++k) {
    ASSERT_EQ(got.violations[k], want.violations[k]) << "violation " << k;
  }
}

/// A random schedule over `tasks`: starts drawn from a coarse grid (so many
/// tie), with signed zeros, and optionally one start far past the rest.
/// Segments land on random cores, so cores and tasks overlap; some leave
/// their task's window, a few name an unknown task or a core out of range,
/// and work falls short for most tasks.
Schedule random_schedule(Rng& rng, const TaskSet& tasks, int cores, std::size_t count,
                         bool outlier) {
  std::vector<Segment> segs;
  segs.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    Segment s;
    s.task = static_cast<TaskId>(rng.uniform_index(tasks.size() + (k % 97 == 3 ? 2 : 0)));
    s.core = static_cast<CoreId>(rng.uniform_index(static_cast<std::size_t>(cores) +
                                                   (k % 89 == 5 ? 1 : 0)));
    const double pick = rng.uniform();
    if (pick < 0.1) {
      s.start = rng.uniform() < 0.5 ? -0.0 : 0.0;
    } else if (pick < 0.2) {
      s.start = -0.25 * static_cast<double>(rng.uniform_index(4));
    } else {
      s.start = 0.5 * static_cast<double>(rng.uniform_index(400));
    }
    s.end = s.start + 0.25 + 0.25 * static_cast<double>(rng.uniform_index(8));
    s.frequency = 0.5 + rng.uniform();
    segs.push_back(s);
  }
  if (outlier && !segs.empty()) {
    Segment& far = segs[static_cast<std::size_t>(rng.uniform_index(segs.size()))];
    far.start = 1e15;
    far.end = 1e15 + 1.0;
  }
  return Schedule(cores, std::move(segs));
}

TaskSet oracle_tasks(Rng& rng, std::size_t n) {
  std::vector<Task> tasks;
  for (std::size_t i = 0; i < n; ++i) {
    const double release = -1.0 + 0.5 * static_cast<double>(rng.uniform_index(100));
    const double window = 5.0 + 0.5 * static_cast<double>(rng.uniform_index(200));
    tasks.push_back({release, release + window, 1.0 + 10.0 * rng.uniform()});
  }
  return TaskSet(std::move(tasks));
}

TEST(ValidateOrder, RandomSchedulesMatchTheRadixOracle) {
  for (std::size_t seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(Rng::seed_of("validate-order", seed));
    const TaskSet tasks = oracle_tasks(rng, 1 + seed % 40);
    const int cores = 1 + static_cast<int>(seed % 6);
    const std::size_t count = 1 + static_cast<std::size_t>(rng.uniform_index(300));
    expect_same_report(random_schedule(rng, tasks, cores, count, seed % 3 == 0), tasks);
    if (HasFatalFailure()) return;
  }
}

TEST(ValidateOrder, SignedZeroAndTiedStartsKeepIndexOrder) {
  // Task 0 may start at −0 or +0; tasks overlap on one core so every pair
  // reports, and the reported pairs spell out the start order used.
  const TaskSet tasks({{-1.0, 10.0, 100.0}, {-1.0, 10.0, 100.0}, {-1.0, 10.0, 100.0}});
  const Schedule schedule(1, {{0, 0, 0.0, 1.0, 1.0},
                              {1, 0, -0.0, 1.0, 1.0},
                              {2, 0, 0.0, 1.0, 1.0},
                              {0, 0, -0.0, 2.0, 1.0},
                              {1, 0, 0.5, 2.0, 1.0}});
  expect_same_report(schedule, tasks);
  const ValidationReport report = schedule.validate(tasks);
  ASSERT_FALSE(report.ok);
  ASSERT_GE(report.violations.size(), 1u);
  // −0 precedes +0, and among the −0 starts index 1 comes before index 3.
  EXPECT_EQ(report.violations[0].find("core overlap: task 1 on core 0 [-0, 1)"), 0u)
      << report.violations[0];
}

TEST(ValidateOrder, ServedPlansMatchTheOracle) {
  for (std::size_t seed = 0; seed < 10; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(Rng::seed_of("validate-order-plans", seed));
    WorkloadConfig config;
    config.task_count = 20 + 10 * seed;
    const TaskSet tasks = generate_workload(config, rng);
    const Schedule plan = run_pipeline(tasks, 1 + static_cast<int>(seed % 4), PowerModel(3.0, 0.1))
                              .der.final_schedule;
    ASSERT_TRUE(plan.validate(tasks).ok);
    expect_same_report(plan, tasks);
    if (HasFatalFailure()) return;
  }
}

// One start far past the rest stretches the span, so nearly every segment
// lands in one bucket; the comparison sort there keeps the order exact and
// the cost O(n log n). The segments are listed latest start first, so an
// insertion sort of that bucket would make some 10^10 moves. They tile
// four cores without overlap, so the report is short.
TEST(ValidateOrder, FarOutlierStaysFastAndExact) {
  constexpr std::size_t kSegments = 200000;
  constexpr std::size_t kTasks = 50;
  const TaskSet tasks(std::vector<Task>(kTasks, Task{0.0, 2e15, 1.0}));
  std::vector<Segment> segs;
  for (std::size_t k = 0; k < kSegments; ++k) {
    const double start = static_cast<double>(k / 4);
    segs.push_back({static_cast<TaskId>(k % kTasks), static_cast<CoreId>(k % 4), start,
                    start + 0.5, 1.0});
  }
  segs[kSegments / 2].start = 1e15;
  segs[kSegments / 2].end = 1e15 + 0.5;
  std::reverse(segs.begin(), segs.end());
  const Schedule schedule(4, std::move(segs));
  const auto begin = std::chrono::steady_clock::now();
  const ValidationReport got = schedule.validate(tasks);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
  EXPECT_LT(seconds, 20.0);
  const ValidationReport want = oracle_validate(schedule, tasks);
  ASSERT_EQ(got.ok, want.ok);
  ASSERT_EQ(got.violations, want.violations);
  EXPECT_TRUE(got.ok);
}

}  // namespace
}  // namespace easched
