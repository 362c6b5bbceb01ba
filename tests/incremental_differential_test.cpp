// Differential test of incremental delta replanning: 25 seeded workloads,
// random admit/remove sequences of 50+ ops, pools of 1, 2 and 8 threads.
// After every op the delta planner's plan must be bit-identical to the
// from-scratch DER pipeline — availability values and cached sums, energy
// fold, segment list — and both schedules must pass the validator. A second
// battery replays the same sequences on different pool sizes and asserts the
// delta plans agree across pools step for step (the determinism contract of
// `parallel/exec.hpp` extended to the splice path). A third replays a
// constant-density stream, where each op dirties only a few columns.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "differential.hpp"
#include "easched/parallel/exec.hpp"
#include "easched/parallel/thread_pool.hpp"
#include "easched/sched/incremental.hpp"

namespace easched {
namespace {

using differential::ReplayStats;
using differential::replay_admit_remove;

constexpr std::size_t kWorkloads = 25;
constexpr std::size_t kOps = 50;

std::size_t base_tasks_for(std::size_t index) {
  const std::size_t sizes[] = {5, 12, 20, 33, 40};
  return sizes[index % 5];
}

int cores_for(std::size_t index) {
  const int cores[] = {1, 2, 4, 8};
  return cores[index % 4];
}

TEST(IncrementalDifferential, SerialSequencesMatchFromScratch) {
  for (std::size_t w = 0; w < kWorkloads; ++w) {
    SCOPED_TRACE(w);
    const ReplayStats stats = replay_admit_remove("incremental-differential", w,
                                                  base_tasks_for(w), kOps, cores_for(w),
                                                  Exec::serial());
    if (HasFatalFailure()) return;
    ASSERT_EQ(stats.steps, kOps + 1);
    // The first quote always rebuilds (no cached plan); nearly every later
    // one must ride the single-op splice path, or the test is not actually
    // exercising the delta code it claims to.
    ASSERT_GE(stats.delta_steps * 10, (stats.steps - 1) * 9);
    ASSERT_GE(stats.single_ops, stats.delta_steps - 1);
  }
}

TEST(IncrementalDifferential, PooledSequencesMatchFromScratch) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    const Exec exec = Exec::on(pool);
    for (std::size_t w = 0; w < kWorkloads; ++w) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads << " workload=" << w);
      const ReplayStats stats = replay_admit_remove("incremental-differential", w,
                                                    base_tasks_for(w), kOps, cores_for(w), exec);
      if (HasFatalFailure()) return;
      ASSERT_EQ(stats.steps, kOps + 1);
      ASSERT_GE(stats.delta_steps * 10, (stats.steps - 1) * 9);
    }
  }
}

// Constant-density replay, shaped like the service's traffic and
// `perf_pipeline`'s stream rows: releases advance with a clock, so a window
// holds a handful of tasks however many are live, arrivals land at the
// front of the horizon and completions mostly take the oldest task. Most of
// an op's columns stay clean here, so this exercises the local splice —
// clean rows and sums kept in place, block copies of untouched tasks, cut
// expansion — where the fixed-horizon replays above dirty nearly every
// column.
TEST(IncrementalDifferential, ConstantDensityStreamMatchesFromScratch) {
  constexpr std::size_t kSeeds = 6;
  constexpr std::size_t kBase = 120;
  constexpr std::size_t kStreamOps = 80;
  constexpr double kSpacing = 10.0;  // mean release gap, as in `make_stream`
  ThreadPool pool(2);
  for (const Exec& exec : {Exec::serial(), Exec::on(pool)}) {
    for (std::size_t w = 0; w < kSeeds; ++w) {
      SCOPED_TRACE(::testing::Message() << "parallel=" << exec.parallel(2) << " seed=" << w);
      Rng rng(Rng::seed_of("incremental-stream", w));
      WorkloadConfig config;
      config.task_count = kBase;
      config.release_hi = kSpacing * static_cast<double>(kBase);
      const TaskSet base = generate_workload(config, rng);
      std::vector<Task> live(base.begin(), base.end());
      double clock = config.release_hi;

      const PowerModel power(3.0, 0.05);
      DeltaOptions options;
      options.cores = cores_for(w);
      DeltaPlanner planner(power, options);
      ReplayStats stats;
      differential::expect_step_identical(planner, TaskSet(live), power, options.cores, exec,
                                          stats);
      if (HasFatalFailure()) return;
      for (std::size_t op = 0; op < kStreamOps; ++op) {
        if (live.size() <= 1 || rng.uniform() < 0.55) {
          WorkloadConfig one;
          one.task_count = 1;
          one.release_lo = clock;
          one.release_hi = clock + kSpacing;
          live.push_back(generate_workload(one, rng)[0]);
          clock += kSpacing;
        } else {
          const auto oldest = std::min_element(
              live.begin(), live.end(),
              [](const Task& a, const Task& b) { return a.release < b.release; });
          const auto victim =
              rng.uniform() < 0.7
                  ? oldest
                  : live.begin() + static_cast<std::ptrdiff_t>(rng.uniform_index(live.size()));
          live.erase(victim);
        }
        differential::expect_step_identical(planner, TaskSet(live), power, options.cores, exec,
                                            stats);
        if (HasFatalFailure()) return;
      }
      ASSERT_EQ(stats.delta_steps, stats.steps - 1);
      // Local: the ops recompute well under a third of the columns they see.
      ASSERT_LT(stats.dirty_columns * 3, stats.delta_columns);
    }
  }
}

// Replay one sequence under several pool sizes, recording the delta plan at
// every step, and require the recorded plans to agree exactly across pools:
// the splice path must keep the kernel's bit-identical-at-any-pool-size
// contract on its own output, not merely agree with some per-pool reference.
TEST(IncrementalDifferential, DeltaPlansBitIdenticalAcrossPools) {
  constexpr std::size_t kSeeds = 5;
  for (std::size_t w = 0; w < kSeeds; ++w) {
    SCOPED_TRACE(w);
    // Build the shared op sequence once (same draws for every pool size).
    Rng rng(Rng::seed_of("incremental-cross-pool", w));
    WorkloadConfig config;
    config.task_count = base_tasks_for(w);
    const TaskSet base = generate_workload(config, rng);
    std::vector<std::vector<Task>> steps;
    std::vector<Task> live(base.begin(), base.end());
    steps.push_back(live);
    for (std::size_t op = 0; op < kOps; ++op) {
      if (live.size() <= 1 || rng.uniform() < 0.6) {
        WorkloadConfig one;
        one.task_count = 1;
        const TaskSet extra = generate_workload(one, rng);
        live.push_back(extra[0]);
      } else {
        const std::size_t victim = static_cast<std::size_t>(rng.uniform_index(live.size()));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      }
      steps.push_back(live);
    }

    const PowerModel power(3.0, 0.05);
    DeltaOptions options;
    options.cores = cores_for(w);

    std::vector<DeltaPlan> reference;
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      const Exec exec = Exec::on(pool);
      DeltaPlanner planner(power, options);
      for (std::size_t s = 0; s < steps.size(); ++s) {
        const DeltaPlan plan = planner.plan_to(TaskSet(steps[s]), exec);
        if (threads == 1) {
          reference.push_back(plan);
          continue;
        }
        ASSERT_EQ(plan.energy, reference[s].energy)
            << "threads=" << threads << " step=" << s;
        differential::expect_schedule_identical(plan.schedule, reference[s].schedule);
        if (HasFatalFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace easched
