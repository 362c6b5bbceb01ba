// Subinterval decomposition: boundaries, overlap sets, heavy/light.

#include <gtest/gtest.h>

#include <algorithm>

#include "easched/common/contracts.hpp"

#include "easched/common/rng.hpp"
#include "easched/parallel/exec.hpp"
#include "easched/tasksys/subintervals.hpp"
#include "easched/tasksys/workload.hpp"

namespace easched {
namespace {

TEST(SubintervalsTest, IntroExampleDecomposition) {
  const TaskSet ts({{0.0, 12.0, 4.0}, {2.0, 10.0, 2.0}, {4.0, 8.0, 4.0}});
  const SubintervalDecomposition subs(ts);
  // Boundaries 0,2,4,8,10,12 -> 5 subintervals.
  ASSERT_EQ(subs.size(), 5u);
  const std::vector<double> expected{0.0, 2.0, 4.0, 8.0, 10.0, 12.0};
  EXPECT_EQ(subs.boundaries(), expected);
  EXPECT_EQ(subs[2].overlapping.size(), 3u);  // [4,8] overlaps all three
  EXPECT_TRUE(subs[2].heavy(2));
  EXPECT_FALSE(subs[2].heavy(3));
}

TEST(SubintervalsTest, SubintervalsTileTheHorizon) {
  Rng rng(Rng::seed_of("subs-tile", 0));
  WorkloadConfig config;
  config.task_count = 25;
  const TaskSet ts = generate_workload(config, rng);
  const SubintervalDecomposition subs(ts);
  EXPECT_DOUBLE_EQ(subs[0].begin, ts.earliest_release());
  EXPECT_DOUBLE_EQ(subs[subs.size() - 1].end, ts.latest_deadline());
  for (std::size_t j = 1; j < subs.size(); ++j) {
    EXPECT_DOUBLE_EQ(subs[j].begin, subs[j - 1].end);
    EXPECT_GT(subs[j].length(), 0.0);
  }
}

TEST(SubintervalsTest, DuplicateBoundariesAreMerged) {
  const TaskSet ts({{0.0, 4.0, 1.0}, {0.0, 4.0, 2.0}, {2.0, 4.0, 1.0}});
  const SubintervalDecomposition subs(ts);
  ASSERT_EQ(subs.size(), 2u);  // boundaries 0, 2, 4
  EXPECT_EQ(subs[0].overlapping.size(), 2u);
  EXPECT_EQ(subs[1].overlapping.size(), 3u);
}

TEST(SubintervalsTest, NearDuplicateBoundariesMergeWithinTolerance) {
  const TaskSet ts({{0.0, 4.0, 1.0}, {1e-13, 4.0, 1.0}});
  const SubintervalDecomposition subs(ts, 1e-12);
  EXPECT_EQ(subs.size(), 1u);
}

TEST(SubintervalsTest, CoveringReturnsTaskWindowTiles) {
  const TaskSet ts({{0.0, 12.0, 4.0}, {2.0, 10.0, 2.0}, {4.0, 8.0, 4.0}});
  const SubintervalDecomposition subs(ts);
  const auto cover1 = subs.covering(ts[1]);  // [2, 10] -> subintervals 1..3
  EXPECT_EQ(cover1, (std::vector<std::size_t>{1, 2, 3}));
  double total = 0.0;
  for (const std::size_t j : cover1) total += subs[j].length();
  EXPECT_DOUBLE_EQ(total, ts[1].window());
}

TEST(SubintervalsTest, OverlapCountsAreConsistentWithCovering) {
  Rng rng(Rng::seed_of("subs-consistency", 4));
  WorkloadConfig config;
  config.task_count = 15;
  const TaskSet ts = generate_workload(config, rng);
  const SubintervalDecomposition subs(ts);
  // Sum over subintervals of |overlapping| equals sum over tasks of
  // |covering(task)|.
  std::size_t by_interval = 0;
  for (std::size_t j = 0; j < subs.size(); ++j) by_interval += subs[j].overlapping.size();
  std::size_t by_task = 0;
  for (const Task& t : ts) by_task += subs.covering(t).size();
  EXPECT_EQ(by_interval, by_task);
}

TEST(SubintervalsTest, IndexAtLocatesTimes) {
  const TaskSet ts({{0.0, 12.0, 4.0}, {2.0, 10.0, 2.0}, {4.0, 8.0, 4.0}});
  const SubintervalDecomposition subs(ts);
  EXPECT_EQ(subs.index_at(0.0), 0u);
  EXPECT_EQ(subs.index_at(3.0), 1u);
  EXPECT_EQ(subs.index_at(4.0), 2u);
  EXPECT_EQ(subs.index_at(12.0), subs.size() - 1);  // right endpoint
  EXPECT_THROW(subs.index_at(-1.0), ContractViolation);
  EXPECT_THROW(subs.index_at(13.0), ContractViolation);
}

TEST(SubintervalsTest, MaxOverlapMatchesBruteForce) {
  Rng rng(Rng::seed_of("subs-max-overlap", 9));
  WorkloadConfig config;
  config.task_count = 30;
  const TaskSet ts = generate_workload(config, rng);
  const SubintervalDecomposition subs(ts);
  std::size_t brute = 0;
  for (std::size_t j = 0; j < subs.size(); ++j) {
    brute = std::max(brute, ts.live_during(subs[j].begin, subs[j].end).size());
  }
  EXPECT_EQ(subs.max_overlap(), brute);
}

TEST(SubintervalsTest, RejectsEmptyTaskSet) {
  const TaskSet empty;
  EXPECT_THROW(SubintervalDecomposition{empty}, ContractViolation);
}

TEST(SubintervalsTest, CoveringMatchesLinearScanOracle) {
  // `covering`/`covering_range` run two binary searches on the boundary
  // array; this pins them to the linear-scan definition (every subinterval
  // with begin ≥ release and end ≤ deadline) on randomized sets and probes.
  for (std::size_t trial = 0; trial < 20; ++trial) {
    Rng rng(Rng::seed_of("subs-covering-oracle", trial));
    WorkloadConfig config;
    config.task_count = 3 + rng.uniform_index(30);
    const TaskSet ts = generate_workload(config, rng);
    const SubintervalDecomposition subs(ts);

    const auto oracle = [&](const Task& probe) {
      std::vector<std::size_t> out;
      for (std::size_t j = 0; j < subs.size(); ++j) {
        if (probe.release <= subs[j].begin && probe.deadline >= subs[j].end) out.push_back(j);
      }
      return out;
    };
    const auto check = [&](const Task& probe) {
      const std::vector<std::size_t> expected = oracle(probe);
      ASSERT_EQ(subs.covering(probe), expected);
      const SubRange range = subs.covering_range(probe);
      ASSERT_EQ(range.count, expected.size());
      if (!expected.empty()) {
        ASSERT_EQ(range.first, expected.front());
      }
    };

    // Member tasks (their precomputed ranges must agree too) ...
    for (std::size_t i = 0; i < ts.size(); ++i) {
      check(ts[i]);
      const SubRange range = subs.range_of(static_cast<TaskId>(i));
      const SubRange recomputed = subs.covering_range(ts[i]);
      ASSERT_EQ(range.first, recomputed.first);
      ASSERT_EQ(range.count, recomputed.count);
    }
    // ... and random non-member probes, including windows off both ends of
    // the horizon and windows narrower than any subinterval.
    const double lo = ts.earliest_release() - 5.0;
    const double hi = ts.latest_deadline() + 5.0;
    for (int probe = 0; probe < 50; ++probe) {
      const double a = rng.uniform(lo, hi);
      const double b = rng.uniform(lo, hi);
      check(Task{std::min(a, b), std::max(a, b) + 1e-9, 1.0});
    }
  }
}

TEST(SubintervalsTest, OverlapArenaIsExactlySizedFromSweepCounts) {
  // The CSR arena is sized once from the sweep counts: its length must equal
  // the final offset exactly (no slack, no reallocation headroom), every
  // subinterval's overlap span must view the arena in place, and the
  // per-task ranges must account for every stored id.
  Rng rng(Rng::seed_of("subs-arena", 1));
  WorkloadConfig config;
  config.task_count = 40;
  const TaskSet ts = generate_workload(config, rng);
  const SubintervalDecomposition subs(ts);

  const auto& offsets = subs.offsets();
  ASSERT_EQ(offsets.size(), subs.size() + 1);
  EXPECT_EQ(offsets.front(), 0u);
  EXPECT_EQ(subs.overlap_arena().size(), offsets.back());
  EXPECT_EQ(subs.overlap_mass(), offsets.back());

  const TaskId* arena_begin = subs.overlap_arena().data();
  std::size_t by_interval = 0;
  for (std::size_t j = 0; j < subs.size(); ++j) {
    ASSERT_LE(offsets[j], offsets[j + 1]);
    const auto span = subs[j].overlapping;
    ASSERT_EQ(span.size(), offsets[j + 1] - offsets[j]);
    // Zero-copy: the span points into the shared arena, not a private copy.
    ASSERT_EQ(span.data(), arena_begin + offsets[j]);
    ASSERT_TRUE(std::is_sorted(span.begin(), span.end()));
    by_interval += span.size();
  }
  std::size_t by_task = 0;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    by_task += subs.range_of(static_cast<TaskId>(i)).count;
  }
  EXPECT_EQ(by_interval, subs.overlap_mass());
  EXPECT_EQ(by_task, subs.overlap_mass());
}

// Field-by-field equality of a spliced decomposition with a scratch build.
void expect_same_decomposition(const SubintervalDecomposition& got, const TaskSet& tasks) {
  const SubintervalDecomposition want(tasks);
  ASSERT_EQ(got.boundaries(), want.boundaries());
  ASSERT_EQ(got.offsets(), want.offsets());
  ASSERT_TRUE(std::equal(got.overlap_arena().begin(), got.overlap_arena().end(),
                         want.overlap_arena().begin(), want.overlap_arena().end()));
  ASSERT_EQ(got.task_count(), tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    ASSERT_EQ(got.range_of(static_cast<TaskId>(i)).first,
              want.range_of(static_cast<TaskId>(i)).first);
    ASSERT_EQ(got.range_of(static_cast<TaskId>(i)).count,
              want.range_of(static_cast<TaskId>(i)).count);
  }
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t j = 0; j < want.size(); ++j) {
    ASSERT_EQ(got[j].begin, want[j].begin);
    ASSERT_EQ(got[j].end, want[j].end);
    ASSERT_EQ(got[j].overlapping.data(), got.overlap_arena().data() + got.offsets()[j]);
    ASSERT_EQ(got[j].overlapping.size(), want[j].overlapping.size());
  }
}

// `append_task` / `remove_task` against scratch builds. Windows on a coarse
// integer grid share boundaries often, land on and beyond both horizon
// edges, and sit next to each other, so every split, merge and edge case
// comes up: a shared value only changes multiplicity, a fresh one splits a
// column or opens an edge column, and a vanishing one merges or drops one.
TEST(SubintervalsTest, SpliceMatchesScratchBuild) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(Rng::seed_of("subs-splice", seed));
    const auto draw = [&] {
      const double release = static_cast<double>(rng.uniform_index(12));
      const double width = 1.0 + static_cast<double>(rng.uniform_index(4));
      return Task{release, release + width, 1.0};
    };
    std::vector<Task> live = {draw(), draw()};
    SubintervalDecomposition subs;
    subs.assign(TaskSet(live), SubintervalDecomposition(TaskSet(live)).boundaries(),
                Exec::serial());
    for (std::size_t op = 0; op < 60; ++op) {
      if (live.size() <= 1 || rng.uniform() < 0.55) {
        live.push_back(draw());
        subs.append_task(live.back());
      } else {
        const std::size_t victim = static_cast<std::size_t>(rng.uniform_index(live.size()));
        const Task gone = live[victim];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
        const auto shared = [&](double value) {
          return std::any_of(live.begin(), live.end(), [&](const Task& t) {
            return t.release == value || t.deadline == value;
          });
        };
        subs.remove_task(static_cast<TaskId>(victim), !shared(gone.release),
                         !shared(gone.deadline));
      }
      expect_same_decomposition(subs, TaskSet(live));
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace easched
