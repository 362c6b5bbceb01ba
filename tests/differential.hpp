#pragma once

/// \file differential.hpp
/// \brief Reusable differential-testing harness for incremental replanning.
///
/// Replays a seeded random admit/remove sequence through two planners at
/// once — the stateful `DeltaPlanner` (splice path) and the stateless
/// from-scratch kernel (`schedule_with_method`) — and asserts after every
/// step that the two plans are *bit-identical*: same decomposition (CSR
/// arena, offsets, per-task ranges), same availability values and cached
/// sums, same refined frequencies and scales, same energy fold, same
/// segment list. Every comparison is exact (`==`), never a tolerance: the delta
/// path's contract is exact equality with the from-scratch path, and any
/// drift — a re-associated fold, a re-ordered ration, a lost splice segment
/// — must fail loudly rather than hide inside an epsilon.

#include <gtest/gtest.h>

#include <cstddef>
#include <string_view>
#include <vector>

#include "easched/common/rng.hpp"
#include "easched/parallel/exec.hpp"
#include "easched/power/power_model.hpp"
#include "easched/sched/allocation.hpp"
#include "easched/sched/ideal.hpp"
#include "easched/sched/incremental.hpp"
#include "easched/sched/pipeline.hpp"
#include "easched/sched/schedule.hpp"
#include "easched/tasksys/subintervals.hpp"
#include "easched/tasksys/task_set.hpp"
#include "easched/tasksys/workload.hpp"

namespace easched {
namespace differential {

/// What a replay did, for assertions on top of the per-step equality checks.
struct ReplayStats {
  std::size_t steps = 0;        ///< plan_to calls compared
  std::size_t delta_steps = 0;  ///< steps served by the splice path
  std::size_t single_ops = 0;   ///< single-task ops applied across all steps
  std::size_t full_rebuilds = 0;
  std::size_t dirty_columns = 0;  ///< availability columns recomputed by delta steps
  std::size_t delta_columns = 0;  ///< columns of the plans those steps served
};

/// Exact equality of a delta-planner availability against the from-scratch
/// one: values row by row, cached row sums, cached column sums.
inline void expect_availability_identical(const Availability& got, const Availability& want) {
  ASSERT_EQ(got.task_count(), want.task_count());
  ASSERT_EQ(got.subinterval_count(), want.subinterval_count());
  for (std::size_t i = 0; i < want.task_count(); ++i) {
    const SubRange gr = got.task_range(i);
    const SubRange wr = want.task_range(i);
    ASSERT_EQ(gr.first, wr.first) << "row support of task " << i;
    ASSERT_EQ(gr.count, wr.count) << "row support of task " << i;
    const auto grow = got.row(i);
    const auto wrow = want.row(i);
    for (std::size_t k = 0; k < wrow.size(); ++k) {
      ASSERT_EQ(grow[k], wrow[k]) << "cell (" << i << ", " << wr.first + k << ")";
    }
    ASSERT_EQ(got.row_sum(i), want.row_sum(i)) << "row sum of task " << i;
  }
  for (std::size_t j = 0; j < want.subinterval_count(); ++j) {
    ASSERT_EQ(got.column_sum(j), want.column_sum(j)) << "column sum of subinterval " << j;
  }
}

/// Exact equality of two schedules: same segment count, same segments in the
/// same order (the packer's grouped order is deterministic, so the delta
/// splice must reproduce it verbatim).
inline void expect_schedule_identical(const Schedule& got, const Schedule& want) {
  ASSERT_EQ(got.core_count(), want.core_count());
  ASSERT_EQ(got.segments().size(), want.segments().size());
  for (std::size_t s = 0; s < want.segments().size(); ++s) {
    ASSERT_EQ(got.segments()[s], want.segments()[s]) << "segment " << s;
  }
}

/// Exact equality of the delta planner's spliced decomposition against a
/// from-scratch build: boundaries, CSR offsets and arena, per-task ranges,
/// and every interval's geometry and overlap view (which must point into
/// the planner's own arena at its offsets).
inline void expect_decomposition_identical(const SubintervalDecomposition& got,
                                           const SubintervalDecomposition& want,
                                           std::size_t tasks) {
  ASSERT_EQ(got.boundaries(), want.boundaries());
  ASSERT_EQ(got.offsets(), want.offsets());
  ASSERT_EQ(got.overlap_mass(), want.overlap_mass());
  for (std::size_t k = 0; k < want.overlap_mass(); ++k) {
    ASSERT_EQ(got.overlap_arena()[k], want.overlap_arena()[k]) << "arena slot " << k;
  }
  ASSERT_EQ(got.task_count(), tasks);
  for (std::size_t i = 0; i < tasks; ++i) {
    const SubRange gr = got.range_of(static_cast<TaskId>(i));
    const SubRange wr = want.range_of(static_cast<TaskId>(i));
    ASSERT_EQ(gr.first, wr.first) << "range of task " << i;
    ASSERT_EQ(gr.count, wr.count) << "range of task " << i;
  }
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t j = 0; j < want.size(); ++j) {
    ASSERT_EQ(got[j].begin, want[j].begin) << "subinterval " << j;
    ASSERT_EQ(got[j].end, want[j].end) << "subinterval " << j;
    ASSERT_EQ(got[j].overlapping.data(), got.overlap_arena().data() + got.offsets()[j])
        << "subinterval " << j << " views a stale arena slice";
    ASSERT_EQ(got[j].overlapping.size(), want[j].overlapping.size()) << "subinterval " << j;
  }
}

/// Exact equality of the planner's cached refinement against the one the
/// from-scratch kernel derives from its own availability.
inline void expect_refinement_identical(const FinalRefinement& got, const FinalRefinement& want) {
  ASSERT_EQ(got.total_available, want.total_available);
  ASSERT_EQ(got.frequency, want.frequency);
  ASSERT_EQ(got.scale, want.scale);
  ASSERT_EQ(got.task_energy, want.task_energy);
  ASSERT_EQ(got.energy, want.energy);
}

/// One step of the differential: quote `live` through the delta planner and
/// through the from-scratch DER pipeline, then assert exact agreement and
/// (optionally) validator success.
inline void expect_step_identical(DeltaPlanner& planner, const TaskSet& live,
                                  const PowerModel& power, int cores, const Exec& exec,
                                  ReplayStats& stats, bool validate = true) {
  DeltaOutcome outcome;
  const DeltaPlan got = planner.plan_to(live, exec, &outcome);

  const SubintervalDecomposition subs(live, 1e-12, exec);
  const IdealCase ideal(live, power);
  const MethodResult want =
      schedule_with_method(live, subs, cores, power, ideal, AllocationMethod::kDer, exec);

  ASSERT_EQ(got.energy, want.final_energy) << "energy fold diverged";
  expect_schedule_identical(got.schedule, want.final_schedule);
  expect_availability_identical(planner.availability(), want.availability);
  expect_decomposition_identical(planner.decomposition(), subs, live.size());
  FinalRefinement refined;
  refine_final(live, power, want.availability, exec, refined);
  ASSERT_EQ(refined.frequency, want.final_frequency);
  expect_refinement_identical(planner.refinement(), refined);
  if (validate) {
    const ValidationReport delta_report = got.schedule.validate(live);
    EXPECT_TRUE(delta_report.ok) << (delta_report.violations.empty()
                                         ? "delta plan failed validation"
                                         : delta_report.violations.front());
    const ValidationReport scratch_report = want.final_schedule.validate(live);
    EXPECT_TRUE(scratch_report.ok) << (scratch_report.violations.empty()
                                           ? "from-scratch plan failed validation"
                                           : scratch_report.violations.front());
  }

  ++stats.steps;
  if (outcome.delta) {
    ++stats.delta_steps;
    stats.single_ops += outcome.ops;
    stats.dirty_columns += outcome.dirty_columns;
    stats.delta_columns += subs.size();
  } else {
    ++stats.full_rebuilds;
  }
}

/// Replay a random admit/remove sequence of `op_count` ops over a seeded
/// base workload, differential-checking after every op. Roughly 60% of ops
/// admit a fresh task and 40% remove a random live one (never below one
/// task), so sequences drift across set sizes and exercise both directions.
inline ReplayStats replay_admit_remove(std::string_view seed_tag, std::size_t index,
                                       std::size_t base_tasks, std::size_t op_count, int cores,
                                       const Exec& exec, bool validate = true) {
  Rng rng(Rng::seed_of(seed_tag, index));
  WorkloadConfig config;
  config.task_count = base_tasks;
  const TaskSet base = generate_workload(config, rng);
  std::vector<Task> live(base.begin(), base.end());

  PowerModel power(3.0, 0.05);
  DeltaOptions options;
  options.cores = cores;
  DeltaPlanner planner(power, options);

  ReplayStats stats;
  expect_step_identical(planner, TaskSet(live), power, cores, exec, stats, validate);
  for (std::size_t op = 0; op < op_count; ++op) {
    const bool admit = live.size() <= 1 || rng.uniform() < 0.6;
    if (admit) {
      // A fresh task drawn from the same distribution as the base workload.
      WorkloadConfig one;
      one.task_count = 1;
      const TaskSet extra = generate_workload(one, rng);
      live.push_back(extra[0]);
    } else {
      const std::size_t victim = static_cast<std::size_t>(rng.uniform_index(live.size()));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    expect_step_identical(planner, TaskSet(live), power, cores, exec, stats, validate);
    if (::testing::Test::HasFatalFailure()) return stats;
  }
  return stats;
}

}  // namespace differential
}  // namespace easched
