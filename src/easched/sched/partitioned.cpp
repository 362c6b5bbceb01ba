#include "easched/sched/partitioned.hpp"

#include <algorithm>
#include <numeric>

#include "easched/common/contracts.hpp"
#include "easched/parallel/exec.hpp"
#include "easched/sched/ideal.hpp"
#include "easched/sched/pipeline.hpp"
#include "easched/tasksys/subintervals.hpp"

namespace easched {

namespace {

std::vector<CoreId> assign_cores(const TaskSet& tasks, int cores,
                                 PartitionHeuristic heuristic) {
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return tasks[a].intensity() > tasks[b].intensity();
  });

  std::vector<CoreId> assignment(tasks.size(), 0);
  std::vector<double> load(static_cast<std::size_t>(cores), 0.0);
  for (const std::size_t i : order) {
    CoreId chosen = 0;
    if (heuristic == PartitionHeuristic::kWorstFitDecreasing) {
      for (CoreId c = 1; c < cores; ++c) {
        if (load[static_cast<std::size_t>(c)] < load[static_cast<std::size_t>(chosen)]) {
          chosen = c;
        }
      }
    } else {
      // First-fit decreasing with unit capacity; overflow lands on the
      // least-loaded core (continuous frequencies absorb it).
      chosen = -1;
      for (CoreId c = 0; c < cores; ++c) {
        if (load[static_cast<std::size_t>(c)] + tasks[i].intensity() <= 1.0 + 1e-12) {
          chosen = c;
          break;
        }
      }
      if (chosen < 0) {
        chosen = 0;
        for (CoreId c = 1; c < cores; ++c) {
          if (load[static_cast<std::size_t>(c)] < load[static_cast<std::size_t>(chosen)]) {
            chosen = c;
          }
        }
      }
    }
    assignment[i] = chosen;
    load[static_cast<std::size_t>(chosen)] += tasks[i].intensity();
  }
  return assignment;
}

}  // namespace

PartitionedResult schedule_partitioned(const TaskSet& tasks, int cores,
                                       const PowerModel& power, AllocationMethod method,
                                       PartitionHeuristic heuristic) {
  EASCHED_EXPECTS(!tasks.empty());
  EASCHED_EXPECTS(cores > 0);

  PartitionedResult result;
  result.assignment = assign_cores(tasks, cores, heuristic);
  result.schedule.set_core_count(cores);
  result.core_intensity.assign(static_cast<std::size_t>(cores), 0.0);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    result.core_intensity[static_cast<std::size_t>(result.assignment[i])] +=
        tasks[i].intensity();
  }

  for (CoreId core = 0; core < cores; ++core) {
    std::vector<Task> mine;
    std::vector<TaskId> original;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (result.assignment[i] == core) {
        mine.push_back(tasks[i]);
        original.push_back(static_cast<TaskId>(i));
      }
    }
    if (mine.empty()) continue;

    const TaskSet sub(std::move(mine));
    const SubintervalDecomposition subs(sub);
    const IdealCase ideal(sub, power);
    const FinalPlan per_core = plan_final(sub, subs, 1, power, ideal, method, Exec::serial());
    result.total_energy += per_core.refinement.energy;
    for (const Segment& seg : per_core.schedule.segments()) {
      result.schedule.add({original[static_cast<std::size_t>(seg.task)], core, seg.start,
                           seg.end, seg.frequency});
    }
  }
  result.schedule.coalesce();
  return result;
}

}  // namespace easched
