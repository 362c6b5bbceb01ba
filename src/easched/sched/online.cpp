#include "easched/sched/online.hpp"

#include <algorithm>

#include "easched/common/contracts.hpp"
#include "easched/common/math.hpp"
#include "easched/parallel/exec.hpp"
#include "easched/sched/ideal.hpp"
#include "easched/sched/pipeline.hpp"
#include "easched/solver/yds.hpp"
#include "easched/tasksys/subintervals.hpp"

namespace easched {

namespace {

/// Tasks alive at time `now`: released, unfinished, deadline ahead.
struct LiveSet {
  std::vector<Task> tasks;        ///< clipped windows, remaining work
  std::vector<TaskId> original;   ///< mapping back to the arrival trace
};

LiveSet collect_live(const TaskSet& all, const std::vector<double>& remaining, double now) {
  LiveSet live;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].release > now + 1e-12) continue;      // not yet revealed
    if (remaining[i] <= 1e-9 * all[i].work) continue;  // done
    if (all[i].deadline <= now + 1e-12) continue;    // window closed
    Task t;
    t.release = std::max(now, all[i].release);
    t.deadline = all[i].deadline;
    t.work = remaining[i];
    live.tasks.push_back(t);
    live.original.push_back(static_cast<TaskId>(i));
  }
  return live;
}

}  // namespace

OnlineResult schedule_online(const TaskSet& tasks, int cores, const PowerModel& power,
                             const OnlineOptions& options) {
  EASCHED_EXPECTS(!tasks.empty());
  EASCHED_EXPECTS(cores > 0);

  // Event horizon: distinct release instants, in order.
  std::vector<double> events;
  events.reserve(tasks.size());
  for (const Task& t : tasks) events.push_back(t.release);
  std::sort(events.begin(), events.end());
  events.erase(std::unique(events.begin(), events.end()), events.end());

  OnlineResult result;
  result.schedule.set_core_count(cores);
  std::vector<double> remaining(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) remaining[i] = tasks[i].work;

  for (std::size_t e = 0; e < events.size(); ++e) {
    const double now = events[e];
    const double next = e + 1 < events.size() ? events[e + 1] : kInf;

    const LiveSet live = collect_live(tasks, remaining, now);
    if (live.tasks.empty()) continue;
    ++result.replans;

    // Clairvoyant-restricted plan over the live tasks.
    const TaskSet sub(live.tasks);
    Schedule planned;
    if (options.planner == OnlinePlanner::kYds) {
      EASCHED_EXPECTS_MSG(cores == 1, "the YDS (Optimal Available) planner is uniprocessor");
      planned = yds_schedule(sub).schedule;
    } else {
      const SubintervalDecomposition subs(sub);
      const IdealCase ideal(sub, power);
      planned =
          plan_final(sub, subs, cores, power, ideal, options.method, Exec::serial()).schedule;
    }

    // Execute the plan until the next arrival invalidates it.
    for (const Segment& seg : planned.segments()) {
      const double start = seg.start;
      const double end = std::min(seg.end, next);
      if (end - start <= 1e-12) continue;
      const auto orig = live.original[static_cast<std::size_t>(seg.task)];
      result.schedule.add({orig, seg.core, start, end, seg.frequency});
      remaining[static_cast<std::size_t>(orig)] -= seg.frequency * (end - start);
    }
  }

  result.schedule.coalesce();
  result.energy = result.schedule.energy(power);
  result.unfinished.resize(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    result.unfinished[i] = std::max(0.0, remaining[i]);
  }
  return result;
}

OnlineResult schedule_online_adaptive(const TaskSet& tasks,
                                      const std::vector<double>& actual_work, int cores,
                                      const PowerModel& power, const OnlineOptions& options) {
  EASCHED_EXPECTS(!tasks.empty());
  EASCHED_EXPECTS(cores > 0);
  EASCHED_EXPECTS(actual_work.size() == tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EASCHED_EXPECTS_MSG(actual_work[i] > 0.0 && actual_work[i] <= tasks[i].work * (1.0 + 1e-9),
                        "actual work must be in (0, C_i]");
  }

  std::vector<double> releases;
  releases.reserve(tasks.size());
  for (const Task& t : tasks) releases.push_back(t.release);
  std::sort(releases.begin(), releases.end());
  releases.erase(std::unique(releases.begin(), releases.end()), releases.end());
  std::size_t next_release_idx = 0;

  OnlineResult result;
  result.schedule.set_core_count(cores);
  std::vector<double> believed(tasks.size());  // WCET-based remaining work
  std::vector<double> actual(actual_work);     // true remaining work
  for (std::size_t i = 0; i < tasks.size(); ++i) believed[i] = tasks[i].work;

  double now = releases.front();
  const double work_tol = 1e-9;

  // Each loop iteration: plan from `now`, execute until the next release or
  // the first early completion, whichever comes first.
  for (std::size_t guard = 0; guard < 4 * tasks.size() + 8; ++guard) {
    while (next_release_idx < releases.size() && releases[next_release_idx] <= now + 1e-12) {
      ++next_release_idx;
    }
    const double next_release =
        next_release_idx < releases.size() ? releases[next_release_idx] : kInf;

    // Believe WCET remaining; a task is live while its *actual* work is
    // unfinished (completion reveals the truth).
    std::vector<Task> live_tasks;
    std::vector<TaskId> original;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (tasks[i].release > now + 1e-12) continue;
      if (actual[i] <= work_tol * tasks[i].work) continue;
      if (tasks[i].deadline <= now + 1e-12) continue;
      live_tasks.push_back({std::max(now, tasks[i].release), tasks[i].deadline,
                            std::max(believed[i], work_tol)});
      original.push_back(static_cast<TaskId>(i));
    }
    if (live_tasks.empty()) {
      if (next_release_idx >= releases.size()) break;  // all work done
      now = next_release;
      continue;
    }
    ++result.replans;

    const TaskSet sub(live_tasks);
    const SubintervalDecomposition subs(sub);
    const IdealCase ideal(sub, power);
    const Schedule planned =
        plan_final(sub, subs, cores, power, ideal, options.method, Exec::serial()).schedule;

    // Sweep the plan's breakpoints; stop at the first actual completion.
    std::vector<double> breakpoints{now};
    for (const Segment& seg : planned.segments()) {
      if (seg.start > now) breakpoints.push_back(seg.start);
      breakpoints.push_back(seg.end);
    }
    if (std::isfinite(next_release)) breakpoints.push_back(next_release);
    std::sort(breakpoints.begin(), breakpoints.end());
    breakpoints.erase(std::unique(breakpoints.begin(), breakpoints.end()), breakpoints.end());

    double stop_time = std::isfinite(next_release) ? next_release : kInf;
    bool completion_stop = false;
    double plan_end = now;
    for (const Segment& seg : planned.segments()) plan_end = std::max(plan_end, seg.end);
    if (!completion_stop && stop_time > plan_end) stop_time = plan_end;

    // Work through windows; inside a window every core runs one segment.
    std::vector<double> window_actual = actual;
    for (std::size_t w = 0; w + 1 < breakpoints.size(); ++w) {
      const double a = breakpoints[w];
      const double b = std::min(breakpoints[w + 1], stop_time);
      if (b <= a + 1e-12) continue;
      if (a >= stop_time) break;
      // Earliest completion inside this window?
      double earliest = kInf;
      for (const Segment& seg : planned.segments()) {
        if (seg.start > a + 1e-12 || seg.end < b - 1e-12) continue;  // not covering window
        const auto orig = static_cast<std::size_t>(original[static_cast<std::size_t>(seg.task)]);
        const double done_here = seg.frequency * (b - a);
        if (window_actual[orig] <= done_here - 1e-12) {
          earliest = std::min(earliest, a + window_actual[orig] / seg.frequency);
        }
      }
      if (earliest < b) {
        stop_time = earliest;
        completion_stop = true;
      }
      const double window_stop = std::min(b, stop_time);
      for (const Segment& seg : planned.segments()) {
        if (seg.start > a + 1e-12 || seg.end < b - 1e-12) continue;
        const auto orig = static_cast<std::size_t>(original[static_cast<std::size_t>(seg.task)]);
        const double dt = std::min(window_stop - a, window_actual[orig] / seg.frequency);
        if (dt <= 1e-12) continue;
        result.schedule.add({static_cast<TaskId>(orig), seg.core, a, a + dt, seg.frequency});
        const double done = seg.frequency * dt;
        window_actual[orig] = std::max(0.0, window_actual[orig] - done);
        believed[orig] = std::max(0.0, believed[orig] - done);
      }
      if (completion_stop) break;
    }
    actual = window_actual;

    if (!std::isfinite(stop_time)) break;
    now = stop_time;
    if (!completion_stop && next_release_idx >= releases.size() && now >= plan_end - 1e-12) {
      break;  // plan ran to the end with no arrivals left
    }
  }

  result.schedule.coalesce();
  result.energy = result.schedule.energy(power);
  result.unfinished.resize(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) result.unfinished[i] = std::max(0.0, actual[i]);
  return result;
}

}  // namespace easched
