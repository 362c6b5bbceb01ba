#include "easched/sched/incremental.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <utility>

#include "easched/common/contracts.hpp"
#include "easched/common/math.hpp"
#include "easched/obs/trace.hpp"
#include "easched/parallel/exec.hpp"
#include "easched/sched/pipeline.hpp"

namespace easched {

// ---------------------------------------------------------------------------
// Why the splice is exact (the invariants the code below maintains)
//
// A single-task delta changes the boundary multiset by at most the task's
// two values. Let [t_lo, t_hi] bracket the change: t_lo is the largest
// boundary shared by the old and new arrays at or below the task's release,
// t_hi the smallest shared one at or above its deadline. Then:
//
//  *  every new column outside [t_lo, t_hi] has the same geometry and the
//     same overlap set as its old counterpart (columns left of t_lo keep
//     their index, columns right of t_hi shift uniformly), so the column
//     rationing — a pure function of geometry, membership and the per-task
//     ideal-case values — reproduces its old values bit for bit;
//  *  a task none of whose columns lie in [t_lo, t_hi] (its window ends at
//     or before t_lo, or starts at or after t_hi — the shared-boundary
//     choice of t_lo/t_hi forces one of the two) keeps its availability row,
//     row sum, refined frequency and scale unchanged, so its schedule
//     segments outside the repack window are reproduced exactly;
//  *  so the window's columns are the only ones whose rationing changes:
//     re-rationing them and refolding the rows that cross them gives every
//     from-scratch row sum, and re-refining those rows every frequency and
//     scale;
//  *  the dirty span D1 — the window's columns plus the full live ranges of
//     every task overlapping them — therefore covers every column whose
//     packed segments can differ, and repacking exactly those columns
//     yields the from-scratch schedule.
//
// The schedule splice drops the old segments inside the repack window,
// repacks the window's columns from the fresh state, and re-runs the
// coalescing fold once over old-prefix ++ repacked ++ old-suffix per
// (task, core) group. The fold is a left fold whose merge predicate sees
// only the previous survivor's (end, frequency) and the next segment's
// (start, frequency); final frequencies are per-task constants, so
// refolding a group's already-folded pieces reproduces the from-scratch
// fold exactly — provided no *old* merged segment straddles a cut. The
// expansion loop below moves the cuts outward (always onto old boundary
// values, which no raw segment crosses) until none does.
// ---------------------------------------------------------------------------

DeltaPlanner::DeltaPlanner(PowerModel power, DeltaOptions options)
    : power_(std::move(power)), options_(options) {
  EASCHED_EXPECTS(options_.cores > 0);
  EASCHED_EXPECTS(options_.merge_tol >= 0.0);
}

void DeltaPlanner::invalidate() { has_state_ = false; }

void DeltaPlanner::reserve(std::size_t tasks, std::size_t boundaries, std::size_t overlap_mass) {
  reserve_tasks_ = tasks;
  reserve_bounds_ = boundaries;
  reserve_mass_ = overlap_mass;
  subs_.reserve(tasks, boundaries, overlap_mass);
}

bool DeltaPlanner::insertable(double value) const {
  const std::vector<double>& bv = subs_.boundaries();
  const auto it = std::lower_bound(bv.begin(), bv.end(), value);
  if (it != bv.begin() && value - *(it - 1) <= options_.merge_tol) return false;
  if (it != bv.end() && *it - value <= options_.merge_tol) return false;
  return true;
}

void DeltaPlanner::index_segments() {
  const std::vector<Segment>& segs = schedule_.segments();
  seg_begin_.assign(tasks_.size() + 1, 0);
  for (std::size_t k = 0; k < segs.size(); ++k) {
    EASCHED_ASSERT(k == 0 || segs[k - 1].task <= segs[k].task);
    ++seg_begin_[static_cast<std::size_t>(segs[k].task) + 1];
  }
  for (std::size_t i = 0; i < tasks_.size(); ++i) seg_begin_[i + 1] += seg_begin_[i];
}

void DeltaPlanner::full_rebuild(const TaskSet& live, const Exec& exec) {
  has_state_ = false;  // stays down until every piece of state is consistent
  tasks_.assign(live.begin(), live.end());

  // Rebuild the boundary multiset: sorted distinct values with counts. The
  // set is *clean* when no two distinct values sit within the merge
  // tolerance — exactly the condition under which the decomposition
  // constructor's sort+merge keeps every distinct value, so the array here
  // matches the constructor's output bit for bit and future deltas may
  // splice it. An unclean set pins the planner to full rebuilds (the splice
  // cannot reproduce the merge's keep-first-representative choice).
  std::vector<double> all;
  all.reserve(2 * tasks_.size());
  for (const Task& t : tasks_) {
    all.push_back(t.release);
    all.push_back(t.deadline);
  }
  std::sort(all.begin(), all.end());
  std::vector<double> bv;
  bv.reserve(all.size());
  bound_counts_.clear();
  clean_ = true;
  for (const double v : all) {
    if (!bv.empty() && v == bv.back()) {
      ++bound_counts_.back();
      continue;
    }
    if (!bv.empty() && v - bv.back() <= options_.merge_tol) clean_ = false;
    bv.push_back(v);
    bound_counts_.push_back(1);
  }

  if (clean_) {
    // Room for the deltas that follow, reserved before the spans into the
    // arena are built, so the first deltas splice within capacity instead
    // of regrowing the arena and the intervals. A clean array holds every
    // task's release and deadline, so each task covers past − first − 1
    // subintervals; the reservation is a no-op once capacities suffice.
    std::size_t mass = 0;
    for (const Task& t : tasks_) {
      const auto first = std::lower_bound(bv.begin(), bv.end(), t.release);
      mass += static_cast<std::size_t>(std::upper_bound(first, bv.end(), t.deadline) - first) - 1;
    }
    const auto grown = [](std::size_t size, std::size_t extra) { return size + size / 8 + extra; };
    subs_.reserve(std::max(reserve_tasks_, grown(tasks_.size(), options_.max_ops)),
                  std::max(reserve_bounds_, grown(bv.size(), 2 * options_.max_ops)),
                  std::max(reserve_mass_, grown(mass, 0)));
    subs_.assign(live, bv, exec);
  } else {
    subs_ = SubintervalDecomposition(live, options_.merge_tol, exec);
  }
  ideal_.emplace(live, power_);

  FinalPlan plan = plan_final(live, subs_, options_.cores, power_, *ideal_, options_.method, exec);
  avail_ = std::move(plan.availability);
  refinement_ = std::move(plan.refinement);
  schedule_ = std::move(plan.schedule);
  index_segments();
  has_state_ = true;
}

namespace {

/// Call `fn` on each segment of `run` — one task's segments, ordered by core
/// and then by start — whose interior holds `cut`. A core's segments are
/// disjoint, so at most one per core does: the last one starting below it.
template <typename Fn>
void for_each_straddler(std::span<const Segment> run, double cut, Fn&& fn) {
  const auto start_below = [](const Segment& s, double v) { return s.start < v; };
  for (auto group = run.begin(); group != run.end();) {
    const CoreId core = group->core;
    const auto group_end =
        std::partition_point(group, run.end(), [core](const Segment& s) { return s.core == core; });
    const auto it = std::lower_bound(group, group_end, cut, start_below);
    if (it != group && (it - 1)->end > cut) fn(*(it - 1));
    group = group_end;
  }
}

}  // namespace

void DeltaPlanner::splice(std::size_t lo_idx, std::size_t hi_idx, std::size_t d1_first,
                          std::size_t d1_count, TaskId removed, const Exec& exec,
                          DeltaOutcome& out) {
  const std::size_t n = tasks_.size();
  const std::size_t columns = subs_.size();
  EASCHED_ASSERT(d1_count == 0 || d1_first + d1_count <= columns);
  EASCHED_ASSERT(d1_count > 0 || removed >= 0);
  EASCHED_ASSERT(dirty_.size() == n && subs_.task_count() == n);
  out.dirty_columns += d1_count;

  // --- Availability, in place. Only the window's columns ration anew
  // (outside it geometry, members and their ideal-case values are
  // unchanged), through the allocator's own per-column rule, so the cells
  // and column sums match a from-scratch fill bit for bit; every other
  // cell keeps its value and only the dirty rows' sums refold.
  const std::size_t window = lo_idx < hi_idx ? hi_idx - lo_idx : 0;
  avail_.splice_rows(subs_, dirty_, removed, lo_idx, window);
  exec.loop(window, [&](std::size_t k) {
    allocate_column(subs_, lo_idx + k, options_.cores, *ideal_, options_.method, avail_);
  });
  avail_.refold_rows(dirty_tasks_);

  // --- Refinement: a clean row keeps its frequency, scale and energy; the
  // energy refolds over all of them in task order, as from scratch.
  for (std::vector<double>* slots : {&refinement_.total_available, &refinement_.frequency,
                                     &refinement_.scale, &refinement_.task_energy}) {
    if (removed >= 0) {
      slots->erase(slots->begin() + removed);
    } else {
      slots->push_back(0.0);
    }
  }
  for (const TaskId i : dirty_tasks_) {
    refine_task(tasks_[static_cast<std::size_t>(i)], static_cast<std::size_t>(i), power_, avail_,
                refinement_);
  }
  fold_refined_energy(refinement_);

  // --- Schedule splice. New task i's old segments; the appended task has
  // none, and ids at or past a removed one moved down by one.
  const std::vector<Segment>& osegs = schedule_.segments();
  const std::size_t cut = removed >= 0 ? static_cast<std::size_t>(removed) : n;
  const auto old_id = [&](std::size_t i) { return i >= cut ? i + 1 : i; };
  const auto old_run = [&](std::size_t i) {
    if (removed < 0 && i + 1 == n) return std::span<const Segment>();
    const std::size_t o = old_id(i);
    return std::span<const Segment>(osegs).subspan(seg_begin_[o], seg_begin_[o + 1] - seg_begin_[o]);
  };

  // Expand the repack window until no surviving old segment straddles a
  // cut. A segment straddling cut t belongs to a task whose window holds t
  // strictly inside, so the task is a member both of the column starting at
  // t and of the one ending there: the left cut's candidates are the
  // members of column jlo released before it, the right cut's the members
  // of column jhi due after it. Cuts only move outward onto boundary values
  // shared with the old array, which no old raw segment crosses, so the
  // loop strictly progresses; past the cap the whole horizon is repacked
  // instead (exact either way — expansion only bounds the work).
  const std::vector<double>& bv = subs_.boundaries();
  const bool have_window = d1_count > 0;
  std::size_t jlo = d1_first;
  std::size_t jhi = have_window ? d1_first + d1_count - 1 : d1_first;
  for (std::size_t steps = 0; have_window;) {
    const double t_lo = bv[jlo];
    const double t_hi = bv[jhi + 1];
    double low_start = t_lo;
    for (const TaskId m : subs_[jlo].overlapping) {
      if (!(tasks_[static_cast<std::size_t>(m)].release < t_lo)) continue;
      for_each_straddler(old_run(static_cast<std::size_t>(m)), t_lo,
                         [&](const Segment& s) { low_start = std::min(low_start, s.start); });
    }
    double high_end = t_hi;
    for (const TaskId m : subs_[jhi].overlapping) {
      if (!(tasks_[static_cast<std::size_t>(m)].deadline > t_hi)) continue;
      for_each_straddler(old_run(static_cast<std::size_t>(m)), t_hi,
                         [&](const Segment& s) { high_end = std::max(high_end, s.end); });
    }
    if (low_start == t_lo && high_end == t_hi) break;
    if (low_start < t_lo) {
      const auto b = std::upper_bound(bv.begin(), bv.end(), low_start);
      EASCHED_ASSERT(b != bv.begin());
      jlo = static_cast<std::size_t>(b - bv.begin()) - 1;
    }
    if (high_end > t_hi) {
      const auto b = std::lower_bound(bv.begin(), bv.end(), high_end);
      EASCHED_ASSERT(b != bv.end());
      jhi = static_cast<std::size_t>(b - bv.begin()) - 1;
    }
    if (++steps > options_.max_cut_expansion) {
      jlo = 0;
      jhi = columns - 1;
      break;
    }
  }
  out.repacked_columns += have_window ? jhi - jlo + 1 : 0;
  // An empty window degenerates to "keep everything": both cuts at +inf put
  // every surviving segment in the prefix and the repack produces nothing.
  const double t_lo = have_window ? bv[jlo] : std::numeric_limits<double>::infinity();
  const double t_hi = have_window ? bv[jhi + 1] : std::numeric_limits<double>::infinity();

  // The window's tasks — the members of its columns — are the only ones the
  // repack touches; every other task keeps its segments as they are.
  in_window_.assign(n, 0);
  for (std::size_t j = jlo; have_window && j <= jhi; ++j) {
    for (const TaskId m : subs_[j].overlapping) in_window_[static_cast<std::size_t>(m)] = 1;
  }
  EASCHED_ASSERT(removed >= 0 || in_window_[n - 1]);

  // Repack the window columns from the fresh state — the pipeline's own
  // final pack, restricted to [jlo, jhi].
  const Schedule middle =
      have_window ? pack_final(subs_, options_.cores, avail_, refinement_, jlo, jhi + 1, exec)
                  : Schedule(options_.cores, std::vector<Segment>{});
  const std::vector<Segment>& msegs = middle.segments();

  // One pass in task order. A run of tasks outside the window copies as one
  // block (renumbered past a removed task). A window task's groups, per
  // core, are prefix (ends at or before t_lo) ++ repacked ++ suffix (starts
  // at or after t_hi) — start-sorted by construction — through the
  // coalescing fold; expansion guarantees the dropped middle lies inside
  // the window. Folding an untouched group again is the identity (a left
  // fold of already-merged runs), so the result is the from-scratch fold.
  std::vector<Segment> spliced;
  spliced.reserve(osegs.size() + msegs.size());
  const auto append_merged = [&](Segment s, std::size_t group_begin) {
    // The coalescing rule, with `coalesce`'s default tolerances.
    if (spliced.size() > group_begin) {
      Segment& last = spliced.back();
      if (detail::segments_merge(last, s, 1e-9, 1e-9)) {
        last.end = s.end;
        return;
      }
    }
    spliced.push_back(s);
  };
  next_seg_begin_.resize(n + 1);
  next_seg_begin_[0] = 0;
  std::size_t mi = 0;
  for (std::size_t i = 0; i < n;) {
    if (!in_window_[i]) {
      std::size_t k = i + 1;
      while (k < n && !in_window_[k] && k != cut) ++k;
      const std::size_t from = seg_begin_[old_id(i)];
      const std::size_t at = spliced.size();
      spliced.insert(spliced.end(), osegs.begin() + static_cast<std::ptrdiff_t>(from),
                     osegs.begin() + static_cast<std::ptrdiff_t>(seg_begin_[old_id(k - 1) + 1]));
      if (old_id(i) != i) {
        for (std::size_t q = at; q < spliced.size(); ++q) --spliced[q].task;
      }
      for (; i < k; ++i) {
        next_seg_begin_[i + 1] = at + (seg_begin_[old_id(i) + 1] - from);
      }
      continue;
    }
    const std::span<const Segment> run = old_run(i);
    std::size_t me = mi;
    while (me < msegs.size() && static_cast<std::size_t>(msegs[me].task) == i) ++me;
    const auto task = static_cast<TaskId>(i);
    const auto retagged = [task](Segment s) {
      s.task = task;
      return s;
    };
    for (std::size_t po = 0, pm = mi; po < run.size() || pm < me;) {
      const CoreId core = std::min(po < run.size() ? run[po].core : std::numeric_limits<CoreId>::max(),
                                   pm < me ? msegs[pm].core : std::numeric_limits<CoreId>::max());
      std::size_t go = po;
      while (go < run.size() && run[go].core == core) ++go;
      std::size_t gm = pm;
      while (gm < me && msegs[gm].core == core) ++gm;
      const std::size_t group_begin = spliced.size();
      std::size_t p = po;
      for (; p < go && run[p].end <= t_lo; ++p) append_merged(retagged(run[p]), group_begin);
      std::size_t s = go;
      while (s > p && run[s - 1].start >= t_hi) --s;
      for (std::size_t q = p; q < s; ++q) {
        EASCHED_ASSERT(run[q].start >= t_lo && run[q].end <= t_hi);
      }
      for (std::size_t q = pm; q < gm; ++q) append_merged(msegs[q], group_begin);
      for (std::size_t q = s; q < go; ++q) append_merged(retagged(run[q]), group_begin);
      po = go;
      pm = gm;
    }
    mi = me;
    next_seg_begin_[++i] = spliced.size();
  }
  EASCHED_ASSERT(mi == msegs.size());
  schedule_ = Schedule(options_.cores, std::move(spliced));
  seg_begin_.swap(next_seg_begin_);
}

void DeltaPlanner::mark_dirty(std::size_t lo_idx, std::size_t hi_idx, std::size_t& d1_first,
                              std::size_t& d1_last) {
  dirty_.assign(tasks_.size(), 0);
  dirty_tasks_.clear();
  for (std::size_t j = lo_idx; j < hi_idx; ++j) {
    for (const TaskId m : subs_[j].overlapping) {
      char& flag = dirty_[static_cast<std::size_t>(m)];
      if (flag) continue;
      flag = 1;
      dirty_tasks_.push_back(m);
      const SubRange r = subs_.range_of(m);
      EASCHED_ASSERT(r.count > 0);
      d1_first = std::min(d1_first, r.first);
      d1_last = std::max(d1_last, r.first + r.count - 1);
    }
  }
}

bool DeltaPlanner::apply_add(const Task& task, const Exec& exec, DeltaOutcome& out) {
  // Pre-check both boundary insertions before mutating anything: a value
  // landing within the merge tolerance of an existing (or the sibling new)
  // boundary would force a tolerance merge the splice cannot reproduce.
  const std::vector<double>& bv = subs_.boundaries();
  const auto index_of = [&](double v) {
    return static_cast<std::size_t>(std::lower_bound(bv.begin(), bv.end(), v) - bv.begin());
  };
  const auto exact_present = [&](double v) {
    const std::size_t at = index_of(v);
    return at < bv.size() && bv[at] == v;
  };
  const bool r_new = !exact_present(task.release);
  const bool d_new = !exact_present(task.deadline);
  if ((r_new && !insertable(task.release)) || (d_new && !insertable(task.deadline))) return false;
  if (r_new && d_new && task.deadline - task.release <= options_.merge_tol) return false;

  subs_.append_task(task);
  for (const auto& [value, fresh] : {std::pair{task.release, r_new}, std::pair{task.deadline, d_new}}) {
    const std::size_t at = index_of(value);
    if (fresh) {
      bound_counts_.insert(bound_counts_.begin() + static_cast<std::ptrdiff_t>(at), 1);
    } else {
      ++bound_counts_[at];
    }
  }
  tasks_.push_back(task);
  ideal_->push_back(task, power_);

  // Dirty window: everything between the nearest boundaries shared with the
  // old array around [R, D]. A freshly inserted value's flanking columns
  // changed geometry (the insert split an old column), so the window steps
  // one boundary outward on that side.
  const std::size_t idx_r = index_of(task.release);
  const std::size_t idx_d = index_of(task.deadline);
  const std::size_t lo_idx = r_new && idx_r > 0 ? idx_r - 1 : idx_r;
  const std::size_t hi_idx = d_new && idx_d + 1 < bv.size() ? idx_d + 1 : idx_d;

  std::size_t d1_first = lo_idx;
  std::size_t d1_last = hi_idx - 1;
  mark_dirty(lo_idx, hi_idx, d1_first, d1_last);
  EASCHED_ASSERT(dirty_.back());  // the appended task overlaps its own window

  splice(lo_idx, hi_idx, d1_first, d1_last - d1_first + 1, /*removed=*/-1, exec, out);
  ++out.ops;
  return true;
}

void DeltaPlanner::apply_remove(std::size_t index, const Exec& exec, DeltaOutcome& out) {
  EASCHED_ASSERT(index < tasks_.size() && tasks_.size() > 1);
  const Task task = tasks_[index];
  const std::vector<double>& bv = subs_.boundaries();
  const auto index_of = [&](double v) {
    const auto it = std::lower_bound(bv.begin(), bv.end(), v);
    EASCHED_ASSERT(it != bv.end() && *it == v);
    return static_cast<std::size_t>(it - bv.begin());
  };
  const std::size_t at_r = index_of(task.release);
  const std::size_t at_d = index_of(task.deadline);
  const bool drop_r = --bound_counts_[at_r] == 0;
  const bool drop_d = --bound_counts_[at_d] == 0;
  subs_.remove_task(static_cast<TaskId>(index), drop_r, drop_d);
  if (drop_d) bound_counts_.erase(bound_counts_.begin() + static_cast<std::ptrdiff_t>(at_d));
  if (drop_r) bound_counts_.erase(bound_counts_.begin() + static_cast<std::ptrdiff_t>(at_r));
  tasks_.erase(tasks_.begin() + static_cast<std::ptrdiff_t>(index));
  ideal_->erase(static_cast<TaskId>(index));

  // Dirty window: the nearest *surviving* boundaries bracketing [R, D]. A
  // vanished value merged its two flanking columns, which the bracketing
  // absorbs; a vanished horizon extreme clamps to the new horizon edge.
  const auto lo_it = std::upper_bound(bv.begin(), bv.end(), task.release);
  const std::size_t lo_idx =
      lo_it == bv.begin() ? 0 : static_cast<std::size_t>(lo_it - bv.begin()) - 1;
  const auto hi_it = std::lower_bound(bv.begin(), bv.end(), task.deadline);
  const std::size_t hi_idx =
      hi_it == bv.end() ? bv.size() - 1 : static_cast<std::size_t>(hi_it - bv.begin());

  std::size_t d1_first = lo_idx;
  std::size_t d1_last = hi_idx - 1;
  // With lo_idx >= hi_idx the removed task lay entirely beyond (or before)
  // the surviving horizon: no surviving column changes, the dirty window
  // is empty.
  mark_dirty(lo_idx, hi_idx, d1_first, d1_last);
  splice(lo_idx, hi_idx, d1_first, lo_idx < hi_idx ? d1_last - d1_first + 1 : 0,
         static_cast<TaskId>(index), exec, out);
  ++out.ops;
}

DeltaPlan DeltaPlanner::plan_to(const TaskSet& live, const Exec& exec, DeltaOutcome* outcome) {
  EASCHED_EXPECTS_MSG(!live.empty(), "delta planner needs a non-empty task set");
  DeltaOutcome scratch;
  DeltaOutcome& out = outcome != nullptr ? *outcome : scratch;
  out = DeltaOutcome{};

  obs::Span span("kernel.delta_plan");
  span.arg("tasks", static_cast<double>(live.size()));

  try {
    if (!has_state_) {
      out.decline_reason = "no cached plan";
      full_rebuild(live, exec);
    } else {
      // Greedy in-order diff under exact task equality: old entries missing
      // from `live` become removals, trailing new entries appends. (The
      // service appends admissions in id order and removes completions in
      // place, so real deltas are tiny; anything bigger trips `max_ops`.)
      std::vector<std::size_t> removals;
      std::vector<Task> appends;
      std::size_t i = 0;
      std::size_t k = 0;
      while (i < tasks_.size() && k < live.size()) {
        if (tasks_[i] == live[k]) {
          ++i;
          ++k;
        } else {
          removals.push_back(i);
          ++i;
        }
      }
      for (; i < tasks_.size(); ++i) removals.push_back(i);
      for (; k < live.size(); ++k) appends.push_back(live[k]);
      const std::size_t ops = removals.size() + appends.size();

      if (ops == 0) {
        out.delta = true;  // same set: the cached plan is the answer
      } else if (!clean_) {
        out.decline_reason = "boundaries were tolerance-merged";
        full_rebuild(live, exec);
      } else if (ops > options_.max_ops) {
        out.decline_reason = "more ops than max_ops";
        full_rebuild(live, exec);
      } else if (removals.size() == tasks_.size()) {
        out.decline_reason = "intermediate task set empty";
        full_rebuild(live, exec);
      } else {
        bool ok = true;
        for (std::size_t r = 0; r < removals.size(); ++r) {
          apply_remove(removals[r] - r, exec, out);
        }
        for (const Task& t : appends) {
          if (!apply_add(t, exec, out)) {
            ok = false;
            break;
          }
        }
        if (ok) {
          out.delta = true;
        } else {
          out.decline_reason = "boundary within merge tolerance";
          full_rebuild(live, exec);
        }
      }
    }
  } catch (...) {
    invalidate();
    throw;
  }
  span.arg("delta", out.delta ? 1.0 : 0.0);
  span.arg("ops", static_cast<double>(out.ops));
  return {refinement_.energy, schedule_};
}

}  // namespace easched
