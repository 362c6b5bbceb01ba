#include "easched/sched/incremental.hpp"

#include <algorithm>
#include <limits>
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
//  *  the dirty span D1 — the window's columns plus the full live ranges of
//     every task overlapping them — therefore covers every column whose
//     packed segments can differ, and recomputing exactly those columns
//     (rows of window tasks included) plus re-running the O(n) refinement
//     yields the from-scratch state.
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
  const auto it = std::lower_bound(bound_values_.begin(), bound_values_.end(), value);
  if (it != bound_values_.begin() && value - *(it - 1) <= options_.merge_tol) return false;
  if (it != bound_values_.end() && *it - value <= options_.merge_tol) return false;
  return true;
}

void DeltaPlanner::insert_boundary(double value) {
  const auto it = std::lower_bound(bound_values_.begin(), bound_values_.end(), value);
  if (it != bound_values_.end() && *it == value) {
    ++bound_counts_[static_cast<std::size_t>(it - bound_values_.begin())];
    return;
  }
  const std::size_t pos = static_cast<std::size_t>(it - bound_values_.begin());
  bound_values_.insert(it, value);
  bound_counts_.insert(bound_counts_.begin() + static_cast<std::ptrdiff_t>(pos), 1);
}

bool DeltaPlanner::erase_boundary(double value) {
  const auto it = std::lower_bound(bound_values_.begin(), bound_values_.end(), value);
  EASCHED_ASSERT(it != bound_values_.end() && *it == value);
  const std::size_t pos = static_cast<std::size_t>(it - bound_values_.begin());
  if (--bound_counts_[pos] > 0) return false;
  bound_values_.erase(it);
  bound_counts_.erase(bound_counts_.begin() + static_cast<std::ptrdiff_t>(pos));
  return true;
}

void DeltaPlanner::full_rebuild(const TaskSet& live, const Exec& exec) {
  has_state_ = false;  // stays down until every piece of state is consistent
  tasks_.assign(live.begin(), live.end());
  task_set_ = TaskSet(tasks_);

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
  bound_values_.clear();
  bound_counts_.clear();
  clean_ = true;
  for (const double v : all) {
    if (!bound_values_.empty() && v == bound_values_.back()) {
      ++bound_counts_.back();
      continue;
    }
    if (!bound_values_.empty() && v - bound_values_.back() <= options_.merge_tol) clean_ = false;
    bound_values_.push_back(v);
    bound_counts_.push_back(1);
  }

  if (clean_) {
    // Room for the deltas that follow, reserved before the spans into the
    // arena are built, so the first deltas splice within capacity instead
    // of regrowing the arena and the intervals. A clean array holds every
    // task's release and deadline, so each task covers past − first − 1
    // subintervals; the reservation is a no-op once capacities suffice.
    const std::vector<double>& bv = bound_values_;
    std::size_t mass = 0;
    for (const Task& t : tasks_) {
      const auto first = std::lower_bound(bv.begin(), bv.end(), t.release);
      mass += static_cast<std::size_t>(std::upper_bound(first, bv.end(), t.deadline) - first) - 1;
    }
    const auto grown = [](std::size_t size, std::size_t extra) { return size + size / 8 + extra; };
    subs_.reserve(std::max(reserve_tasks_, grown(tasks_.size(), options_.max_ops)),
                  std::max(reserve_bounds_, grown(bv.size(), 2 * options_.max_ops)),
                  std::max(reserve_mass_, grown(mass, 0)));
    subs_.assign(task_set_, bv, exec);
  } else {
    subs_ = SubintervalDecomposition(task_set_, options_.merge_tol, exec);
  }
  ideal_.emplace(task_set_, power_);

  FinalPlan plan =
      plan_final(task_set_, subs_, options_.cores, power_, *ideal_, options_.method, exec);
  avail_ = std::move(plan.availability);
  refinement_ = std::move(plan.refinement);
  schedule_ = std::move(plan.schedule);
  has_state_ = true;
}

void DeltaPlanner::rebuild_from_dirty(std::size_t d1_first, std::size_t d1_count,
                                      TaskId removed_old, const Exec& exec, DeltaOutcome& out) {
  // An empty dirty span happens only when a removed task lay entirely
  // outside the surviving horizon: no surviving column changes geometry or
  // membership, so the whole rebuild reduces to re-keying the rows and
  // dropping the removed task's schedule groups.
  const std::size_t n = task_set_.size();
  const std::size_t columns = subs_.size();
  EASCHED_ASSERT(d1_count == 0 || d1_first + d1_count <= columns);
  EASCHED_ASSERT(d1_count > 0 || removed_old >= 0);
  EASCHED_ASSERT(dirty_.size() == n);
  out.dirty_columns += d1_count;

  // --- Availability: copy clean rows, recompute dirty columns, refold sums,
  // into the spare matrix, which then trades places with the current one.
  Availability& fresh = spare_avail_;
  fresh.reshape(task_set_, subs_);
  exec.loop(n, [&](std::size_t i) {
    if (dirty_[i]) return;  // fully covered by the dirty-column pass
    const std::size_t old_i =
        removed_old >= 0 && i >= static_cast<std::size_t>(removed_old) ? i + 1 : i;
    const std::span<const double> src = avail_.row(old_i);
    const std::span<double> dst = fresh.row_values(i);
    EASCHED_ASSERT(src.size() == dst.size());
    std::copy(src.begin(), src.end(), dst.begin());
  });
  exec.loop(d1_count, [&](std::size_t k) {
    // The allocator's own per-column rationing: the recomputed cells match a
    // from-scratch fill bit for bit.
    allocate_column(subs_, d1_first + k, options_.cores, *ideal_, options_.method, fresh);
  });
  fresh.rebuild_sums(subs_, exec);
  std::swap(avail_, spare_avail_);

  // --- Refinement: O(n) closed form; recomputing every task (not just the
  // dirty ones) costs microseconds and is trivially from-scratch-identical.
  refine_final(task_set_, power_, avail_, exec, refinement_);

  // --- Schedule splice. Index the old schedule's (task, core) groups.
  const std::size_t stride = static_cast<std::size_t>(options_.cores) + 1;
  const std::vector<Segment>& osegs = schedule_.segments();
  std::vector<OldGroup>& old_groups = old_groups_;
  old_groups.clear();
  // Every group holds a segment, so the segment count bounds the groups: no
  // regrowth within an op, and only the part the groups fill is faulted in.
  // The headroom spares the following, slightly larger plans a regrowth.
  if (old_groups.capacity() < osegs.size()) old_groups.reserve(osegs.size() + osegs.size() / 8);
  for (std::size_t b = 0; b < osegs.size();) {
    std::size_t e = b + 1;
    while (e < osegs.size() && osegs[e].task == osegs[b].task && osegs[e].core == osegs[b].core) {
      ++e;
    }
    const TaskId old_task = osegs[b].task;
    if (old_task != removed_old) {
      const TaskId new_task =
          removed_old >= 0 && old_task > removed_old ? old_task - 1 : old_task;
      OldGroup g;
      g.key = static_cast<std::size_t>(new_task) * stride + static_cast<std::size_t>(osegs[b].core);
      g.new_task = new_task;
      g.begin = b;
      g.end = e;
      EASCHED_ASSERT(old_groups.empty() || old_groups.back().key < g.key);
      old_groups.push_back(g);
    }
    b = e;
  }

  // Expand the repack window until no surviving old segment straddles a
  // cut. Cuts only move outward onto boundary values shared with the old
  // array, which no old raw segment crosses, so the loop strictly
  // progresses; past the cap the whole horizon is repacked instead (exact
  // either way — expansion only bounds the work).
  const std::vector<double>& bv = bound_values_;
  const bool have_window = d1_count > 0;
  std::size_t jlo = d1_first;
  std::size_t jhi = have_window ? d1_first + d1_count - 1 : d1_first;
  const auto start_below = [](const Segment& s, double v) { return s.start < v; };
  for (std::size_t steps = 0; have_window;) {
    const double t_lo = bv[jlo];
    const double t_hi = bv[jhi + 1];
    bool moved = false;
    for (const OldGroup& g : old_groups) {
      // Only a group whose span strictly contains a cut can straddle it.
      if (osegs[g.begin].start >= t_hi || osegs[g.end - 1].end <= t_lo) continue;
      const auto first = osegs.begin() + static_cast<std::ptrdiff_t>(g.begin);
      const auto last = osegs.begin() + static_cast<std::ptrdiff_t>(g.end);
      // Segments in a group are disjoint and start-sorted, so at most one
      // contains a cut in its interior: the last one starting below it.
      auto it = std::lower_bound(first, last, t_lo, start_below);
      if (it != first && (it - 1)->end > t_lo) {
        const auto b = std::upper_bound(bv.begin(), bv.end(), (it - 1)->start);
        EASCHED_ASSERT(b != bv.begin());
        jlo = static_cast<std::size_t>(b - bv.begin()) - 1;
        moved = true;
        break;
      }
      it = std::lower_bound(first, last, t_hi, start_below);
      if (it != first && (it - 1)->end > t_hi) {
        const auto b = std::lower_bound(bv.begin(), bv.end(), (it - 1)->end);
        EASCHED_ASSERT(b != bv.end());
        jhi = static_cast<std::size_t>(b - bv.begin()) - 1;
        moved = true;
        break;
      }
    }
    if (!moved) break;
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

  // Classify each group: a start-sorted disjoint run splits into a prefix
  // (ends at or before t_lo), a middle (dropped — the repack regenerates
  // it) and a suffix (starts at or after t_hi). Expansion guarantees the
  // middle lies fully inside the window.
  std::size_t kept = 0;
  for (OldGroup& g : old_groups) {
    std::size_t p = g.begin;
    while (p < g.end && osegs[p].end <= t_lo) ++p;
    g.pre_end = p;
    std::size_t s = g.end;
    while (s > p && osegs[s - 1].start >= t_hi) --s;
    g.suf_begin = s;
    for (std::size_t q = p; q < s; ++q) {
      EASCHED_ASSERT(osegs[q].start >= t_lo && osegs[q].end <= t_hi);
    }
    kept += (g.pre_end - g.begin) + (g.end - g.suf_begin);
  }

  // Repack the window columns from the fresh state — the pipeline's own
  // final pack, restricted to [jlo, jhi].
  const Schedule middle =
      have_window ? pack_final(subs_, options_.cores, avail_, refinement_, jlo, jhi + 1, exec)
                  : Schedule(options_.cores, std::vector<Segment>{});
  const std::vector<Segment>& msegs = middle.segments();
  std::vector<MidGroup>& mid_groups = mid_groups_;
  mid_groups.clear();
  for (std::size_t b = 0; b < msegs.size();) {
    std::size_t e = b + 1;
    while (e < msegs.size() && msegs[e].task == msegs[b].task && msegs[e].core == msegs[b].core) {
      ++e;
    }
    mid_groups.push_back({static_cast<std::size_t>(msegs[b].task) * stride +
                              static_cast<std::size_t>(msegs[b].core),
                          b, e});
    b = e;
  }

  // Two-stream merge by group key (both streams ascending; the old→new id
  // map is monotone): per key, prefix ++ repacked ++ suffix is start-sorted
  // by construction (group segments are disjoint, so the coalescing fold's
  // per-group sort would be an identity), and the fold runs fused with the
  // splice instead of as a second pass. Groups the delta did not cut and
  // did not repack are still maximally coalesced from the previous fold
  // (same tolerances, a left fold is idempotent), so they bulk-copy.
  std::vector<Segment> spliced;
  spliced.reserve(kept + msegs.size());
  constexpr std::size_t kNoKey = std::numeric_limits<std::size_t>::max();
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
  std::size_t oi = 0;
  std::size_t mi = 0;
  while (oi < old_groups.size() || mi < mid_groups.size()) {
    const std::size_t ko = oi < old_groups.size() ? old_groups[oi].key : kNoKey;
    const std::size_t km = mi < mid_groups.size() ? mid_groups[mi].key : kNoKey;
    const std::size_t key = std::min(ko, km);
    const std::size_t group_begin = spliced.size();
    const bool cut = ko == key && old_groups[oi].pre_end != old_groups[oi].suf_begin;
    if (km != key && !cut) {
      // Untouched old run: nothing dropped, nothing repacked — splice it
      // back wholesale (re-keying on removal).
      const OldGroup& g = old_groups[oi++];
      if (g.new_task == osegs[g.begin].task) {
        spliced.insert(spliced.end(), osegs.begin() + static_cast<std::ptrdiff_t>(g.begin),
                       osegs.begin() + static_cast<std::ptrdiff_t>(g.end));
      } else {
        for (std::size_t q = g.begin; q < g.end; ++q) {
          Segment s = osegs[q];
          s.task = g.new_task;
          spliced.push_back(s);
        }
      }
      continue;
    }
    if (ko == key) {
      const OldGroup& g = old_groups[oi];
      for (std::size_t q = g.begin; q < g.pre_end; ++q) {
        Segment s = osegs[q];
        s.task = g.new_task;
        append_merged(s, group_begin);
      }
    }
    if (km == key) {
      const MidGroup& g = mid_groups[mi];
      for (std::size_t q = g.begin; q < g.end; ++q) append_merged(msegs[q], group_begin);
    }
    if (ko == key) {
      const OldGroup& g = old_groups[oi];
      for (std::size_t q = g.suf_begin; q < g.end; ++q) {
        Segment s = osegs[q];
        s.task = g.new_task;
        append_merged(s, group_begin);
      }
      ++oi;
    }
    if (km == key) ++mi;
  }
  schedule_ = Schedule(options_.cores, std::move(spliced));
}

void DeltaPlanner::mark_dirty(std::size_t lo_idx, std::size_t hi_idx, std::size_t& d1_first,
                              std::size_t& d1_last) {
  dirty_.assign(task_set_.size(), 0);
  for (std::size_t j = lo_idx; j < hi_idx; ++j) {
    for (const TaskId m : subs_[j].overlapping) {
      char& flag = dirty_[static_cast<std::size_t>(m)];
      if (flag) continue;
      flag = 1;
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
  const auto exact_present = [&](double v) {
    const auto it = std::lower_bound(bound_values_.begin(), bound_values_.end(), v);
    return it != bound_values_.end() && *it == v;
  };
  const bool r_new = !exact_present(task.release);
  const bool d_new = !exact_present(task.deadline);
  if ((r_new && !insertable(task.release)) || (d_new && !insertable(task.deadline))) return false;
  if (r_new && d_new && task.deadline - task.release <= options_.merge_tol) return false;

  insert_boundary(task.release);
  insert_boundary(task.deadline);
  tasks_.push_back(task);
  task_set_ = TaskSet(tasks_);
  subs_.assign(task_set_, bound_values_, exec);
  ideal_.emplace(task_set_, power_);

  // Dirty window: everything between the nearest boundaries shared with the
  // old array around [R, D]. A freshly inserted value's flanking columns
  // changed geometry (the insert split an old column), so the window steps
  // one boundary outward on that side.
  const std::vector<double>& bv = bound_values_;
  const auto idx_r = static_cast<std::size_t>(
      std::lower_bound(bv.begin(), bv.end(), task.release) - bv.begin());
  const auto idx_d = static_cast<std::size_t>(
      std::lower_bound(bv.begin(), bv.end(), task.deadline) - bv.begin());
  const std::size_t lo_idx = r_new && idx_r > 0 ? idx_r - 1 : idx_r;
  const std::size_t hi_idx = d_new && idx_d + 1 < bv.size() ? idx_d + 1 : idx_d;

  std::size_t d1_first = lo_idx;
  std::size_t d1_last = hi_idx - 1;
  mark_dirty(lo_idx, hi_idx, d1_first, d1_last);
  EASCHED_ASSERT(dirty_.back());  // the appended task overlaps its own window

  rebuild_from_dirty(d1_first, d1_last - d1_first + 1, /*removed_old=*/-1, exec, out);
  ++out.ops;
  return true;
}

void DeltaPlanner::apply_remove(std::size_t index, const Exec& exec, DeltaOutcome& out) {
  EASCHED_ASSERT(index < tasks_.size() && tasks_.size() > 1);
  const Task task = tasks_[index];
  erase_boundary(task.release);
  erase_boundary(task.deadline);
  tasks_.erase(tasks_.begin() + static_cast<std::ptrdiff_t>(index));
  task_set_ = TaskSet(tasks_);
  subs_.assign(task_set_, bound_values_, exec);
  ideal_.emplace(task_set_, power_);

  // Dirty window: the nearest *surviving* boundaries bracketing [R, D]. A
  // vanished value merged its two flanking columns, which the bracketing
  // absorbs; a vanished horizon extreme clamps to the new horizon edge.
  const std::vector<double>& bv = bound_values_;
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
  rebuild_from_dirty(d1_first, lo_idx < hi_idx ? d1_last - d1_first + 1 : 0,
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
