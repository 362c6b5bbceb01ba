#include "easched/tasksys/subintervals.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "easched/common/contracts.hpp"
#include "easched/obs/trace.hpp"
#include "easched/parallel/exec.hpp"

namespace easched {

SubintervalDecomposition::SubintervalDecomposition(const TaskSet& tasks, double merge_tol)
    : SubintervalDecomposition(tasks, merge_tol, Exec::serial()) {}

SubintervalDecomposition::SubintervalDecomposition(const TaskSet& tasks, double merge_tol,
                                                   const Exec& exec) {
  EASCHED_EXPECTS_MSG(!tasks.empty(), "subinterval decomposition needs at least one task");
  EASCHED_EXPECTS(merge_tol >= 0.0);

  const std::size_t n = tasks.size();
  {
    obs::Span cut_span("kernel.subinterval_cut");
    cut_span.arg("tasks", static_cast<double>(n));
    boundaries_.reserve(n * 2);
    for (const Task& t : tasks) {
      boundaries_.push_back(t.release);
      boundaries_.push_back(t.deadline);
    }
    std::sort(boundaries_.begin(), boundaries_.end());
    // Merge boundaries closer than merge_tol: keep the first representative.
    std::vector<double> merged;
    merged.reserve(boundaries_.size());
    for (const double b : boundaries_) {
      if (merged.empty() || b - merged.back() > merge_tol) merged.push_back(b);
    }
    boundaries_ = std::move(merged);
    EASCHED_ASSERT(boundaries_.size() >= 2);
    cut_span.arg("subintervals", static_cast<double>(boundaries_.size() - 1));
  }

  build_from_boundaries(tasks, exec);
}

void SubintervalDecomposition::reserve(std::size_t tasks, std::size_t boundaries,
                                       std::size_t overlap_mass) {
  boundaries_.reserve(boundaries);
  intervals_.reserve(boundaries > 0 ? boundaries - 1 : 0);
  offsets_.reserve(boundaries);
  const TaskId* before = arena_.data();
  arena_.reserve(overlap_mass);
  ranges_.reserve(tasks);
  if (arena_.data() != before) {
    const std::span<const TaskId> arena(arena_);
    for (std::size_t j = 0; j < intervals_.size(); ++j) {
      intervals_[j].overlapping = arena.subspan(offsets_[j], offsets_[j + 1] - offsets_[j]);
    }
  }
}

void SubintervalDecomposition::assign(const TaskSet& tasks, std::span<const double> boundaries,
                                      const Exec& exec) {
  EASCHED_EXPECTS_MSG(!tasks.empty(), "subinterval decomposition needs at least one task");
  EASCHED_EXPECTS_MSG(boundaries.size() >= 2, "spliced boundary array needs two boundaries");
  boundaries_.assign(boundaries.begin(), boundaries.end());
  build_from_boundaries(tasks, exec);
}

void SubintervalDecomposition::build_from_boundaries(const TaskSet& tasks, const Exec& exec) {
  const std::size_t n = tasks.size();
  // Sweep: each task is live on the contiguous subinterval run between the
  // first boundary ≥ its release and the last boundary ≤ its deadline
  // (`release ≤ t_j` and `t_{j+1} ≤ deadline` are both monotone in j). Two
  // binary searches per task, then a counting pass lays every overlap set
  // into one exactly-sized CSR arena — O(n log n + P) in place of the old
  // O(n·N) per-subinterval membership scans.
  obs::Span sweep_span("kernel.sweep");
  sweep_span.arg("events", static_cast<double>(n * 2));
  const std::size_t subintervals = boundaries_.size() - 1;

  ranges_.resize(n);
  exec.loop(n, [&](std::size_t i) {
    const Task& t = tasks[i];
    const auto first_b =
        std::lower_bound(boundaries_.begin(), boundaries_.end(), t.release);
    const auto past_b = std::upper_bound(first_b, boundaries_.end(), t.deadline);
    // Subinterval j lives between boundaries j and j+1; the task covers
    // subintervals [first_b, past_b − 2] (needs two boundaries inside the
    // window). A window collapsed by merging covers none.
    const auto first = static_cast<std::size_t>(first_b - boundaries_.begin());
    const auto past = static_cast<std::size_t>(past_b - boundaries_.begin());
    ranges_[i] = past >= first + 2 ? SubRange{first, past - first - 1} : SubRange{first, 0};
  });

  // Counting pass: per-subinterval overlap counts via a difference array,
  // prefix-summed into CSR offsets. The arena is then sized exactly once —
  // zero reallocation on the hot path.
  offsets_.assign(subintervals + 1, 0);
  for (const SubRange& r : ranges_) {
    if (r.count == 0) continue;
    ++offsets_[r.first + 1];
    if (r.first + r.count + 1 <= subintervals) --offsets_[r.first + r.count + 1];
  }
  // First pass turns the difference array into per-subinterval counts
  // (offsets_[j+1] = n_j), second into exclusive prefix sums (CSR offsets).
  for (std::size_t j = 1; j <= subintervals; ++j) offsets_[j] += offsets_[j - 1];
  for (std::size_t j = 1; j <= subintervals; ++j) offsets_[j] += offsets_[j - 1];
  arena_.resize(offsets_[subintervals]);
  sweep_span.arg("overlap_mass", static_cast<double>(arena_.size()));

  // Fill: visiting tasks in ascending id keeps every subinterval's overlap
  // set ascending, matching the membership-scan order bit for bit.
  {
    std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      const SubRange& r = ranges_[i];
      for (std::size_t j = r.first; j < r.first + r.count; ++j) {
        arena_[cursor[j]++] = static_cast<TaskId>(i);
      }
    }
  }

  intervals_.resize(subintervals);
  const std::span<const TaskId> arena(arena_);
  exec.loop(subintervals, [&](std::size_t j) {
    Subinterval& si = intervals_[j];
    si.begin = boundaries_[j];
    si.end = boundaries_[j + 1];
    si.overlapping = arena.subspan(offsets_[j], offsets_[j + 1] - offsets_[j]);
  });
}

void SubintervalDecomposition::refresh_intervals(std::size_t first, const TaskId* arena_before) {
  if (arena_.data() != arena_before) first = 0;
  const std::span<const TaskId> arena(arena_);
  for (std::size_t j = first; j < intervals_.size(); ++j) {
    Subinterval& si = intervals_[j];
    si.begin = boundaries_[j];
    si.end = boundaries_[j + 1];
    si.overlapping = arena.subspan(offsets_[j], offsets_[j + 1] - offsets_[j]);
  }
}

void SubintervalDecomposition::append_task(const Task& task) {
  EASCHED_EXPECTS_MSG(boundaries_.size() >= 2, "splice needs a built decomposition");
  EASCHED_EXPECTS(task.deadline > task.release);
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  const std::size_t old_columns = intervals_.size();

  // Insert the values that are new and note their indices. The deadline
  // lies right of the release, so its insert leaves the release's index.
  const auto insert = [&](double value) {
    const auto it = std::lower_bound(boundaries_.begin(), boundaries_.end(), value);
    if (it != boundaries_.end() && *it == value) return kNone;
    const auto at = static_cast<std::size_t>(it - boundaries_.begin());
    boundaries_.insert(it, value);
    return at;
  };
  const std::size_t p_r = insert(task.release);
  const std::size_t p_d = insert(task.deadline);
  const std::size_t inserted = std::size_t{p_r != kNone} + std::size_t{p_d != kNone};
  if (inserted > 0) {
    // A member boundary at or past an insert moves up by one.
    const auto moved = [&](std::size_t b) {
      if (p_r != kNone && b >= p_r) ++b;
      if (p_d != kNone && b >= p_d) ++b;
      return b;
    };
    for (SubRange& r : ranges_) {
      const std::size_t first = moved(r.first);
      r.count = moved(r.first + r.count) - first;
      r.first = first;
    }
  }
  const auto index_of = [&](double value) {
    return static_cast<std::size_t>(
        std::lower_bound(boundaries_.begin(), boundaries_.end(), value) - boundaries_.begin());
  };
  const std::size_t rb = index_of(task.release);
  const std::size_t db = index_of(task.deadline);
  const auto id = static_cast<TaskId>(ranges_.size());
  ranges_.push_back({rb, db - rb});

  // The window [lo, hi) of new columns: the task's own plus one on each side
  // (the other half of a split). Columns left of it keep their index and
  // set; columns right of it keep their set and move up by `inserted`. New
  // column j inside lies in old column j − (inserts at or left of boundary
  // j), when that column exists.
  const std::size_t columns = boundaries_.size() - 1;
  const std::size_t lo = rb > 0 ? rb - 1 : 0;
  const std::size_t hi = std::min(db + 1, columns);
  const std::size_t old_hi = hi - inserted;
  const auto source = [&](std::size_t j) {
    const std::size_t shift =
        std::size_t{p_r != kNone && p_r <= j} + std::size_t{p_d != kNone && p_d <= j};
    return j >= shift && j - shift < old_columns ? j - shift : kNone;
  };
  window_offsets_.assign(offsets_.begin() + static_cast<std::ptrdiff_t>(lo),
                         offsets_.begin() + static_cast<std::ptrdiff_t>(old_hi) + 1);
  const std::size_t base = window_offsets_.front();
  const std::size_t tail = window_offsets_.back();
  window_.assign(arena_.begin() + static_cast<std::ptrdiff_t>(base),
                 arena_.begin() + static_cast<std::ptrdiff_t>(tail));
  std::size_t mass = 0;
  for (std::size_t j = lo; j < hi; ++j) {
    const std::size_t k = source(j);
    if (k != kNone) mass += window_offsets_[k - lo + 1] - window_offsets_[k - lo];
    if (j >= rb && j < db) ++mass;
  }
  const std::size_t grow = mass - window_.size();

  // Move the columns right of the window, then lay the window out.
  const TaskId* before = arena_.data();
  const std::size_t old_mass = arena_.size();
  arena_.resize(old_mass + grow);
  std::copy_backward(arena_.begin() + static_cast<std::ptrdiff_t>(tail),
                     arena_.begin() + static_cast<std::ptrdiff_t>(old_mass), arena_.end());
  offsets_.resize(columns + 1);
  for (std::size_t t = old_columns; t > old_hi; --t) offsets_[t + inserted] = offsets_[t] + grow;
  std::size_t pos = base;
  for (std::size_t j = lo; j < hi; ++j) {
    if (const std::size_t k = source(j); k != kNone) {
      const auto set_begin =
          window_.begin() + static_cast<std::ptrdiff_t>(window_offsets_[k - lo] - base);
      const auto set_end =
          window_.begin() + static_cast<std::ptrdiff_t>(window_offsets_[k - lo + 1] - base);
      std::copy(set_begin, set_end, arena_.begin() + static_cast<std::ptrdiff_t>(pos));
      pos += static_cast<std::size_t>(set_end - set_begin);
    }
    if (j >= rb && j < db) arena_[pos++] = id;
    offsets_[j + 1] = pos;
  }
  EASCHED_ASSERT(pos == base + mass);
  intervals_.resize(columns);
  refresh_intervals(lo, before);
}

void SubintervalDecomposition::remove_task(TaskId id, bool drop_release, bool drop_deadline) {
  EASCHED_EXPECTS(id >= 0 && static_cast<std::size_t>(id) < ranges_.size());
  const SubRange gone = ranges_[static_cast<std::size_t>(id)];
  EASCHED_EXPECTS(gone.count > 0);
  const std::size_t rb = gone.first;
  const std::size_t db = gone.first + gone.count;
  const auto vanishes = [&](std::size_t b) {
    return (drop_release && b == rb) || (drop_deadline && b == db);
  };

  // Old column k survives when its start does and a surviving boundary
  // follows it: the second column of a merged pair and an edge column whose
  // outer boundary vanished go. A survivor keeps its set minus `id`, with
  // the higher ids shifted down (the merged pair's sets agree once `id` is
  // out). Survivors compact leftwards, so the pass writes in place.
  std::size_t last = boundaries_.size() - 1;
  while (vanishes(last)) --last;
  const TaskId* before = arena_.data();
  TaskId* const arena = arena_.data();
  // Columns left of both the task and every dropped column stay in place.
  std::size_t column = std::min(rb, last);
  std::size_t write = offsets_[column];
  std::size_t read = write;
  for (std::size_t q = 0; q < write; ++q) arena[q] -= TaskId{arena[q] > id};
  for (std::size_t k = column; k < intervals_.size(); ++k) {
    const std::size_t end = offsets_[k + 1];
    if (!vanishes(k) && k < last) {
      offsets_[column++] = write;
      if (k >= rb && k < db) {  // the removed task's own columns hold its id
        for (std::size_t q = read; q < end; ++q) {
          const TaskId m = arena[q];
          if (m != id) arena[write++] = m - TaskId{m > id};
        }
      } else {
        for (std::size_t q = read; q < end; ++q) arena[write++] = arena[q] - TaskId{arena[q] > id};
      }
    }
    read = end;
  }
  offsets_[column] = write;
  offsets_.resize(column + 1);
  arena_.resize(write);

  if (drop_deadline) boundaries_.erase(boundaries_.begin() + static_cast<std::ptrdiff_t>(db));
  if (drop_release) boundaries_.erase(boundaries_.begin() + static_cast<std::ptrdiff_t>(rb));
  EASCHED_ASSERT(boundaries_.size() == column + 1);
  ranges_.erase(ranges_.begin() + id);
  const auto moved = [&](std::size_t b) {
    return b - std::size_t{drop_release && rb < b} - std::size_t{drop_deadline && db < b};
  };
  for (SubRange& r : ranges_) {
    const std::size_t first = moved(r.first);
    r.count = moved(r.first + r.count) - first;
    r.first = first;
  }
  intervals_.resize(column);
  refresh_intervals(0, before);
}

std::vector<std::size_t> SubintervalDecomposition::covering(const Task& task) const {
  const SubRange r = covering_range(task);
  std::vector<std::size_t> out;
  out.reserve(r.count);
  for (std::size_t j = r.first; j < r.first + r.count; ++j) out.push_back(j);
  return out;
}

SubRange SubintervalDecomposition::covering_range(const Task& task) const {
  const auto first_b =
      std::lower_bound(boundaries_.begin(), boundaries_.end(), task.release);
  const auto past_b = std::upper_bound(first_b, boundaries_.end(), task.deadline);
  const auto first = static_cast<std::size_t>(first_b - boundaries_.begin());
  const auto past = static_cast<std::size_t>(past_b - boundaries_.begin());
  return past >= first + 2 ? SubRange{first, past - first - 1} : SubRange{first, 0};
}

SubRange SubintervalDecomposition::range_of(TaskId i) const {
  EASCHED_EXPECTS(i >= 0 && static_cast<std::size_t>(i) < ranges_.size());
  return ranges_[static_cast<std::size_t>(i)];
}

std::size_t SubintervalDecomposition::index_at(double t) const {
  EASCHED_EXPECTS(t >= boundaries_.front() && t <= boundaries_.back());
  // boundaries_ is sorted; find the last boundary <= t.
  const auto it = std::upper_bound(boundaries_.begin(), boundaries_.end(), t);
  std::size_t idx = static_cast<std::size_t>(it - boundaries_.begin());
  if (idx > 0) --idx;
  if (idx >= intervals_.size()) idx = intervals_.size() - 1;  // right endpoint
  return idx;
}

std::size_t SubintervalDecomposition::max_overlap() const {
  std::size_t best = 0;
  for (const auto& si : intervals_) best = std::max(best, si.overlapping.size());
  return best;
}

}  // namespace easched
