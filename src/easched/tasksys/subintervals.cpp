#include "easched/tasksys/subintervals.hpp"

#include <algorithm>
#include <cmath>

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
