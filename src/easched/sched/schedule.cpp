#include "easched/sched/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <utility>

#include "easched/common/contracts.hpp"
#include "easched/common/math.hpp"
#include "easched/common/radix.hpp"

namespace easched {

namespace {

std::string describe(const Segment& s) {
  std::ostringstream os;
  os << "task " << s.task << " on core " << s.core << " [" << s.start << ", " << s.end << ") @ f="
     << s.frequency;
  return os.str();
}

void check_segment(const Segment& segment) {
  EASCHED_EXPECTS(segment.end > segment.start);
  EASCHED_EXPECTS(segment.frequency > 0.0);
  EASCHED_EXPECTS(segment.task >= 0);
  EASCHED_EXPECTS(segment.core >= 0);
}

/// Tail of `Schedule::coalesce`: `grouped` holds segments grouped by
/// (task, core), group `g` occupying `[bounds[g].first, bounds[g].second)`.
/// Sorts each group by start time, merges adjacent segments under
/// `detail::segments_merge`, compacts the survivors in place (truncating
/// `grouped` to the merged prefix), and returns the number of merges.
std::size_t merge_grouped_segments(
    std::vector<Segment>& grouped,
    const std::vector<std::pair<std::size_t, std::size_t>>& bounds, double time_tol,
    double freq_tol) {
  // The groups tile `grouped` in ascending order, so survivors compact into
  // a prefix with one in-place write cursor — no second buffer the size of
  // the segment list. (The write cursor never overtakes the read index, and
  // sorting group g touches only [g.first, g.second), which lies at or past
  // the cursor.)
  std::size_t merges = 0;
  std::size_t w = 0;
  for (const auto& [group_begin, group_end] : bounds) {
    std::sort(grouped.begin() + static_cast<std::ptrdiff_t>(group_begin),
              grouped.begin() + static_cast<std::ptrdiff_t>(group_end),
              [](const Segment& a, const Segment& b) { return a.start < b.start; });
    const std::size_t group_w = w;
    for (std::size_t i = group_begin; i < group_end; ++i) {
      const Segment s = grouped[i];
      if (w > group_w) {
        Segment& last = grouped[w - 1];
        if (detail::segments_merge(last, s, time_tol, freq_tol)) {
          last.end = s.end;
          ++merges;
          continue;
        }
      }
      grouped[w++] = s;
    }
  }
  grouped.resize(w);
  return merges;
}

/// Fill `order` with one (ordered_double_key(start), index) pair per
/// segment, ascending — the order a stable sort of the indices by start
/// key gives. `lo` and `hi` bound the starts. The segments are bucketed by
/// start over [lo, hi], about one per bucket; a bucket's index is monotone
/// in the start and equal starts share a bucket, so every key of a bucket
/// is below every key of the next. A bucket of more than
/// `kSmallBucket` entries (a start far from the rest piles nearly all of
/// them into one) is sorted on its own, O(n log n) at worst; then one
/// insertion pass over the whole list orders the small buckets, each entry
/// moving only within its bucket. A span the arithmetic cannot scale falls
/// back to one comparison sort. Both scratch buffers keep headroom for the
/// next, slightly larger plan.
void start_order(const std::vector<Segment>& segs, double lo, double hi,
                 std::vector<std::pair<std::uint64_t, std::uint32_t>>& order,
                 std::vector<std::uint32_t>& bucket_end) {
  const std::size_t n = segs.size();
  EASCHED_EXPECTS(n <= std::size_t{UINT32_MAX});
  if (order.capacity() < n) order.reserve(n + n / 8);
  order.resize(n);
  if (n == 0) return;
  const double buckets = static_cast<double>(n);
  const double scale = buckets / (hi - lo);
  if (!(hi > lo) || !std::isfinite(hi - lo) || !std::isfinite(scale)) {
    for (std::size_t i = 0; i < n; ++i) {
      order[i] = {ordered_double_key(segs[i].start), static_cast<std::uint32_t>(i)};
    }
    std::sort(order.begin(), order.end());
    return;
  }
  const auto bucket_of = [&](double start) {
    const double x = (start - lo) * scale;
    return x < buckets ? static_cast<std::size_t>(x) : n - 1;
  };
  if (bucket_end.capacity() < n) bucket_end.reserve(n + n / 8);
  bucket_end.assign(n, 0);
  for (const Segment& s : segs) ++bucket_end[bucket_of(s.start)];
  // Exclusive prefix sums (bucket starts), advanced by the scatter to the
  // bucket ends; the scatter keeps each bucket in ascending index order.
  std::uint32_t run = 0;
  for (std::uint32_t& slot : bucket_end) run += std::exchange(slot, run);
  for (std::size_t i = 0; i < n; ++i) {
    order[bucket_end[bucket_of(segs[i].start)]++] = {ordered_double_key(segs[i].start),
                                                     static_cast<std::uint32_t>(i)};
  }
  constexpr std::uint32_t kSmallBucket = 32;
  for (std::size_t b = 0; b < n; ++b) {
    const std::uint32_t begin = b == 0 ? 0 : bucket_end[b - 1];
    if (bucket_end[b] - begin > kSmallBucket) {
      std::sort(order.begin() + begin, order.begin() + bucket_end[b]);
    }
  }
  for (std::size_t i = 1; i < n; ++i) {
    if (!(order[i] < order[i - 1])) continue;
    const auto entry = order[i];
    std::size_t hole = i;
    do {
      order[hole] = order[hole - 1];
      --hole;
    } while (hole > 0 && entry < order[hole - 1]);
    order[hole] = entry;
  }
}

}  // namespace

Schedule::Schedule(int core_count, std::vector<Segment> segments)
    : core_count_(core_count), segments_(std::move(segments)) {
  for (const Segment& s : this->segments()) check_segment(s);
}

void Schedule::add(Segment segment) {
  check_segment(segment);
  segments_.write().push_back(segment);
}

void Schedule::reserve(std::size_t additional) {
  std::vector<Segment>& segments = segments_.write();
  segments.reserve(segments.size() + additional);
}

std::vector<Segment> Schedule::segments_of_task(TaskId task) const {
  std::vector<Segment> out;
  for (const Segment& s : segments()) {
    if (s.task == task) out.push_back(s);
  }
  std::sort(out.begin(), out.end(),
            [](const Segment& a, const Segment& b) { return a.start < b.start; });
  return out;
}

std::vector<Segment> Schedule::segments_on_core(CoreId core) const {
  std::vector<Segment> out;
  for (const Segment& s : segments()) {
    if (s.core == core) out.push_back(s);
  }
  std::sort(out.begin(), out.end(),
            [](const Segment& a, const Segment& b) { return a.start < b.start; });
  return out;
}

double Schedule::execution_time(TaskId task) const {
  double total = 0.0;
  for (const Segment& s : segments()) {
    if (s.task == task) total += s.duration();
  }
  return total;
}

double Schedule::completed_work(TaskId task) const {
  double total = 0.0;
  for (const Segment& s : segments()) {
    if (s.task == task) total += s.work();
  }
  return total;
}

double Schedule::energy(const PowerModel& power) const {
  double total = 0.0;
  for (const Segment& s : segments()) {
    total += power.energy_for_duration(s.duration(), s.frequency);
  }
  return total;
}

ValidationReport Schedule::validate(const TaskSet& tasks, double work_tol,
                                    double time_tol) const {
  ValidationReport report;
  const std::vector<Segment>& segs = segments();

  // Segment sanity + window containment, accumulating per-task completed
  // work in the same pass (the per-task completed_work() loop over the full
  // segment list is O(T·S) — admission validates after every plan, so this
  // function stays one sort plus linear scans).
  std::vector<double> done(tasks.size(), 0.0);
  double first_start = segs.empty() ? 0.0 : segs.front().start;
  double last_start = first_start;
  for (const Segment& s : segs) {
    first_start = std::min(first_start, s.start);
    last_start = std::max(last_start, s.start);
    if (s.task < 0 || static_cast<std::size_t>(s.task) >= tasks.size()) {
      report.fail("segment references unknown " + describe(s));
      continue;
    }
    if (s.core < 0 || s.core >= core_count_) {
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

  // One start-ordered index over all segments replaces the per-core and
  // per-task sorted copies: scanning in that order, the previously seen
  // segment on the same core (resp. of the same task) is exactly the
  // start-sorted predecessor the adjacent-pair overlap check compares
  // against. The order is ascending (order-preserving key of the start,
  // index): equal starts keep ascending index, and −0 precedes +0.
  // Failures are bucketed and emitted grouped by core then by task,
  // matching the historical report order (the buckets only exist on the
  // failure path; a valid schedule allocates nothing but the index, and
  // that lives in per-thread scratch reused by the next validation).
  thread_local std::vector<std::pair<std::uint64_t, std::uint32_t>> order;
  thread_local std::vector<std::uint32_t> bucket_end;
  start_order(segs, first_start, last_start, order, bucket_end);
  std::vector<const Segment*> last_on_core(static_cast<std::size_t>(std::max(core_count_, 0)),
                                           nullptr);
  std::vector<const Segment*> last_of_task(tasks.size(), nullptr);
  std::vector<std::pair<CoreId, std::string>> core_failures;
  std::vector<std::pair<TaskId, std::string>> task_failures;
  for (const auto& [key, index] : order) {
    const Segment& s = segs[index];
    if (s.core >= 0 && s.core < core_count_) {
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
  // Scratch past the service's plan sizes is returned rather than pinned
  // to the thread for its lifetime.
  constexpr std::size_t kKeptScratch = std::size_t{1} << 18;
  if (order.capacity() > kKeptScratch) {
    order.clear();
    order.shrink_to_fit();
    bucket_end.clear();
    bucket_end.shrink_to_fit();
  }

  // Execution requirements are met.
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

std::size_t Schedule::coalesce(double time_tol, double freq_tol) {
  // The merged list is built beside the current one and then replaces it,
  // which is all the detaching a shared schedule needs.
  const std::vector<Segment>& segs = segments();
  if (segs.empty()) return 0;

  // Group by (task, core) with keys ascending and the original segment order
  // preserved inside each group. A stable counting sort does this in two
  // linear passes over a dense key space; schedules with huge sparse task
  // ids fall back to a stable comparison sort. Both orders match the
  // (task, core)-keyed map this function historically used, so the merged
  // output is unchanged segment for segment.
  TaskId max_task = 0;
  CoreId max_core = 0;
  for (const Segment& s : segs) {
    max_task = std::max(max_task, s.task);
    max_core = std::max(max_core, s.core);
  }
  const std::size_t stride = static_cast<std::size_t>(max_core) + 1;
  const std::size_t key_count = (static_cast<std::size_t>(max_task) + 1) * stride;
  const auto key_of = [stride](const Segment& s) {
    return static_cast<std::size_t>(s.task) * stride + static_cast<std::size_t>(s.core);
  };

  std::vector<Segment> grouped;
  std::vector<std::pair<std::size_t, std::size_t>> group_bounds;
  if (key_count <= 2 * segs.size() + 1024) {
    std::vector<std::size_t> offsets(key_count + 1, 0);
    for (const Segment& s : segs) ++offsets[key_of(s) + 1];
    for (std::size_t k = 0; k < key_count; ++k) offsets[k + 1] += offsets[k];
    grouped.resize(segs.size());
    std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const Segment& s : segs) grouped[cursor[key_of(s)]++] = s;
    group_bounds.reserve(key_count);
    for (std::size_t k = 0; k < key_count; ++k) {
      if (offsets[k + 1] > offsets[k]) group_bounds.emplace_back(offsets[k], offsets[k + 1]);
    }
  } else {
    std::vector<std::size_t> index(segs.size());
    std::iota(index.begin(), index.end(), std::size_t{0});
    std::stable_sort(index.begin(), index.end(), [&](std::size_t a, std::size_t b) {
      return key_of(segs[a]) < key_of(segs[b]);
    });
    grouped.reserve(segs.size());
    for (const std::size_t i : index) grouped.push_back(segs[i]);
    std::size_t begin = 0;
    for (std::size_t i = 1; i <= grouped.size(); ++i) {
      if (i == grouped.size() || key_of(grouped[i]) != key_of(grouped[begin])) {
        group_bounds.emplace_back(begin, i);
        begin = i;
      }
    }
  }

  const std::size_t merges = merge_grouped_segments(grouped, group_bounds, time_tol, freq_tol);
  segments_ = Cow<std::vector<Segment>>(std::move(grouped));
  return merges;
}

}  // namespace easched
