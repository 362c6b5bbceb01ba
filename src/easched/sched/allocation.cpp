#include "easched/sched/allocation.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <numeric>

#include "easched/common/contracts.hpp"
#include "easched/common/radix.hpp"
#include "easched/parallel/exec.hpp"

namespace easched {

const char* to_string(AllocationMethod method) {
  switch (method) {
    case AllocationMethod::kEven:
      return "even";
    case AllocationMethod::kDer:
      return "der";
  }
  return "?";
}

Availability::Availability(const TaskSet& tasks, const SubintervalDecomposition& subs) {
  EASCHED_EXPECTS(subs.size() > 0);
  subintervals_ = subs.size();
  spans_.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    spans_.push_back(subs.range_of(static_cast<TaskId>(i)));
  }
  offsets_.reserve(spans_.size() + 1);
  offsets_.push_back(0);
  for (const SubRange& r : spans_) offsets_.push_back(offsets_.back() + r.count);
  // Headroom for the delta planner, whose splices grow rows in place: a
  // regrowth there copies every cell into fresh pages, while capacity
  // nothing writes costs address space, not memory.
  values_.reserve(offsets_.back() + offsets_.back() / 8);
  values_.assign(offsets_.back(), 0.0);
  row_sum_.assign(spans_.size(), 0.0);
  col_sum_.assign(subintervals_, 0.0);
}

Availability::Availability(std::vector<SubRange> spans, std::size_t subintervals)
    : spans_(std::move(spans)), subintervals_(subintervals) {
  offsets_.reserve(spans_.size() + 1);
  offsets_.push_back(0);
  for (const SubRange& r : spans_) {
    EASCHED_EXPECTS(r.first + r.count <= subintervals_);
    offsets_.push_back(offsets_.back() + r.count);
  }
  values_.assign(offsets_.back(), 0.0);
  row_sum_.assign(spans_.size(), 0.0);
  col_sum_.assign(subintervals_, 0.0);
}

double Availability::fold_row(std::size_t task) const {
  // Ascending-subinterval order — the same order a dense accumulate over
  // the full row visits the nonzeros, so the sum is bit-identical to it.
  double sum = 0.0;
  for (std::size_t k = offsets_[task]; k < offsets_[task + 1]; ++k) sum += values_[k];
  return sum;
}

void Availability::set_column(std::size_t subinterval, std::span<const TaskId> members,
                              std::span<const double> values) {
  EASCHED_EXPECTS(subinterval < subintervals_ && members.size() == values.size());
  double sum = 0.0;
  for (std::size_t k = 0; k < members.size(); ++k) {
    const auto task = static_cast<std::size_t>(members[k]);
    EASCHED_EXPECTS(task < spans_.size());
    const SubRange& r = spans_[task];
    // One unsigned comparison checks both ends of the span.
    EASCHED_EXPECTS_MSG(subinterval - r.first < r.count,
                        "cell outside the task's live range is structurally zero");
    EASCHED_EXPECTS(values[k] >= 0.0);
    values_[offsets_[task] + (subinterval - r.first)] = values[k];
    sum += values[k];
  }
  col_sum_[subinterval] = sum;
}

void Availability::finalize_row_sums(const Exec& exec) {
  exec.loop(spans_.size(), [&](std::size_t i) { row_sum_[i] = fold_row(i); });
}

void Availability::splice_rows(const SubintervalDecomposition& subs, std::span<const char> dirty,
                               TaskId removed, std::size_t window_first, std::size_t window_count) {
  const std::size_t n = subs.task_count();
  const std::size_t old_n = spans_.size();
  const std::size_t columns = subs.size();
  EASCHED_EXPECTS(dirty.size() == n);
  EASCHED_EXPECTS(removed >= 0 ? old_n == n + 1 && static_cast<std::size_t>(removed) <= n
                               : old_n + 1 == n && dirty[n - 1]);
  EASCHED_EXPECTS(window_first + window_count <= columns);
  // The old window holds the columns the splice inserted or erased.
  const std::size_t old_window_end = window_first + window_count + subintervals_ - columns;
  EASCHED_EXPECTS(old_window_end <= subintervals_);
  const auto cut = static_cast<std::size_t>(removed >= 0 ? removed : static_cast<TaskId>(n));
  const auto old_row = [&](std::size_t i) { return i >= cut ? i + 1 : i; };
  next_offsets_.resize(n + 1);
  next_offsets_[0] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const SubRange r = subs.range_of(static_cast<TaskId>(i));
    EASCHED_ASSERT(dirty[i] || r.count == spans_[old_row(i)].count);
    next_offsets_[i + 1] = next_offsets_[i] + r.count;
  }

  // A row's cells left of the window keep their column, those right of it
  // move with theirs; a clean row lies wholly on one side, a dirty row's
  // cells inside the window are the caller's to rewrite. Rows only grow on
  // an append and only shrink on a removal, so the pieces move back to
  // front in the first case and front to back in the second, and none
  // overwrites one still to move. Adjacent pieces with one shift move as
  // one block.
  const bool grow = removed < 0;
  std::size_t block_from = 0;
  std::size_t block_to = 0;
  std::size_t block_count = 0;
  const auto flush = [&] {
    if (block_count > 0 && block_from != block_to) {
      std::memmove(values_.data() + block_to, values_.data() + block_from,
                   block_count * sizeof(double));
    }
    block_count = 0;
  };
  const auto move = [&](std::size_t from, std::size_t to, std::size_t count) {
    if (count == 0) return;
    const bool joins = block_count > 0 && (grow ? from + count == block_from && to + count == block_to
                                                : block_from + block_count == from &&
                                                      block_to + block_count == to);
    if (!joins) {
      flush();
      block_from = from;
      block_to = to;
    } else if (grow) {
      block_from = from;
      block_to = to;
    }
    block_count += count;
  };
  const auto move_row = [&](std::size_t i) {
    if (!grow || i + 1 < n) {  // the appended row has no old cells
      const SubRange r = spans_[old_row(i)];
      const std::size_t from = offsets_[old_row(i)];
      const std::size_t to = next_offsets_[i];
      const std::size_t left = std::min(r.first + r.count, window_first);
      const std::size_t right = std::max(r.first, old_window_end);
      const std::size_t left_count = left > r.first ? left - r.first : 0;
      const std::size_t right_count = r.first + r.count > right ? r.first + r.count - right : 0;
      // New column of old column `right`: shifted by the inserted count.
      const std::size_t right_to = to + (right + columns - subintervals_) -
                                   subs.range_of(static_cast<TaskId>(i)).first;
      if (grow) {
        move(from + (right - r.first), right_to, right_count);
        move(from, to, left_count);
      } else {
        move(from, to, left_count);
        move(from + (right - r.first), right_to, right_count);
      }
    }
  };
  if (grow) {
    values_.resize(next_offsets_[n]);
    for (std::size_t i = n; i-- > 0;) move_row(i);
    flush();
    row_sum_.push_back(0.0);
  } else {
    for (std::size_t i = 0; i < n; ++i) move_row(i);
    flush();
    values_.resize(next_offsets_[n]);
    row_sum_.erase(row_sum_.begin() + removed);
  }
  offsets_.swap(next_offsets_);
  spans_.resize(n);
  for (std::size_t i = 0; i < n; ++i) spans_[i] = subs.range_of(static_cast<TaskId>(i));

  const auto first = col_sum_.begin() + static_cast<std::ptrdiff_t>(window_first);
  if (columns > subintervals_) {
    col_sum_.insert(first, columns - subintervals_, 0.0);
  } else {
    col_sum_.erase(first, first + static_cast<std::ptrdiff_t>(subintervals_ - columns));
  }
  subintervals_ = columns;
}

void Availability::refold_rows(std::span<const TaskId> rows) {
  for (const TaskId i : rows) {
    EASCHED_EXPECTS(i >= 0 && static_cast<std::size_t>(i) < spans_.size());
    row_sum_[static_cast<std::size_t>(i)] = fold_row(static_cast<std::size_t>(i));
  }
}

std::vector<double> even_ration(std::size_t task_count, int cores, double length) {
  EASCHED_EXPECTS(task_count > 0);
  EASCHED_EXPECTS(cores > 0);
  EASCHED_EXPECTS(length > 0.0);
  const double share =
      std::min(length, static_cast<double>(cores) * length / static_cast<double>(task_count));
  return std::vector<double>(task_count, share);
}

namespace {

/// Reusable per-call storage for the rationing loop: the allocator runs it
/// once per heavy subinterval (tens of thousands of times per plan), so the
/// vectors live in thread-local scratch instead of reallocating each call.
struct RationScratch {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> order;  ///< (key, index), sorted
  std::vector<std::pair<std::uint64_t, std::uint32_t>> swap;   ///< radix ping-pong buffer
  std::vector<double> ration;
};

/// `der_ration` into caller-provided storage; `scratch.ration` holds the
/// result on return.
void der_ration_into(const std::vector<double>& ders, int cores, double length,
                     RationScratch& scratch) {
  EASCHED_EXPECTS(!ders.empty());
  EASCHED_EXPECTS(ders.size() <= std::size_t{UINT32_MAX});  // index fits the radix key pair
  EASCHED_EXPECTS(cores > 0);
  EASCHED_EXPECTS(length > 0.0);

  double total_der = 0.0;
  for (const double d : ders) {
    EASCHED_EXPECTS(d >= 0.0);
    total_der += d;
  }
  if (total_der <= 0.0) {
    // Every overlapping task finished before this subinterval in the ideal
    // schedule (large static power shrinks U^O). The paper leaves this case
    // open; the even split keeps every task schedulable.
    const double share =
        std::min(length, static_cast<double>(cores) * length / static_cast<double>(ders.size()));
    scratch.ration.assign(ders.size(), share);
    return;
  }

  // Algorithm 2: greatest DER first; each task requests its proportional
  // share of the *remaining* capacity, capped at the subinterval length.
  // Descending-DER order with ascending index as tie-break, via an
  // ascending sort of (bit-flipped IEEE key, index) pairs: positive doubles
  // order like their bit patterns, so ascending `~bits` is descending value,
  // and two positive doubles are equal iff their bits are — the order
  // matches a stable descending-value sort of the indices exactly. The
  // indices are distinct, so the pairs are totally ordered: a comparison
  // sort of the pairs and the stable radix sort of the keys agree, and the
  // cutoff picks whichever is faster for the count. Zero-DER tasks are
  // left out entirely: they would sort last, receive
  // `min(length, capacity·0/der) = 0`, and change neither remainder — their
  // rations are already the zeros `assign` wrote. At n = 10000 roughly a
  // quarter of all overlap pairs carry zero DER (the task's ideal stretch
  // ended before the subinterval), so the sort shrinks accordingly.
  scratch.order.clear();
  for (std::size_t i = 0; i < ders.size(); ++i) {
    if (ders[i] > 0.0) {
      scratch.order.push_back(
          {~std::bit_cast<std::uint64_t>(ders[i]), static_cast<std::uint32_t>(i)});
    }
  }
  if (scratch.order.size() <= kDerRadixCutoff) {
    std::sort(scratch.order.begin(), scratch.order.end());
  } else {
    radix_sort_keys(scratch.order, scratch.swap);
  }

  scratch.ration.assign(ders.size(), 0.0);
  double remaining_capacity = static_cast<double>(cores) * length;
  double remaining_der = total_der;
  for (const auto& [key, i] : scratch.order) {
    if (remaining_der <= 0.0 || remaining_capacity <= 0.0) break;
    const double der = std::bit_cast<double>(~key);  // exact round-trip
    const double share = remaining_capacity * der / remaining_der;
    const double granted = std::min(length, share);
    scratch.ration[i] = granted;
    remaining_capacity -= granted;
    remaining_der -= der;
  }
}

}  // namespace

std::vector<double> der_ration(const std::vector<double>& ders, int cores, double length) {
  RationScratch scratch;
  der_ration_into(ders, cores, length, scratch);
  return std::move(scratch.ration);
}

Availability allocate_available_time(const TaskSet& tasks,
                                     const SubintervalDecomposition& subintervals, int cores,
                                     const IdealCase& ideal, AllocationMethod method) {
  return allocate_available_time(tasks, subintervals, cores, ideal, method, Exec::serial());
}

void allocate_column(const SubintervalDecomposition& subintervals, std::size_t j, int cores,
                     const IdealCase& ideal, AllocationMethod method, Availability& avail) {
  const Subinterval& si = subintervals[j];
  // Thread-local scratch: each worker reuses one set of rationing buffers
  // across its subintervals instead of allocating fresh vectors per heavy
  // subinterval. The computed values are independent of the buffers'
  // history, so the result stays bit-identical at any pool size.
  thread_local RationScratch scratch;
  thread_local std::vector<double> ders;
  if (!si.heavy(cores)) {
    // Observation 2: each overlapping task may occupy a whole core. (An
    // empty column still gets its zero sum.)
    scratch.ration.assign(si.overlapping.size(), si.length());
  } else if (method == AllocationMethod::kEven) {
    const double share = std::min(si.length(), static_cast<double>(cores) * si.length() /
                                                   static_cast<double>(si.overlapping.size()));
    scratch.ration.assign(si.overlapping.size(), share);
  } else {
    ders.clear();
    for (const TaskId i : si.overlapping) {
      // DER (equation (24)): ideal execution time in this subinterval,
      // scaled by the ideal frequency.
      ders.push_back(ideal.execution_time_in(i, si.begin, si.end) * ideal.frequency(i));
    }
    der_ration_into(ders, cores, si.length(), scratch);
  }
  avail.set_column(j, si.overlapping, scratch.ration);
}

Availability allocate_available_time(const TaskSet& tasks,
                                     const SubintervalDecomposition& subintervals, int cores,
                                     const IdealCase& ideal, AllocationMethod method,
                                     const Exec& exec) {
  EASCHED_EXPECTS(cores > 0);
  EASCHED_EXPECTS(ideal.size() == tasks.size());

  Availability avail(tasks, subintervals);
  exec.loop(subintervals.size(), [&](std::size_t j) {
    allocate_column(subintervals, j, cores, ideal, method, avail);
  });
  avail.finalize_row_sums(exec);
  return avail;
}

}  // namespace easched
