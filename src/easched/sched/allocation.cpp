#include "easched/sched/allocation.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
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
  reshape(tasks, subs);
}

void Availability::reshape(const TaskSet& tasks, const SubintervalDecomposition& subs) {
  EASCHED_EXPECTS(subs.size() > 0);
  subintervals_ = subs.size();
  spans_.clear();
  spans_.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    spans_.push_back(subs.range_of(static_cast<TaskId>(i)));
  }
  offsets_.reserve(spans_.size() + 1);
  offsets_.assign(1, 0);
  for (const SubRange& r : spans_) offsets_.push_back(offsets_.back() + r.count);
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

void Availability::rebuild_sums(const SubintervalDecomposition& subs, const Exec& exec) {
  EASCHED_EXPECTS(subs.size() == subintervals_);
  exec.loop(subintervals_, [&](std::size_t j) {
    // Ascending-member order — the order `set_in_column` accumulates column
    // j during a bulk fill (and x + 0.0 == x exactly for x ≥ +0.0, so
    // structural zeros cannot perturb the fold).
    double sum = 0.0;
    for (const TaskId i : subs[j].overlapping) sum += (*this)(static_cast<std::size_t>(i), j);
    col_sum_[j] = sum;
  });
  finalize_row_sums(exec);
}

void Availability::finalize_row_sums(const Exec& exec) {
  exec.loop(spans_.size(), [&](std::size_t i) {
    // Ascending-subinterval order — the same order a dense accumulate over
    // the full row visits the nonzeros, so the sum is bit-identical to it.
    double sum = 0.0;
    for (std::size_t k = offsets_[i]; k < offsets_[i + 1]; ++k) sum += values_[k];
    row_sum_[i] = sum;
  });
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
  if (si.overlapping.empty()) return;

  if (!si.heavy(cores)) {
    // Observation 2: each overlapping task may occupy a whole core.
    for (const TaskId i : si.overlapping) {
      avail.set_in_column(static_cast<std::size_t>(i), j, si.length());
    }
    return;
  }

  // Thread-local scratch: each worker reuses one set of rationing buffers
  // across its subintervals instead of allocating fresh vectors per heavy
  // subinterval. The computed values are independent of the buffers'
  // history, so the result stays bit-identical at any pool size.
  thread_local RationScratch scratch;
  thread_local std::vector<double> ders;
  if (method == AllocationMethod::kEven) {
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
  for (std::size_t k = 0; k < si.overlapping.size(); ++k) {
    avail.set_in_column(static_cast<std::size_t>(si.overlapping[k]), j, scratch.ration[k]);
  }
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
