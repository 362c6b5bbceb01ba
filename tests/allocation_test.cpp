// Available-time allocation (Observation 2 + Algorithm 2).

#include <gtest/gtest.h>

#include "easched/common/contracts.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "easched/common/rng.hpp"
#include "easched/parallel/exec.hpp"
#include "easched/sched/allocation.hpp"
#include "easched/tasksys/workload.hpp"

namespace easched {
namespace {

TEST(AvailabilityTest, SetGetAndSums) {
  // Task 0 live on subintervals [0, 3), task 1 only on subinterval 2.
  Availability m({{0, 3}, {2, 1}}, 3);
  m.set(0, 0, 1.0);
  m.set(0, 2, 2.0);
  m.set(1, 2, 3.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 0.0);  // outside the span: structurally zero
  EXPECT_DOUBLE_EQ(m.row_sum(0), 3.0);
  EXPECT_DOUBLE_EQ(m.row_sum(1), 3.0);
  EXPECT_DOUBLE_EQ(m.column_sum(2), 5.0);
  EXPECT_EQ(m.value_count(), 4u);  // 3 + 1 stored cells, not 2·3
  EXPECT_THROW(m(2, 0), ContractViolation);
  EXPECT_THROW(m.set(0, 3, 1.0), ContractViolation);
  EXPECT_THROW(m.set(1, 0, 1.0), ContractViolation);  // structurally zero cell
  EXPECT_THROW(m.set(0, 0, -1.0), ContractViolation);
}

TEST(AvailabilityTest, RowSliceAndRangeExposeTheSupport) {
  Availability m({{1, 2}, {0, 0}}, 4);
  m.set(0, 1, 0.5);
  m.set(0, 2, 1.5);
  const SubRange r = m.task_range(0);
  EXPECT_EQ(r.first, 1u);
  EXPECT_EQ(r.count, 2u);
  const auto row = m.row(0);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_DOUBLE_EQ(row[0], 0.5);
  EXPECT_DOUBLE_EQ(row[1], 1.5);
  // A task live nowhere has an empty row and a zero sum.
  EXPECT_EQ(m.row(1).size(), 0u);
  EXPECT_DOUBLE_EQ(m.row_sum(1), 0.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 0.0);
}

TEST(AvailabilityTest, BulkFillMatchesIncrementalSet) {
  Availability bulk({{0, 2}, {1, 2}}, 3);
  Availability incremental({{0, 2}, {1, 2}}, 3);
  bulk.set_in_column(0, 0, 1.25);
  bulk.set_in_column(0, 1, 0.75);
  bulk.set_in_column(1, 1, 2.5);
  bulk.set_in_column(1, 2, 0.5);
  bulk.finalize_row_sums(Exec::serial());
  incremental.set(0, 0, 1.25);
  incremental.set(0, 1, 0.75);
  incremental.set(1, 1, 2.5);
  incremental.set(1, 2, 0.5);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(bulk.row_sum(i), incremental.row_sum(i));
    for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(bulk(i, j), incremental(i, j));
  }
  for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(bulk.column_sum(j), incremental.column_sum(j));
}

TEST(EvenRationTest, SplitsCapacityEvenly) {
  const auto r = even_ration(5, 4, 2.0);
  ASSERT_EQ(r.size(), 5u);
  for (const double v : r) EXPECT_DOUBLE_EQ(v, 8.0 / 5.0);
}

TEST(EvenRationTest, CapsAtLengthWhenFewTasks) {
  // 2 tasks, 4 cores: the even share 4*len/2 exceeds len and must cap.
  const auto r = even_ration(2, 4, 2.0);
  for (const double v : r) EXPECT_DOUBLE_EQ(v, 2.0);
}

TEST(DerRationTest, ReproducesPaperFirstHeavyInterval) {
  // Section V-D, interval [8,10]: DERs 8/5, 7/4, 4/3, 1, 5/3; capacity 8.
  const std::vector<double> ders{8.0 / 5.0, 7.0 / 4.0, 4.0 / 3.0, 1.0, 5.0 / 3.0};
  const auto r = der_ration(ders, 4, 2.0);
  const double expected[] = {1.7415, 1.9048, 1.4512, 1.0884, 1.8141};
  for (std::size_t i = 0; i < ders.size(); ++i) EXPECT_NEAR(r[i], expected[i], 1e-4);
  EXPECT_NEAR(std::accumulate(r.begin(), r.end(), 0.0), 8.0, 1e-9);
}

TEST(DerRationTest, ReproducesPaperSecondHeavyIntervalWithCapping) {
  // Interval [12,14]: DERs 7/4, 4/3, 1, 5/3, 6/5; tau2's proportional share
  // 8*1.75/6.95 > 2 caps at the length; the rest renormalizes.
  const std::vector<double> ders{7.0 / 4.0, 4.0 / 3.0, 1.0, 5.0 / 3.0, 6.0 / 5.0};
  const auto r = der_ration(ders, 4, 2.0);
  const double expected[] = {2.0, 1.5385, 1.1538, 1.9231, 1.3846};
  for (std::size_t i = 0; i < ders.size(); ++i) EXPECT_NEAR(r[i], expected[i], 1e-4);
}

TEST(DerRationTest, NeverExceedsLengthOrCapacity) {
  Rng rng(Rng::seed_of("der-bounds", 0));
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 3 + rng.uniform_index(10);
    const int cores = 1 + static_cast<int>(rng.uniform_index(4));
    if (n <= static_cast<std::size_t>(cores)) continue;
    const double length = rng.uniform(0.5, 5.0);
    std::vector<double> ders(n);
    for (double& d : ders) d = rng.uniform(0.0, 3.0);
    const auto r = der_ration(ders, cores, length);
    double sum = 0.0;
    for (const double v : r) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, length + 1e-9);
      sum += v;
    }
    EXPECT_LE(sum, cores * length + 1e-9);
  }
}

TEST(DerRationTest, ZeroDerTasksGetNothing) {
  const std::vector<double> ders{2.0, 0.0, 1.0};
  const auto r = der_ration(ders, 1, 1.0);
  EXPECT_DOUBLE_EQ(r[1], 0.0);
  EXPECT_GT(r[0], 0.0);
  EXPECT_GT(r[2], 0.0);
}

TEST(DerRationTest, AllZeroDersFallBackToEvenSplit) {
  const std::vector<double> ders{0.0, 0.0, 0.0, 0.0, 0.0};
  const auto r = der_ration(ders, 4, 2.0);
  for (const double v : r) EXPECT_DOUBLE_EQ(v, 8.0 / 5.0);
}

TEST(DerRationTest, MonotoneInDer) {
  // A task with a larger DER never receives less than one with a smaller DER.
  const std::vector<double> ders{0.5, 2.0, 1.0, 1.5};
  const auto r = der_ration(ders, 2, 1.0);
  EXPECT_LE(r[0], r[2] + 1e-12);
  EXPECT_LE(r[2], r[3] + 1e-12);
  EXPECT_LE(r[3], r[1] + 1e-12);
}

/// Algorithm 2 as the paper states it: every index in a stable
/// descending-DER order, zeros included, each granted its share of what
/// remains.
std::vector<double> reference_der_ration(const std::vector<double>& ders, int cores,
                                         double length) {
  double total_der = 0.0;
  for (const double d : ders) total_der += d;
  const double capacity = static_cast<double>(cores) * length;
  if (total_der <= 0.0) {
    return std::vector<double>(ders.size(),
                               std::min(length, capacity / static_cast<double>(ders.size())));
  }
  std::vector<std::size_t> order(ders.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return ders[a] > ders[b]; });
  std::vector<double> ration(ders.size(), 0.0);
  double remaining_capacity = capacity;
  double remaining_der = total_der;
  for (const std::size_t i : order) {
    if (remaining_der <= 0.0 || remaining_capacity <= 0.0) break;
    const double granted = std::min(length, remaining_capacity * ders[i] / remaining_der);
    ration[i] = granted;
    remaining_capacity -= granted;
    remaining_der -= ders[i];
  }
  return ration;
}

TEST(DerRationTest, OrderMatchesAStableDescendingSortAtEverySize) {
  // Sizes on both sides of the comparison-sort/radix cutoff (which counts
  // the positive DERs), with ties, zeros and subnormals mixed in. The
  // rations depend on the visiting order, so bit-equal rations pin it.
  Rng rng(Rng::seed_of("der-order", 0));
  const double tie_pool[] = {0.75, 1.0 / 3.0, 2.5, std::numeric_limits<double>::denorm_min()};
  for (std::size_t n = 1; n <= 2 * kDerRadixCutoff; ++n) {
    for (int trial = 0; trial < 6; ++trial) {
      const double zero_share = 0.1 * trial;
      std::vector<double> ders(n);
      for (double& d : ders) {
        const double u = rng.uniform();
        if (u < zero_share) {
          d = 0.0;
        } else if (u < zero_share + 0.25) {
          d = tie_pool[rng.uniform_index(4)];
        } else if (u < zero_share + 0.35) {
          d = std::numeric_limits<double>::denorm_min() *
              static_cast<double>(1 + rng.uniform_index(1000));
        } else {
          d = rng.uniform(1e-3, 4.0);
        }
      }
      const int cores = 1 + static_cast<int>(rng.uniform_index(8));
      const double length = rng.uniform(0.1, 5.0);
      const std::vector<double> actual = der_ration(ders, cores, length);
      const std::vector<double> expected = reference_der_ration(ders, cores, length);
      ASSERT_EQ(actual.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(actual[i]), std::bit_cast<std::uint64_t>(expected[i]))
            << "n=" << n << " trial=" << trial << " i=" << i;
      }
    }
  }
}

TEST(AllocateAvailableTimeTest, LightIntervalsGrantFullLength) {
  const TaskSet ts({{0.0, 4.0, 2.0}, {2.0, 6.0, 2.0}});
  const SubintervalDecomposition subs(ts);
  const PowerModel power(3.0, 0.0);
  const IdealCase ideal(ts, power);
  const auto avail = allocate_available_time(ts, subs, 2, ideal, AllocationMethod::kEven);
  // All subintervals are light on 2 cores: availability = subinterval length
  // wherever the task covers it.
  for (std::size_t j = 0; j < subs.size(); ++j) {
    for (const TaskId i : subs[j].overlapping) {
      EXPECT_DOUBLE_EQ(avail(static_cast<std::size_t>(i), j), subs[j].length());
    }
  }
}

TEST(AllocateAvailableTimeTest, NonCoveredCellsStayZero) {
  const TaskSet ts({{0.0, 4.0, 2.0}, {2.0, 6.0, 2.0}});
  const SubintervalDecomposition subs(ts);
  const IdealCase ideal(ts, PowerModel(3.0, 0.0));
  const auto avail = allocate_available_time(ts, subs, 2, ideal, AllocationMethod::kDer);
  EXPECT_DOUBLE_EQ(avail(1, 0), 0.0);  // task 1 not released in [0,2]
  EXPECT_DOUBLE_EQ(avail(0, 2), 0.0);  // task 0 past deadline in [4,6]
}

TEST(AllocateAvailableTimeTest, CapacityRespectedOnRandomHeavyWorkloads) {
  Rng rng(Rng::seed_of("alloc-capacity", 0));
  WorkloadConfig config;
  config.task_count = 30;  // plenty of heavy subintervals on 2 cores
  const TaskSet ts = generate_workload(config, rng);
  const SubintervalDecomposition subs(ts);
  const PowerModel power(3.0, 0.1);
  const IdealCase ideal(ts, power);
  const int cores = 2;
  for (const auto method : {AllocationMethod::kEven, AllocationMethod::kDer}) {
    const auto avail = allocate_available_time(ts, subs, cores, ideal, method);
    for (std::size_t j = 0; j < subs.size(); ++j) {
      if (subs[j].heavy(cores)) {
        EXPECT_LE(avail.column_sum(j), cores * subs[j].length() + 1e-9);
      }
      for (std::size_t i = 0; i < ts.size(); ++i) {
        EXPECT_LE(avail(i, j), subs[j].length() + 1e-9);
      }
    }
  }
}

TEST(ToStringTest, MethodNames) {
  EXPECT_STREQ(to_string(AllocationMethod::kEven), "even");
  EXPECT_STREQ(to_string(AllocationMethod::kDer), "der");
}

}  // namespace
}  // namespace easched
