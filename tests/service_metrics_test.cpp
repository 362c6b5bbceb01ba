// MetricsRegistry: counters, gauges, histograms, text dump, thread-safety
// under concurrent writers.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "easched/service/metrics.hpp"

namespace easched {
namespace {

TEST(MetricsRegistryTest, CountersAccumulate) {
  MetricsRegistry metrics;
  EXPECT_EQ(metrics.counter("admitted_total"), 0u);
  metrics.increment("admitted_total");
  metrics.increment("admitted_total", 4);
  EXPECT_EQ(metrics.counter("admitted_total"), 5u);
}

TEST(MetricsRegistryTest, GaugesOverwrite) {
  MetricsRegistry metrics;
  metrics.set_gauge("queue_depth", 3.0);
  metrics.set_gauge("queue_depth", 7.0);
  EXPECT_DOUBLE_EQ(metrics.gauge("queue_depth"), 7.0);
  EXPECT_DOUBLE_EQ(metrics.gauge("unknown"), 0.0);
}

TEST(MetricsRegistryTest, DumpListsEveryMetricKind) {
  MetricsRegistry metrics;
  metrics.increment("admitted_total", 2);
  metrics.set_gauge("committed_tasks", 2.0);
  metrics.observe_bucketed("batch_size", 4.0);
  const std::string dump = metrics.dump();
  EXPECT_NE(dump.find("counter admitted_total 2"), std::string::npos);
  EXPECT_NE(dump.find("gauge committed_tasks 2"), std::string::npos);
  EXPECT_NE(dump.find("bucket_histogram batch_size count=1"), std::string::npos);
}

TEST(MetricsRegistryTest, ResetClearsEverything) {
  MetricsRegistry metrics;
  metrics.increment("a");
  metrics.set_gauge("b", 1.0);
  metrics.observe_bucketed("c", 1.0);
  metrics.reset();
  EXPECT_EQ(metrics.counter("a"), 0u);
  EXPECT_DOUBLE_EQ(metrics.gauge("b"), 0.0);
  EXPECT_EQ(metrics.bucket_histogram("c").count(), 0u);
}

TEST(MetricsRegistryTest, ConcurrentWritersLoseNothing) {
  MetricsRegistry metrics;
  const int threads = 8;
  const int per_thread = 2000;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&metrics] {
      for (int i = 0; i < per_thread; ++i) {
        metrics.increment("events_total");
        metrics.observe_bucketed("sample", 1.0);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(metrics.counter("events_total"),
            static_cast<std::uint64_t>(threads) * per_thread);
  EXPECT_EQ(metrics.bucket_histogram("sample").count(),
            static_cast<std::uint64_t>(threads) * per_thread);
}

}  // namespace
}  // namespace easched
