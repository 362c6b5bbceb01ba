// MetricsRegistry under concurrent load: dumps and snapshots taken during a
// hot observation burst must be consistent (no torn reads, no lost updates
// afterwards), because `dump()` formats from a one-critical-section
// snapshot instead of holding the registry lock through string work. Also
// covers the Prometheus exposition of every metric kind.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "easched/obs/prometheus.hpp"
#include "easched/service/metrics.hpp"

namespace easched {
namespace {

TEST(MetricsContention, DumpDuringHotBurstIsConsistent) {
  MetricsRegistry metrics;
  metrics.declare_buckets("latency_us", obs::default_latency_buckets_us());

  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 20000;
  std::atomic<bool> stop{false};
  std::atomic<int> dumps{0};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&metrics, w] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        metrics.increment("events_total");
        metrics.set_gauge("last_writer", static_cast<double>(w));
        metrics.observe_bucketed("sampled_us", static_cast<double>(i % 997));
        metrics.observe_bucketed("latency_us", static_cast<double>(i % 997));
      }
    });
  }

  // Reader thread: hammer dump()/snapshot() while the writers burst. Every
  // snapshot must be internally consistent — the bucketed histogram's total
  // equals the sum of its bucket counts.
  std::thread reader([&metrics, &stop, &dumps] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string text = metrics.dump();
      EXPECT_NE(text.find("counter events_total"), std::string::npos);
      const MetricsSnapshot snap = metrics.snapshot();
      const auto it = snap.bucketed.find("latency_us");
      if (it != snap.bucketed.end()) {
        std::uint64_t bucket_total = 0;
        for (const std::uint64_t c : it->second.counts()) bucket_total += c;
        EXPECT_EQ(bucket_total, it->second.count());
      }
      ++dumps;
    }
  });

  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_GT(dumps.load(), 0);
  // No update lost to a concurrent dump.
  EXPECT_EQ(metrics.counter("events_total"),
            static_cast<std::uint64_t>(kWriters) * kOpsPerWriter);
  EXPECT_EQ(metrics.bucket_histogram("latency_us").count(),
            static_cast<std::uint64_t>(kWriters) * kOpsPerWriter);
  EXPECT_EQ(metrics.bucket_histogram("sampled_us").count(),
            static_cast<std::uint64_t>(kWriters) * kOpsPerWriter);
}

TEST(MetricsContention, SetCounterOverwritesForRestore) {
  MetricsRegistry metrics;
  metrics.increment("requests_total", 3);
  metrics.set_counter("requests_total", 100);
  metrics.increment("requests_total");
  EXPECT_EQ(metrics.counter("requests_total"), 101u);
}

TEST(MetricsPrometheus, ExposesEveryMetricKind) {
  MetricsRegistry metrics;
  metrics.increment("requests_total", 7);
  metrics.set_gauge("committed_tasks", 3.0);
  metrics.declare_buckets("latency_us", {1.0, 10.0, 100.0});
  metrics.observe_bucketed("latency_us", 5.0);
  metrics.observe_bucketed("latency_us", 50.0);
  metrics.observe_bucketed("latency_us", 5000.0);  // overflow

  const std::string text = obs::to_prometheus(metrics.snapshot());

  EXPECT_NE(text.find("# TYPE easched_requests_total counter"), std::string::npos);
  EXPECT_NE(text.find("easched_requests_total 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE easched_committed_tasks gauge"), std::string::npos);

  // Bucketed histograms export cumulative le-buckets plus +Inf, _sum, _count.
  EXPECT_NE(text.find("# TYPE easched_latency_us histogram"), std::string::npos);
  EXPECT_NE(text.find("easched_latency_us_bucket{le=\"1\"} 0"), std::string::npos);
  EXPECT_NE(text.find("easched_latency_us_bucket{le=\"10\"} 1"), std::string::npos);
  EXPECT_NE(text.find("easched_latency_us_bucket{le=\"100\"} 2"), std::string::npos);
  EXPECT_NE(text.find("easched_latency_us_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("easched_latency_us_count 3"), std::string::npos);
}

TEST(MetricsPrometheus, SanitizesMetricNames) {
  EXPECT_EQ(obs::prometheus_metric_name("plan latency.us"),
            "easched_plan_latency_us");
  EXPECT_EQ(obs::prometheus_metric_name("9lives"), "easched_9lives");
  // Empty input still yields a valid metric name.
  EXPECT_FALSE(obs::prometheus_metric_name("", "").empty());
}

}  // namespace
}  // namespace easched
