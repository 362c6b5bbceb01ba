/// \file runtime_service_test.cpp
/// \brief The service's what-if runtime simulation: plans the committed
///        set, executes it online, and lands decision counters and
///        reclaimed-slack / sleep-residency histograms in the metrics
///        registry (Prometheus-exportable).

#include <gtest/gtest.h>

#include <string>

#include "easched/obs/prometheus.hpp"
#include "easched/power/power_model.hpp"
#include "easched/runtime/runtime.hpp"
#include "easched/service/service.hpp"

namespace easched {
namespace {

ServiceOptions service_options() {
  ServiceOptions options;
  options.cores = 2;
  return options;
}

TEST(RuntimeServiceTest, SimulatesCommittedPlanAndRecordsMetrics) {
  const PowerModel power(3.0, 0.05);
  SchedulerService service(power, service_options());
  ASSERT_TRUE(service.submit({0.0, 30.0, 8.0}).admission.admitted);
  ASSERT_TRUE(service.submit({5.0, 60.0, 12.0}).admission.admitted);
  ASSERT_TRUE(service.submit({10.0, 90.0, 6.0}).admission.admitted);

  RuntimeOptions opt;
  opt.policy = RuntimePolicy::kCycleConserving;
  opt.dpm = true;
  opt.dpm_config.idle_power = power.static_power();
  opt.dpm_config.wake_latency = 0.5;
  opt.dpm_config.wake_energy = 0.05;
  opt.acet.ratio = 0.5;
  opt.acet.seed = 11;
  const RuntimeReport report = service.simulate_runtime(opt);

  EXPECT_EQ(report.completions, 3u);
  EXPECT_TRUE(report.all_deadlines_met());
  EXPECT_GT(report.energy.total(), 0.0);
  EXPECT_GT(report.planned_energy, 0.0);

  MetricsRegistry& metrics = service.metrics();
  EXPECT_EQ(metrics.counter("runtime_simulations_total"), 1u);
  EXPECT_EQ(metrics.counter("runtime_runs_total"), 1u);
  EXPECT_EQ(metrics.counter("runtime_completions_total"), 3u);
  EXPECT_EQ(metrics.counter("runtime_missed_deadlines_total"), 0u);
  EXPECT_GT(metrics.counter("runtime_events_total"), 0u);
  EXPECT_DOUBLE_EQ(metrics.gauge("runtime_realized_energy"), report.energy.total());
  EXPECT_DOUBLE_EQ(metrics.gauge("runtime_planned_energy"), report.planned_energy);

  // The what-if is a simulation: the committed set must be untouched.
  EXPECT_EQ(service.committed_count(), 3u);
}

TEST(RuntimeServiceTest, HistogramsExportThroughPrometheus) {
  const PowerModel power(3.0, 0.05);
  SchedulerService service(power, service_options());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        service.submit({5.0 * i, 5.0 * i + 40.0, 10.0}).admission.admitted);
  }
  RuntimeOptions opt;
  opt.policy = RuntimePolicy::kLookAhead;
  opt.dpm = true;
  opt.dpm_config.idle_power = power.static_power();
  opt.acet.ratio = 0.4;
  const RuntimeReport report = service.simulate_runtime(opt);
  EXPECT_GT(report.reclamations, 0u);

  const std::string exposition = obs::to_prometheus(service.metrics().snapshot());
  EXPECT_NE(exposition.find("easched_runtime_reclaimed_slack_bucket"), std::string::npos);
  EXPECT_NE(exposition.find("easched_runtime_sleep_residency_bucket"), std::string::npos);
  EXPECT_NE(exposition.find("easched_runtime_runs_total"), std::string::npos);
  EXPECT_NE(exposition.find("easched_runtime_realized_energy"), std::string::npos);
}

TEST(RuntimeServiceTest, EmptyCommittedSetSimulatesTrivially) {
  const PowerModel power(3.0, 0.05);
  SchedulerService service(power, service_options());
  const RuntimeReport report = service.simulate_runtime();
  EXPECT_EQ(report.completions, 0u);
  EXPECT_DOUBLE_EQ(report.energy.total(), 0.0);
  EXPECT_EQ(service.metrics().counter("runtime_simulations_total"), 1u);
}

}  // namespace
}  // namespace easched
