// SchedulerService under concurrency: batched admission must be
// deterministic (same accept/reject set as sequential arrival-order
// admission, also with four threads submitting at once), and a
// multi-client soak must never miss a deadline among admitted tasks.

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "easched/common/rng.hpp"
#include "easched/power/power_model.hpp"
#include "easched/sched/admission.hpp"
#include "easched/service/service.hpp"
#include "easched/sim/executor.hpp"

namespace easched {
namespace {

PowerModel test_power() { return PowerModel(/*alpha=*/3.0, /*static_power=*/0.1); }

Task random_task(Rng& rng) {
  Task t;
  t.release = rng.uniform(0.0, 50.0);
  t.work = rng.uniform(5.0, 15.0);
  const double intensity = rng.uniform(0.2, 0.9);
  t.deadline = t.release + t.work / intensity;
  return t;
}

/// Replay `stream` through standalone sequential admission and return the
/// per-request decisions.
std::vector<AdmissionDecision> sequential_reference(const std::vector<Task>& stream,
                                                    const PowerModel& power, int cores,
                                                    double f_max) {
  std::vector<AdmissionDecision> decisions;
  decisions.reserve(stream.size());
  std::vector<Task> committed;
  for (const Task& t : stream) {
    AdmissionDecision d = admit_task(TaskSet(committed), t, cores, power, f_max);
    if (d.admitted) committed.push_back(t);
    decisions.push_back(std::move(d));
  }
  return decisions;
}

TEST(ServiceDeterminismTest, OneBatchMatchesSequentialArrivalOrderAdmission) {
  const PowerModel power = test_power();
  const int cores = 2;
  const double f_max = 1.0;

  Rng rng(Rng::seed_of("service-determinism", 1));
  std::vector<Task> stream;
  for (int i = 0; i < 40; ++i) stream.push_back(random_task(rng));

  ServiceOptions options;
  options.cores = cores;
  options.f_max = f_max;
  options.max_batch = stream.size();  // force a single batch
  SchedulerService service(power, options);

  std::vector<ServiceRequest> requests;
  requests.reserve(stream.size());
  for (const Task& t : stream) requests.push_back({t, ""});
  const std::vector<ServiceDecision> decisions = service.submit_batch(requests);
  ASSERT_EQ(decisions.size(), stream.size());
  EXPECT_EQ(service.metrics().counter("batches_total"), 1u);

  const auto reference = sequential_reference(stream, power, cores, f_max);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const ServiceDecision& got = decisions[i];
    EXPECT_EQ(got.sequence, i);
    EXPECT_EQ(got.admission.admitted, reference[i].admitted) << "request " << i;
    EXPECT_EQ(got.admission.rejection_reason, reference[i].rejection_reason);
    EXPECT_NEAR(got.admission.energy_before, reference[i].energy_before, 1e-9);
    EXPECT_NEAR(got.admission.energy_after, reference[i].energy_after, 1e-9);
    EXPECT_NEAR(got.admission.marginal_energy, reference[i].marginal_energy, 1e-9);
  }
}

TEST(ServiceDeterminismTest, ConcurrentSubmissionMatchesSequentialReplayOfArrivalOrder) {
  const PowerModel power = test_power();
  const int cores = 2;
  const double f_max = 1.0;

  ServiceOptions options;
  options.cores = cores;
  options.f_max = f_max;
  SchedulerService service(power, options);

  const int clients = 4;
  const int per_client = 30;
  std::vector<std::vector<std::pair<Task, ServiceDecision>>> per_thread(
      static_cast<std::size_t>(clients));
  {
    std::vector<std::thread> workers;
    workers.reserve(clients);
    for (int c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        Rng rng(Rng::seed_of("service-concurrent", static_cast<std::uint64_t>(c)));
        for (int i = 0; i < per_client; ++i) {
          Task t = random_task(rng);
          per_thread[static_cast<std::size_t>(c)].emplace_back(t, service.submit(t));
        }
      });
    }
    for (auto& w : workers) w.join();
  }

  // Recover the service's arrival order from the sequence numbers, then
  // replay that order sequentially: decisions must match exactly.
  std::vector<std::pair<Task, ServiceDecision>> by_sequence;
  for (const auto& client : per_thread) {
    by_sequence.insert(by_sequence.end(), client.begin(), client.end());
  }
  std::sort(by_sequence.begin(), by_sequence.end(),
            [](const auto& a, const auto& b) { return a.second.sequence < b.second.sequence; });

  std::vector<Task> stream;
  stream.reserve(by_sequence.size());
  for (const auto& [task, decision] : by_sequence) stream.push_back(task);
  const auto reference = sequential_reference(stream, power, cores, f_max);

  for (std::size_t i = 0; i < by_sequence.size(); ++i) {
    const AdmissionDecision& got = by_sequence[i].second.admission;
    EXPECT_EQ(got.admitted, reference[i].admitted) << "arrival " << i;
    EXPECT_EQ(got.rejection_reason, reference[i].rejection_reason);
    EXPECT_NEAR(got.energy_after, reference[i].energy_after, 1e-9);
  }
}

TEST(ServiceSoakTest, FourClientsThousandRequestsZeroMissesAmongAdmitted) {
  const PowerModel power = test_power();
  ServiceOptions options;
  options.cores = 2;
  options.f_max = 1.0;
  SchedulerService service(power, options);

  const int clients = 4;
  const int per_client = 250;
  std::vector<std::thread> workers;
  std::vector<std::vector<ServiceDecision>> decisions(static_cast<std::size_t>(clients));
  workers.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      Rng rng(Rng::seed_of("service-soak", static_cast<std::uint64_t>(c)));
      for (int i = 0; i < per_client; ++i) {
        decisions[static_cast<std::size_t>(c)].push_back(service.submit(random_task(rng)));
      }
    });
  }
  for (auto& w : workers) w.join();

  std::size_t admitted = 0;
  std::size_t rejected = 0;
  for (const auto& client : decisions) {
    for (const ServiceDecision& d : client) {
      if (d.admission.admitted) {
        ++admitted;
        EXPECT_GE(d.id, 0);
      } else {
        ++rejected;
        EXPECT_FALSE(d.admission.rejection_reason.empty());
      }
    }
  }
  EXPECT_EQ(admitted + rejected, static_cast<std::size_t>(clients * per_client));
  EXPECT_EQ(service.metrics().counter("requests_total"),
            static_cast<std::uint64_t>(clients * per_client));
  EXPECT_EQ(service.committed_count(), admitted);
  ASSERT_GT(admitted, 0u) << "soak workload saturated before admitting anything";
  ASSERT_GT(rejected, 0u) << "soak workload never saturated; admission untested";

  // The acceptance bar: every admitted task meets its deadline in the
  // executed plan. (The F2 plan may exceed `f_max` on heavy stretches —
  // Section VI-C — admission only guarantees a feasible schedule exists.)
  const TaskSet committed = service.committed_task_set();
  const Schedule plan = service.current_plan();
  const ValidationReport report = plan.validate(committed, 1e-6);
  EXPECT_TRUE(report.ok) << (report.violations.empty() ? "" : report.violations.front());
  const ExecutionReport executed = execute_schedule(committed, plan, power_function(power));
  EXPECT_TRUE(executed.all_deadlines_met())
      << executed.missed_deadline_count() << " deadline misses among admitted tasks";

  // Every call ran as a batch and the cache carried the baseline between
  // them.
  EXPECT_GT(service.metrics().bucket_histogram("batch_size").count(), 0u);
  EXPECT_GT(service.metrics().counter("plan_cache_hits_total"), 0u);
}

}  // namespace
}  // namespace easched
