// Performance bench P4: the service layer's traffic-shaped claims.
// (1) Batched admission beats per-request admission on requests/sec: one
//     energy baseline per batch (cache-carried between batches) versus the
//     two full pipeline runs standalone `admit_task` pays per request.
// (2) The plan cache turns repeated quotes/plan reads of an unchanged
//     committed set into O(signature) work.
// Custom counters report requests/sec, cache hit rate, and re-plan latency
// quantiles so `BENCH_service.json` captures a full service baseline.

#include <benchmark/benchmark.h>

#include <vector>

#include "easched/common/rng.hpp"
#include "easched/sched/admission.hpp"
#include "easched/service/service.hpp"
#include "easched/tasksys/task_set.hpp"

namespace {

using namespace easched;

constexpr int kCores = 2;
constexpr double kFMax = 1.0;

PowerModel bench_power() { return PowerModel(3.0, 0.1); }

/// A saturating request stream: early requests are admitted, later ones
/// bounce off the feasibility test — the regime a deployed service lives in.
std::vector<Task> make_stream(std::size_t n, std::uint64_t seed) {
  Rng rng(Rng::seed_of("perf-service", seed, n));
  std::vector<Task> stream;
  stream.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Task t;
    t.release = rng.uniform(0.0, 50.0);
    t.work = rng.uniform(5.0, 15.0);
    t.deadline = t.release + t.work / rng.uniform(0.2, 0.9);
    stream.push_back(t);
  }
  return stream;
}

ServiceOptions service_options(std::size_t max_batch) {
  ServiceOptions options;
  options.cores = kCores;
  options.f_max = kFMax;
  options.max_batch = max_batch;
  return options;
}

// Baseline: standalone per-request admission. Every request pays its own
// energy baseline (admit_task re-derives the committed plan each call).
void BM_PerRequestAdmission(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<Task> stream = make_stream(n, 1);
  const PowerModel power = bench_power();
  for (auto _ : state) {
    std::vector<Task> committed;
    for (const Task& t : stream) {
      const AdmissionDecision d = admit_task(TaskSet(committed), t, kCores, power, kFMax);
      if (d.admitted) committed.push_back(t);
    }
    benchmark::DoNotOptimize(committed);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  state.counters["rps"] =
      benchmark::Counter(static_cast<double>(state.iterations() * static_cast<std::int64_t>(n)),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PerRequestAdmission)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

// The service path: same stream, batched admission + plan cache.
void BM_ServiceBatchedAdmission(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto max_batch = static_cast<std::size_t>(state.range(1));
  std::vector<ServiceRequest> requests;
  for (const Task& t : make_stream(n, 1)) requests.push_back({t, ""});
  const PowerModel power = bench_power();
  double hit_rate = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  for (auto _ : state) {
    SchedulerService service(power, service_options(max_batch));
    benchmark::DoNotOptimize(service.submit_batch(requests));
    hit_rate = service.metrics().gauge("plan_cache_hit_rate");
    const obs::BucketHistogram latency = service.metrics().bucket_histogram("replan_latency_us");
    p50 = latency.quantile(0.50);
    p99 = latency.quantile(0.99);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  state.counters["rps"] =
      benchmark::Counter(static_cast<double>(state.iterations() * static_cast<std::int64_t>(n)),
                         benchmark::Counter::kIsRate);
  state.counters["cache_hit_rate"] = hit_rate;
  state.counters["replan_p50_us"] = p50;
  state.counters["replan_p99_us"] = p99;
}
BENCHMARK(BM_ServiceBatchedAdmission)
    ->Args({64, 16})
    ->Args({64, 64})
    ->Args({256, 16})
    ->Args({256, 64})
    ->Unit(benchmark::kMillisecond);

// Steady-state reads: quotes and plan fetches against an unchanged set.
void BM_ServiceCachedQuote(benchmark::State& state) {
  const PowerModel power = bench_power();
  SchedulerService service(power, service_options(64));
  for (const Task& t : make_stream(32, 2)) service.submit(t);
  const Task candidate{10.0, 40.0, 8.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.quote(candidate));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["cache_hit_rate"] = service.metrics().gauge("plan_cache_hit_rate");
}
BENCHMARK(BM_ServiceCachedQuote);

void BM_ServiceColdQuote(benchmark::State& state) {
  const PowerModel power = bench_power();
  SchedulerService service(power, [] {
    ServiceOptions options = service_options(64);
    options.cache_capacity = 0;  // every quote re-plans
    return options;
  }());
  for (const Task& t : make_stream(32, 2)) service.submit(t);
  const Task candidate{10.0, 40.0, 8.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.quote(candidate));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServiceColdQuote);

}  // namespace

BENCHMARK_MAIN();
