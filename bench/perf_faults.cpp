// Performance bench P6: what fault tolerance costs.
// (1) Fallback-path planning latency versus the happy path: an injected
//     exact-solver stall or an expired budget must degrade to the F2 rung in
//     roughly heuristic time, not hang at solver time.
// (2) The idle fault hooks: planning with no injector installed must match
//     pre-fault-injection latency (one relaxed atomic load per hook).
// (3) The admission WAL: journaled admission versus in-memory admission.
// (4) Supervision: the same journaled stream routed through a one-shard
//     supervisor (ring lookup, shard lock, crash-containment try block,
//     brownout observation) — the overhead budget is <= 10% over (3).
// Counters feed `BENCH_faults.json` so the fallback-path baseline is kept
// alongside the service/pipeline baselines.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "easched/common/rng.hpp"
#include "easched/faults/fault_injection.hpp"
#include "easched/sched/fallback.hpp"
#include "easched/service/service.hpp"
#include "easched/service/supervisor.hpp"
#include "easched/tasksys/workload.hpp"

namespace {

using namespace easched;

PowerModel bench_power() { return PowerModel(3.0, 0.1); }

TaskSet bench_tasks(std::size_t n) {
  Rng rng(Rng::seed_of("perf-faults", n));
  WorkloadConfig config;
  config.task_count = n;
  return generate_workload(config, rng);
}

// Happy path, default chain: the F2 rung serves (identical work to the
// pre-fallback planner — this is the baseline the other benches compare to).
void BM_PlanHappyPathF2(benchmark::State& state) {
  const TaskSet tasks = bench_tasks(static_cast<std::size_t>(state.range(0)));
  const PowerModel power = bench_power();
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan_with_fallback(tasks, 4, power));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlanHappyPathF2)->Arg(12)->Arg(24)->Unit(benchmark::kMicrosecond);

// Happy path with the exact rung on top (converging solve, no faults).
void BM_PlanExactConverges(benchmark::State& state) {
  const TaskSet tasks = bench_tasks(static_cast<std::size_t>(state.range(0)));
  const PowerModel power = bench_power();
  FallbackOptions options;
  options.try_exact = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan_with_fallback(tasks, 4, power, options));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlanExactConverges)->Arg(12)->Arg(24)->Unit(benchmark::kMicrosecond);

// Fallback path: every exact attempt stalls (injected), the chain escalates
// to F2. The gap to BM_PlanHappyPathF2 is the price of the failed rung.
void BM_PlanFallbackAfterStall(benchmark::State& state) {
  const TaskSet tasks = bench_tasks(static_cast<std::size_t>(state.range(0)));
  const PowerModel power = bench_power();
  FallbackOptions options;
  options.try_exact = true;
  FaultInjector injector(FaultPlan::parse("solver_stall:p=1"));
  faults::FaultScope scope(injector);
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan_with_fallback(tasks, 4, power, options));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlanFallbackAfterStall)->Arg(12)->Arg(24)->Unit(benchmark::kMicrosecond);

// Fallback path via an already-expired wall-clock budget: the exact rung
// must notice in O(one budget check) and fall through.
void BM_PlanFallbackAfterTimeout(benchmark::State& state) {
  const TaskSet tasks = bench_tasks(static_cast<std::size_t>(state.range(0)));
  const PowerModel power = bench_power();
  for (auto _ : state) {
    FallbackOptions options;
    options.try_exact = true;
    options.budget = PlanBudget::within(std::chrono::microseconds(0));
    benchmark::DoNotOptimize(plan_with_fallback(tasks, 4, power, options));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlanFallbackAfterTimeout)->Arg(12)->Arg(24)->Unit(benchmark::kMicrosecond);

ServiceOptions admission_options() {
  ServiceOptions options;
  options.cores = 2;
  return options;
}

std::vector<Task> admission_stream(std::size_t n) {
  Rng rng(Rng::seed_of("perf-faults-stream", n));
  std::vector<Task> stream;
  stream.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Task t;
    t.release = rng.uniform(0.0, 50.0);
    t.work = rng.uniform(1.0, 4.0);
    t.deadline = t.release + t.work / rng.uniform(0.2, 0.8);
    stream.push_back(t);
  }
  return stream;
}

// Admission without a journal (the in-memory baseline)...
void BM_ServiceAdmission(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<Task> stream = admission_stream(n);
  const PowerModel power = bench_power();
  for (auto _ : state) {
    SchedulerService service(power, admission_options());
    for (const Task& t : stream) benchmark::DoNotOptimize(service.submit(t));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ServiceAdmission)->Arg(64)->Unit(benchmark::kMillisecond);

// ...versus write-ahead-journaled admission: every admit pays one flushed
// append inside the decision path.
void BM_ServiceAdmissionJournaled(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<Task> stream = admission_stream(n);
  const PowerModel power = bench_power();
  const std::string path = "perf_faults_journal.wal";
  for (auto _ : state) {
    std::remove(path.c_str());
    ServiceOptions options = admission_options();
    options.journal_path = path;
    SchedulerService service(power, options);
    for (const Task& t : stream) benchmark::DoNotOptimize(service.submit(t));
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ServiceAdmissionJournaled)->Arg(64)->Unit(benchmark::kMillisecond);

// ...versus the same journaled stream behind a one-shard supervisor: the
// consistent-hash route, the shard's crash-containment boundary, and the
// brownout observation all sit on the happy path. The gap to
// BM_ServiceAdmissionJournaled is the supervision tax (budget: <= 10%).
void BM_SupervisedAdmission(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<Task> stream = admission_stream(n);
  const PowerModel power = bench_power();
  const std::string dir = "perf_faults_fleet";
  for (auto _ : state) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    SupervisorOptions options;
    options.shards = 1;
    options.data_dir = dir;
    options.service = admission_options();
    Supervisor supervisor(power, options);
    for (const Task& t : stream) {
      benchmark::DoNotOptimize(supervisor.submit("tenant-0", t));
    }
  }
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SupervisedAdmission)->Arg(64)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // --trace=<path> arms span recording for the whole run (the degraded
  // streams then show their rung fallbacks in Perfetto).
  const easched::bench::TraceSession trace(easched::bench::trace_arg(&argc, argv));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
