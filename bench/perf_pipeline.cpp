// Performance bench P5: serial vs parallel scheduling kernel.
// Measures `run_pipeline` (both allocation methods end to end) serially and
// fanned out over thread pools of several sizes, plus the interior-point
// solver with and without a pool. The parallel results are bit-identical to
// serial by construction (see parallel/exec.hpp), so this binary measures
// pure speedup, not a different computation.
//
//   perf_pipeline --threads=1,2,4,8 --benchmark_out=BENCH_pipeline.json --benchmark_out_format=json
//
// The emitted JSON embeds google-benchmark's host context (num_cpus!) —
// speedups are only meaningful when the host actually has the cores.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "easched/common/rng.hpp"
#include "easched/parallel/exec.hpp"
#include "easched/sched/incremental.hpp"
#include "easched/sched/pipeline.hpp"
#include "easched/solver/interior_point.hpp"
#include "easched/tasksys/workload.hpp"

namespace {

using namespace easched;

TaskSet make_tasks(std::size_t n) {
  Rng rng(Rng::seed_of("perf-pipeline", n));
  WorkloadConfig config;
  config.task_count = n;
  return generate_workload(config, rng);
}

constexpr int kCores = 4;

void run_pipeline_serial(benchmark::State& state, std::size_t n) {
  const TaskSet tasks = make_tasks(n);
  const PowerModel power(3.0, 0.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_pipeline(tasks, kCores, power));
  }
  state.counters["threads"] = 1.0;
  state.counters["tasks"] = static_cast<double>(n);
}

void run_pipeline_parallel(benchmark::State& state, std::size_t n, std::size_t threads) {
  const TaskSet tasks = make_tasks(n);
  const PowerModel power(3.0, 0.1);
  ThreadPool& pool = bench::pool_for(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_pipeline(tasks, kCores, power, Exec::on(pool)));
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["tasks"] = static_cast<double>(n);
}

// Scaling rows for the sparse kernel: decomposition construction alone, and
// the full planning path (decomposition + ideal case + DER method) that a
// service plan pays. At n = 10000 the pre-sweep dense kernel needed ~0.9 s to
// construct and ~56 s to plan on the baseline host; the CSR arena and the
// row-compressed availability bring the plan under a handful of seconds —
// the checked-in BENCH_pipeline.json records the sparse numbers and the CI
// gate holds them.
void run_construction(benchmark::State& state, std::size_t n) {
  const TaskSet tasks = make_tasks(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SubintervalDecomposition(tasks));
  }
  state.counters["tasks"] = static_cast<double>(n);
}

void run_plan_der(benchmark::State& state, std::size_t n) {
  const TaskSet tasks = make_tasks(n);
  const PowerModel power(3.0, 0.1);
  for (auto _ : state) {
    const SubintervalDecomposition subs(tasks);
    const IdealCase ideal(tasks, power);
    benchmark::DoNotOptimize(
        schedule_with_method(tasks, subs, kCores, power, ideal, AllocationMethod::kDer));
  }
  state.counters["tasks"] = static_cast<double>(n);
}

// The incremental rows run on a constant-density aperiodic *stream*: the
// release horizon grows with n, so per-instant concurrency stays at the
// handful of tasks a 4-core host can actually admit. (The fixed-horizon
// `make_tasks` sets pile thousands of tasks onto every subinterval — there
// a single arrival perturbs the DER ration and the task scales of nearly
// every column, so the exact dirty closure is the whole horizon and no
// delta can be local. Locality is a property of the workload, and the
// service's heavy-traffic regime is the stream.)
TaskSet make_stream(std::size_t n) {
  Rng rng(Rng::seed_of("perf-delta", n));
  WorkloadConfig config;
  config.task_count = n;
  config.release_hi = 10.0 * static_cast<double>(n);
  return generate_workload(config, rng);
}

// A workload-typical probe task in the middle of the stream, boundaries
// off-grid so the splice never collides with a cached value.
TaskSet stream_with_probe(const TaskSet& base) {
  const double mid = 0.5 * (base.earliest_release() + base.latest_deadline());
  std::vector<Task> grown(base.begin(), base.end());
  grown.push_back(Task{mid + 0.1234567891, mid + 42.1098765432, 10.0});
  return TaskSet(std::move(grown));
}

// Single-task delta replan against a warm DeltaPlanner: each iteration
// admits (or removes) one probe task, so the measured cost is the splice —
// dirty-column availability + windowed repack — not a full plan. Compare
// against BM_PlanDerStream at the same n for the incremental speedup; the
// outputs are bit-identical by the planner's exactness contract.
void run_delta_admit(benchmark::State& state, std::size_t n) {
  const TaskSet base = make_stream(n);
  const TaskSet with_probe = stream_with_probe(base);
  const PowerModel power(3.0, 0.1);

  DeltaOptions options;
  options.cores = kCores;
  DeltaPlanner planner(power, options);
  planner.plan_to(base, Exec::serial());

  bool added = false;
  for (auto _ : state) {
    added = !added;
    DeltaOutcome outcome;
    benchmark::DoNotOptimize(
        planner.plan_to(added ? with_probe : base, Exec::serial(), &outcome));
    if (!outcome.delta || outcome.ops != 1) {
      state.SkipWithError("single-op delta declined to the from-scratch path");
      break;
    }
  }
  state.counters["tasks"] = static_cast<double>(n);
}

// The from-scratch cost the delta path displaces: the full DER planning
// pass (decomposition + ideal case + allocation + pack) on the same
// post-admission stream set.
void run_plan_der_stream(benchmark::State& state, std::size_t n) {
  const TaskSet tasks = stream_with_probe(make_stream(n));
  const PowerModel power(3.0, 0.1);
  for (auto _ : state) {
    const SubintervalDecomposition subs(tasks);
    const IdealCase ideal(tasks, power);
    benchmark::DoNotOptimize(
        schedule_with_method(tasks, subs, kCores, power, ideal, AllocationMethod::kDer));
  }
  state.counters["tasks"] = static_cast<double>(n);
}

void run_interior_point(benchmark::State& state, std::size_t n, std::size_t threads) {
  const TaskSet tasks = make_tasks(n);
  const PowerModel power(3.0, 0.1);
  InteriorPointOptions options;
  if (threads > 0) options.pool = &bench::pool_for(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_optimal_interior_point(tasks, kCores, power, options));
  }
  state.counters["threads"] = static_cast<double>(threads == 0 ? 1 : threads);
  state.counters["tasks"] = static_cast<double>(n);
}

}  // namespace

int main(int argc, char** argv) {
  const easched::bench::TraceSession trace(easched::bench::trace_arg(&argc, argv));
  const std::vector<std::size_t> sweep = easched::bench::thread_sweep(&argc, argv);
  const std::size_t max_n = easched::bench::max_tasks_arg(&argc, argv, 10000);

  for (const std::size_t n : {std::size_t{5000}, std::size_t{10000}}) {
    if (n > max_n) continue;
    const std::string construct_name = "BM_SubintervalConstruct/n:" + std::to_string(n);
    benchmark::RegisterBenchmark(construct_name.c_str(),
                                 [n](benchmark::State& s) { run_construction(s, n); });
    const std::string plan_name = "BM_PlanDerSerial/n:" + std::to_string(n);
    benchmark::RegisterBenchmark(plan_name.c_str(),
                                 [n](benchmark::State& s) { run_plan_der(s, n); });
  }

  // Incremental replanning rows; 100k only runs when --n raises the cap.
  for (const std::size_t n : {std::size_t{10000}, std::size_t{100000}}) {
    if (n > max_n) continue;
    const std::string delta_name = "BM_DeltaAdmit/n:" + std::to_string(n);
    benchmark::RegisterBenchmark(delta_name.c_str(),
                                 [n](benchmark::State& s) { run_delta_admit(s, n); });
    const std::string full_name = "BM_PlanDerStream/n:" + std::to_string(n);
    benchmark::RegisterBenchmark(full_name.c_str(),
                                 [n](benchmark::State& s) { run_plan_der_stream(s, n); });
  }

  for (const std::size_t n : {std::size_t{50}, std::size_t{200}, std::size_t{1000}}) {
    const std::string serial_name = "BM_PipelineSerial/n:" + std::to_string(n);
    benchmark::RegisterBenchmark(serial_name.c_str(),
                                 [n](benchmark::State& s) { run_pipeline_serial(s, n); });
    for (const std::size_t threads : sweep) {
      const std::string name = "BM_PipelineParallel/n:" + std::to_string(n) +
                               "/threads:" + std::to_string(threads);
      benchmark::RegisterBenchmark(name.c_str(), [n, threads](benchmark::State& s) {
        run_pipeline_parallel(s, n, threads);
      });
    }
  }

  // The solver scales worse than the pipeline (dense core factorization),
  // so its sweep stops at n = 120 to keep the binary runnable everywhere.
  for (const std::size_t n : {std::size_t{40}, std::size_t{120}}) {
    const std::string serial_name = "BM_InteriorPointSerial/n:" + std::to_string(n);
    benchmark::RegisterBenchmark(serial_name.c_str(),
                                 [n](benchmark::State& s) { run_interior_point(s, n, 0); });
    for (const std::size_t threads : sweep) {
      if (threads <= 1) continue;
      const std::string name = "BM_InteriorPointParallel/n:" + std::to_string(n) +
                               "/threads:" + std::to_string(threads);
      benchmark::RegisterBenchmark(name.c_str(), [n, threads](benchmark::State& s) {
        run_interior_point(s, n, threads);
      });
    }
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
