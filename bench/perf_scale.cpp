// Performance bench P9: loopback admission throughput versus shard count.
//
// BM_LoopbackAdmission stands up the full network stack in one process —
// Supervisor fleet, epoll FrontEnd, a BlockingClient over 127.0.0.1 — and
// measures admissions/sec end to end: frame encode, TCP round trip, worker
// dispatch, shard admission, response decode. Run at shards ∈ {1, 2, 4, 8}
// it answers the scaling question the supervisor was built for; the CI perf
// gate pins the shards=1 row (`BENCH_scale.json`) so single-connection wire
// overhead cannot silently regress.
//
// Timing: `MeasureProcessCPUTime` — the client thread spends its life
// blocked in recv(), so thread CPU time would measure almost nothing. The
// process-wide figure charges the loop thread, the op workers, and the
// shard planners to each admission, which is the cost that matters.
//
// BM_FrameRoundTrip is the socket-free codec baseline (encode + incremental
// decode of one admit frame) separating protocol cost from transport cost.
//
// BM_BatchedAdmission / BM_PipelinedAdmission measure the PR-10 wire modes:
// N tasks per kAdmitBatch frame, and N single-task frames in flight at once.
// Both amortize the per-round-trip cost the per-frame bench pays in full;
// the perf gate requires the batched row to hold its win over
// BM_LoopbackAdmission/1.
//
// BM_ShardScaledAdmission is the shard-scaling row: S connections × S
// shards with S op workers, each connection driving its own shard, all in
// flight at once. BM_LoopbackAdmission keeps one request in flight, so extra
// shards cannot show there; the /4 over /1 admissions/s ratio is the
// scaling the shard fleet buys on the host.

#include <benchmark/benchmark.h>

#include <atomic>
#include <barrier>
#include <cstdint>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "easched/common/rng.hpp"
#include "easched/net/client.hpp"
#include "easched/net/front_end.hpp"
#include "easched/net/pipelined_client.hpp"
#include "easched/net/protocol.hpp"
#include "easched/service/supervisor.hpp"
#include "easched/tasksys/task_set.hpp"

namespace {

using namespace easched;

PowerModel bench_power() { return PowerModel(3.0, 0.1); }

SupervisorOptions fleet_options(const std::string& name, std::size_t shards) {
  SupervisorOptions options;
  options.shards = shards;
  options.data_dir =
      (std::filesystem::temp_directory_path() / ("perf_scale_" + name)).string();
  std::filesystem::remove_all(options.data_dir);
  std::filesystem::create_directories(options.data_dir);
  options.service.cores = 2;
  options.service.f_max = kInf;
  return options;
}

void BM_LoopbackAdmission(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  Supervisor supervisor(bench_power(),
                        fleet_options("s" + std::to_string(shards), shards));
  net::FrontEnd front_end(supervisor, net::FrontEndOptions{});
  front_end.start();
  net::BlockingClient client;
  client.connect("127.0.0.1", front_end.port());

  // One tenant per shard keeps every shard's journal warm; completing each
  // admitted task keeps the committed set (and thus per-admit planning
  // cost) constant across iterations.
  Rng rng(Rng::seed_of("perf-scale", shards));
  std::uint64_t sequence = 0;
  for (auto _ : state) {
    net::AdmitRequest admit;
    admit.tenant = "tenant-" + std::to_string(sequence % shards);
    admit.rid = "perf-" + std::to_string(sequence);
    const double release = rng.uniform(0.0, 5.0);
    admit.task = Task{release, release + 20.0, rng.uniform(0.5, 1.5)};
    const net::AdmitResponse response = client.admit(admit);
    if (response.status != net::Status::kOk) {
      state.SkipWithError(("admit failed: " + response.reason).c_str());
      break;
    }
    net::TaskOpRequest done;
    done.tenant = admit.tenant;
    done.id = response.id;
    benchmark::DoNotOptimize(client.complete_task(done));
    ++sequence;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["admissions_per_s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
  const net::FrontEndStats stats = front_end.stats();
  state.counters["frames"] = static_cast<double>(stats.frames_received);
  front_end.stop();
}
BENCHMARK(BM_LoopbackAdmission)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// Batched wire path: one kAdmitBatch frame of `batch` tasks per round trip.
// Admitted tasks are completed in process (supervisor.complete(), not over
// the wire) so the measured loop is purely the admission wire path — the
// number this bench exists to compare against per-frame BM_LoopbackAdmission.
//
// Workload control: task windows are pairwise disjoint (each task gets its
// own 25-unit slot). The per-frame row completes after every admit, so its
// committed set never exceeds one task; inside a batch completes cannot
// interleave, and overlapping windows would grow each admission's planning
// work with the batch position — a cost that varies with batch size, not
// with the wire mode. Disjoint windows hold per-admission planning work
// comparable across the rows, so their ratio measures the round-trip
// amortization the batched op exists to buy.
void BM_BatchedAdmission(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Supervisor supervisor(bench_power(), fleet_options("b" + std::to_string(batch), 1));
  net::FrontEnd front_end(supervisor, net::FrontEndOptions{});
  front_end.start();
  net::BlockingClient client;
  client.connect("127.0.0.1", front_end.port());

  Rng rng(Rng::seed_of("perf-scale-batch", batch));
  std::uint64_t sequence = 0;
  for (auto _ : state) {
    net::AdmitBatchRequest request;
    request.items.resize(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      net::AdmitBatchItem& item = request.items[i];
      item.tenant = "tenant-0";
      item.rid = "perfb-" + std::to_string(sequence);
      const double slot = static_cast<double>(sequence) * 25.0;
      const double release = slot + rng.uniform(0.0, 5.0);
      item.task = Task{release, release + 20.0, rng.uniform(0.5, 1.5)};
      ++sequence;
    }
    const net::AdmitBatchResponse response = client.admit_batch(request);
    if (response.status != net::Status::kOk || response.items.size() != batch) {
      state.SkipWithError(("batch failed: " + response.reason).c_str());
      break;
    }
    state.PauseTiming();
    for (const net::AdmitResponse& item : response.items) {
      if (item.status != net::Status::kOk) {
        state.SkipWithError(("batch item failed: " + item.reason).c_str());
        break;
      }
      supervisor.complete("tenant-0", static_cast<TaskId>(item.id));
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
  state.counters["admissions_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(batch),
      benchmark::Counter::kIsRate);
  front_end.stop();
}
BENCHMARK(BM_BatchedAdmission)
    ->Arg(16)
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// Pipelined wire path: single-task frames, `window` of them in flight on one
// connection. Completions happen in process, off the measured wire path, and
// task windows are pairwise disjoint, both as in BM_BatchedAdmission (the
// whole wave is admitted before any completes, so overlapping windows would
// charge later wave members growing planning work).
void BM_PipelinedAdmission(benchmark::State& state) {
  const auto window = static_cast<std::size_t>(state.range(0));
  Supervisor supervisor(bench_power(), fleet_options("p" + std::to_string(window), 1));
  net::FrontEnd front_end(supervisor, net::FrontEndOptions{});
  front_end.start();
  net::PipelinedClient client(window);
  client.connect("127.0.0.1", front_end.port());

  Rng rng(Rng::seed_of("perf-scale-pipeline", window));
  std::uint64_t sequence = 0;
  std::vector<std::future<net::AdmitResponse>> wave;
  wave.reserve(window);
  for (auto _ : state) {
    // One wave = `window` pipelined admits issued back to back, then drained.
    wave.clear();
    for (std::size_t i = 0; i < window; ++i) {
      net::AdmitRequest admit;
      admit.tenant = "tenant-0";
      admit.rid = "perfp-" + std::to_string(sequence);
      const double slot = static_cast<double>(sequence) * 25.0;
      const double release = slot + rng.uniform(0.0, 5.0);
      admit.task = Task{release, release + 20.0, rng.uniform(0.5, 1.5)};
      wave.push_back(client.admit(admit));
      ++sequence;
    }
    std::vector<TaskId> admitted;
    admitted.reserve(window);
    for (std::future<net::AdmitResponse>& future : wave) {
      const net::AdmitResponse response = future.get();
      if (response.status != net::Status::kOk) {
        state.SkipWithError(("admit failed: " + response.reason).c_str());
        break;
      }
      admitted.push_back(static_cast<TaskId>(response.id));
    }
    state.PauseTiming();
    for (const TaskId id : admitted) supervisor.complete("tenant-0", id);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(window));
  state.counters["admissions_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(window),
      benchmark::Counter::kIsRate);
  client.close();
  front_end.stop();
}
BENCHMARK(BM_PipelinedAdmission)
    ->Arg(32)
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// Per-frame admit + complete, as in BM_LoopbackAdmission, on `shards`
// connections at once. Each connection's tenant is picked through
// `Supervisor::route` so its load lands on its own shard; an iteration is
// `kRound` admits per connection, driven by one thread per connection.
void BM_ShardScaledAdmission(benchmark::State& state) {
  constexpr int kRound = 16;
  const auto shards = static_cast<std::size_t>(state.range(0));
  Supervisor supervisor(bench_power(), fleet_options("k" + std::to_string(shards), shards));
  net::FrontEndOptions front_options;
  front_options.workers = shards;
  net::FrontEnd front_end(supervisor, front_options);
  front_end.start();

  std::vector<std::string> tenants(shards);
  for (std::size_t found = 0, i = 0; found < shards; ++i) {
    const std::string tenant = "tenant-" + std::to_string(i);
    std::string& owner = tenants[supervisor.route(tenant)];
    if (owner.empty()) {
      owner = tenant;
      ++found;
    }
  }

  // Drivers meet the timing thread twice per iteration: once to start a
  // round, once when every connection has finished it.
  std::barrier sync(static_cast<std::ptrdiff_t>(shards + 1));
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::vector<std::jthread> drivers;
  for (std::size_t k = 0; k < shards; ++k) {
    drivers.emplace_back([&, k] {
      net::BlockingClient client;
      client.connect("127.0.0.1", front_end.port());
      Rng rng(Rng::seed_of("perf-scale-shards", shards, k));
      std::uint64_t sequence = 0;
      for (;;) {
        sync.arrive_and_wait();
        if (stop.load()) return;
        for (int r = 0; r < kRound && !failed.load(); ++r) {
          net::AdmitRequest admit;
          admit.tenant = tenants[k];
          admit.rid = "perfk-" + std::to_string(k) + "-" + std::to_string(sequence++);
          const double release = rng.uniform(0.0, 5.0);
          admit.task = Task{release, release + 20.0, rng.uniform(0.5, 1.5)};
          const net::AdmitResponse response = client.admit(admit);
          if (response.status != net::Status::kOk) {
            failed.store(true);
            break;
          }
          net::TaskOpRequest done;
          done.tenant = admit.tenant;
          done.id = response.id;
          benchmark::DoNotOptimize(client.complete_task(done));
        }
        sync.arrive_and_wait();
      }
    });
  }
  for (auto _ : state) {
    sync.arrive_and_wait();
    sync.arrive_and_wait();
    if (failed.load()) {
      state.SkipWithError("admit failed");
      break;
    }
  }
  stop.store(true);
  sync.arrive_and_wait();
  drivers.clear();

  const double admits =
      static_cast<double>(state.iterations()) * static_cast<double>(shards) * kRound;
  state.SetItemsProcessed(static_cast<std::int64_t>(admits));
  state.counters["admissions_per_s"] = benchmark::Counter(admits, benchmark::Counter::kIsRate);
  front_end.stop();
}
BENCHMARK(BM_ShardScaledAdmission)
    ->Arg(1)
    ->Arg(4)
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_FrameRoundTrip(benchmark::State& state) {
  net::AdmitRequest admit;
  admit.tenant = "tenant-codec";
  admit.rid = "rid-0123456789abcdef";
  admit.task = Task{1.0, 21.0, 0.75};
  net::FrameDecoder decoder;
  for (auto _ : state) {
    const std::string wire = net::encode_frame(net::Op::kAdmit, /*response=*/false, 42,
                                               net::encode_admit_request(admit));
    decoder.feed(wire);
    net::AdmitRequest decoded;
    if (!net::decode_admit_request(decoder.frames().back().payload, decoded)) {
      state.SkipWithError("decode failed");
      break;
    }
    decoder.frames().clear();
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrameRoundTrip);

}  // namespace

BENCHMARK_MAIN();
