// e2e_layers — the per-layer replay of the admission-service benchmark.
//
//   e2e_layers --workload dense_live --seed 1 --state S --data-dir KILLED
//              --work-dir TMP --seconds 10 --trace-out trace_dense_live.json
//
// Replays the op stream that e2e_client's open loop sends, on one thread
// and back to back, starting from the fleet state the e2e run's server left
// when it was SIGKILLed right after warmup (KILLED, with the held tasks in
// the state file S). Every op runs against three targets:
//
//   wire    an in-process FrontEnd over its own Supervisor (a copy of
//           KILLED), driven through BlockingClient, or PipelinedClient for
//           batches;
//   twin    a second Supervisor on its own copy, called directly;
//   shadow  the leaf functions the service calls for the op —
//           plan_signature, PlanCache::{lookup,insert}, DeltaPlanner::plan_to,
//           Schedule::validate, AdmissionJournal::append_* — run on
//           per-shard copies of the committed sets, shards chosen with
//           Supervisor::route.
//
// Both fleets are deterministic, so op i does identical work in each, and
// self times come by subtraction: net.self = wire - twin and service.self =
// twin - the op's shadow leaves. The replay checks that wire and twin give
// bit-identical answers. Nothing under src/ is instrumented: each span is
// recorded here around a call into a public function, kept in a
// preallocated vector and written as a Chrome trace at exit.
//
// The shadow also runs what the service does not, as reference points: the
// same plan_to on Exec::serial() (parallel.*), and plan_with_fallback from
// scratch on every plan the delta path declined plus every 64th plan
// (sched.full_plan_us).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "easched/common/cli.hpp"
#include "easched/net/client.hpp"
#include "easched/net/front_end.hpp"
#include "easched/net/pipelined_client.hpp"
#include "easched/parallel/exec.hpp"
#include "easched/sched/fallback.hpp"
#include "easched/sched/incremental.hpp"
#include "easched/service/journal.hpp"
#include "easched/service/plan_cache.hpp"
#include "easched/service/snapshot.hpp"
#include "easched/service/supervisor.hpp"
#include "workload.hpp"

namespace {

using namespace easched;
using Clock = std::chrono::steady_clock;
using e2e::Arrival;
using e2e::Shape;
using e2e::Workload;
namespace fs = std::filesystem;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

double us_between(std::int64_t from, std::int64_t to) {
  return static_cast<double>(to - from) / 1e3;
}

/// Every plan with this period also gets a from-scratch reference plan.
constexpr std::size_t kFullPlanPeriod = 64;
/// Span capacity of the trace; recording stops (timing goes on) when full.
constexpr std::size_t kSpanCapacity = std::size_t{1} << 18;

/// Chrome-trace spans of the replay. Each op is a root span carrying the
/// op's id; its layer spans nest under it by time on the one replay thread.
class SpanLog {
 public:
  SpanLog() { spans_.reserve(kSpanCapacity); }

  /// Room left for another op's spans.
  bool has_room() const { return spans_.size() + 64 <= kSpanCapacity; }

  void add(const char* name, std::int64_t start, std::int64_t end, std::uint64_t op) {
    spans_.push_back({name, start, end - start, op});
  }

  std::string chrome_json() const {
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
           "\"args\":{\"name\":\"replay\"}}";
    char buf[256];
    for (const Span& s : spans_) {
      std::snprintf(buf, sizeof(buf),
                    ",{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"%s\",\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"op\":%llu}}",
                    s.name, static_cast<double>(s.start_ns - origin) / 1e3,
                    static_cast<double>(s.dur_ns) / 1e3, static_cast<unsigned long long>(s.op));
      out += buf;
    }
    out += "]}\n";
    return out;
  }

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    std::uint64_t op;
  };
  std::vector<Span> spans_;
};

/// Samples and counters of the replay.
struct Samples {
  std::vector<double> wire_us, wire_traced_us, wire_untraced_us;
  std::vector<double> net_self_us, encode_us, decode_us;
  std::vector<double> submit_us, batch_item_us, complete_us, quote_us, service_self_us;
  std::vector<double> delta_us, delta_serial_us, validate_us, full_plan_us;
  std::vector<double> signature_us, cache_lookup_us, cache_insert_us, journal_us;
  double wire_total_us = 0.0, twin_total_us = 0.0;  ///< over admit frames
  double plan_in_submit_us = 0.0;                    ///< plan_to + validate inside admits
  std::size_t admits = 0, plans = 0, delta_plans = 0, declined = 0;
  std::size_t delta_ops = 0, dirty_columns = 0, segments = 0;
  std::size_t mismatches = 0;
};

/// The op being replayed: where its leaf times go.
struct OpContext {
  SpanLog& log;
  Samples& samples;
  std::uint64_t op = 0;
  bool traced = false;
  bool in_admit = false;    ///< leaf plan time also counts toward sched.submit_share
  double leaves_us = 0.0;   ///< Σ shadow leaves on the service's own path

  /// Time `fn`, file the sample under `into`, optionally as a service leaf.
  template <typename Fn>
  auto time(const char* name, std::vector<double>& into, bool leaf, Fn&& fn) {
    const std::int64_t start = now_ns();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      finish(name, into, leaf, start);
    } else {
      auto result = fn();
      finish(name, into, leaf, start);
      return result;
    }
  }

 private:
  void finish(const char* name, std::vector<double>& into, bool leaf, std::int64_t start) {
    const std::int64_t end = now_ns();
    const double us = us_between(start, end);
    into.push_back(us);
    if (leaf) leaves_us += us;
    if (traced) log.add(name, start, end, op);
  }
};

/// One shard's committed set and planning state, advanced through the same
/// leaf calls `SchedulerService` makes (manual dispatch, F2 top rung,
/// incremental delta planning, no brownout).
class ShadowShard {
 public:
  ShadowShard(const PowerModel& power, std::vector<std::pair<TaskId, Task>> committed,
              TaskId next_id, const std::string& wal)
      : power_(power),
        committed_(std::move(committed)),
        next_id_(next_id),
        pooled_(power, delta_options()),
        serial_(power, delta_options()),
        journal_(wal) {
    // A fleet recovered from the post-warmup data dir plans its committed
    // set while snapshotting (the warmup's server started from an empty
    // snapshot, so no cached plan is restored): planner and cache start warm.
    signature_ = plan_signature(committed_, kQuantum);
    if (!committed_.empty()) {
      const TaskSet set = task_set(committed_);
      const DeltaPlan plan = pooled_.plan_to(set, Exec::global());
      serial_.plan_to(set, Exec::serial());
      cache_.insert(signature_, CachedPlan{plan.energy, plan.schedule, PlanRung::kDer});
    }
  }

  TaskId next_id() const { return next_id_; }

  /// `SchedulerService::quote`: baseline, then the merged set uncommitted.
  void quote(const Task& task, OpContext& ctx) {
    baseline(ctx);
    merged(task, ctx);
  }

  /// One admission batch on this shard (a single admit is a batch of one).
  void admit(const std::vector<std::pair<Task, std::string>>& items, OpContext& ctx) {
    baseline(ctx);
    for (const auto& [task, rid] : items) {
      auto [set, signature] = merged(task, ctx);
      ctx.time("journal.append", ctx.samples.journal_us, true,
               [&] { journal_.append_admit(next_id_, task, rid); });
      committed_ = std::move(set);
      signature_ = std::move(signature);
      signature_valid_ = true;
      ++next_id_;
    }
  }

  void complete(TaskId id, OpContext& ctx) {
    const auto it = std::find_if(committed_.begin(), committed_.end(),
                                 [id](const auto& entry) { return entry.first == id; });
    if (it == committed_.end()) {
      ++ctx.samples.mismatches;
      return;
    }
    committed_.erase(it);
    signature_valid_ = false;
    ctx.time("journal.append", ctx.samples.journal_us, true,
             [&] { journal_.append_complete(id); });
  }

  std::uint64_t journal_bytes() const { return journal_.size_bytes(); }
  std::uint64_t journal_records() const { return journal_.appended(); }

 private:
  static constexpr double kQuantum = 1e-6;

  static DeltaOptions delta_options() {
    DeltaOptions options;
    options.cores = e2e::kCores;
    return options;
  }

  static TaskSet task_set(const std::vector<std::pair<TaskId, Task>>& live) {
    std::vector<Task> tasks;
    tasks.reserve(live.size());
    for (const auto& [id, task] : live) tasks.push_back(task);
    return TaskSet(std::move(tasks));
  }

  void baseline(OpContext& ctx) {
    if (!signature_valid_) {
      signature_ = ctx.time("plan_signature", ctx.samples.signature_us, true,
                            [&] { return plan_signature(committed_, kQuantum); });
      signature_valid_ = true;
    }
    plan(committed_, signature_, ctx);
  }

  std::pair<std::vector<std::pair<TaskId, Task>>, std::string> merged(const Task& task,
                                                                      OpContext& ctx) {
    std::vector<std::pair<TaskId, Task>> set = committed_;
    set.emplace_back(next_id_, task);
    std::string signature = signature_;
    ctx.time("plan_signature", ctx.samples.signature_us, true,
             [&] { append_plan_signature(signature, next_id_, task, kQuantum); });
    plan(set, signature, ctx);
    return {std::move(set), std::move(signature)};
  }

  /// `SchedulerService::plan_set_locked` on the delta path.
  void plan(const std::vector<std::pair<TaskId, Task>>& live, const std::string& signature,
            OpContext& ctx) {
    if (live.empty()) return;
    Samples& s = ctx.samples;
    const auto hit = ctx.time("cache.lookup", s.cache_lookup_us, true,
                              [&] { return cache_.lookup(signature); });
    if (hit) return;
    const TaskSet set = task_set(live);
    DeltaOutcome outcome;
    const double leaves_before = ctx.leaves_us;
    DeltaPlan plan = ctx.time("plan_to", s.delta_us, true,
                              [&] { return pooled_.plan_to(set, Exec::global(), &outcome); });
    const ValidationReport report =
        ctx.time("validate", s.validate_us, true, [&] { return plan.schedule.validate(set); });
    if (ctx.in_admit) s.plan_in_submit_us += ctx.leaves_us - leaves_before;
    ctx.time("plan_to.serial", s.delta_serial_us, false,
             [&] { serial_.plan_to(set, Exec::serial()); });
    ++s.plans;
    s.segments += plan.schedule.segments().size();
    if (outcome.delta) {
      ++s.delta_plans;
      s.delta_ops += outcome.ops;
      s.dirty_columns += outcome.dirty_columns;
    } else {
      ++s.declined;
    }
    // The service never serves an invalid plan; the shadow must not see one.
    if (!report.ok || !std::isfinite(plan.energy)) ++s.mismatches;
    if (!outcome.delta || s.plans % kFullPlanPeriod == 0) {
      ctx.time("plan_with_fallback", s.full_plan_us, false, [&] {
        return plan_with_fallback(set, e2e::kCores, power_, FallbackOptions{}, Exec::global());
      });
    }
    ctx.time("cache.insert", s.cache_insert_us, true, [&] {
      cache_.insert(signature, CachedPlan{plan.energy, std::move(plan.schedule), PlanRung::kDer});
    });
  }

  PowerModel power_;
  std::vector<std::pair<TaskId, Task>> committed_;
  TaskId next_id_;
  std::string signature_;
  bool signature_valid_ = true;
  PlanCache cache_;
  DeltaPlanner pooled_;
  DeltaPlanner serial_;
  AdmissionJournal journal_;
};

/// The fleet `easched_cli serve --listen 0 --shards 2 --cores 4` runs.
SupervisorOptions fleet_options(const std::string& data_dir) {
  SupervisorOptions options;
  options.shards = e2e::kShards;
  options.data_dir = data_dir;
  options.service.cores = e2e::kCores;
  options.brownout_enabled = false;
  return options;
}

const PowerModel& power_model() {
  static const PowerModel power(3.0, 0.1);  // easched_cli's --alpha / --p0 defaults
  return power;
}

struct Held {
  std::uint64_t index = 0;
  TaskId id = 0;
};

double median(const std::vector<double>& v) { return e2e::percentile(v, 50); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (const double x : v) total += x;
  return total;
}

class Replay {
 public:
  Replay(const Workload& workload, std::uint64_t seed, const std::string& killed,
         const std::string& work_dir)
      : workload_(workload), seed_(seed) {
    fs::remove_all(work_dir);
    fs::create_directories(work_dir);
    // Recovery over copies of the killed data dir; the first is timed and
    // dropped, the other two become the fleets.
    for (const char* name : {"recovery", "twin", "wire"}) {
      const std::string dir = work_dir + "/" + name;
      fs::copy(killed, dir, fs::copy_options::recursive);
      const std::int64_t start = now_ns();
      auto fleet = std::make_unique<Supervisor>(power_model(), fleet_options(dir));
      recovery_s_.push_back(us_between(start, now_ns()) / 1e6);
      if (std::string_view(name) == "twin") twin_ = std::move(fleet);
      if (std::string_view(name) == "wire") wire_fleet_ = std::move(fleet);
    }
    for (std::size_t k = 0; k < twin_->shard_count(); ++k) {
      const std::vector<TaskId> ids = twin_->shard(k).committed_ids();
      const TaskSet tasks = twin_->shard(k).committed_task_set();
      std::vector<std::pair<TaskId, Task>> committed;
      for (std::size_t i = 0; i < ids.size(); ++i) committed.emplace_back(ids[i], tasks[i]);
      const std::string base = work_dir + "/twin/shard" + std::to_string(k);
      const TaskId next_id = read_snapshot(base + ".snap").next_id;
      shadow_.push_back(std::make_unique<ShadowShard>(
          power_model(), std::move(committed), next_id,
          work_dir + "/shadow" + std::to_string(k) + ".wal"));
    }
    net::FrontEndOptions fe;
    fe.workers = 2;  // easched_cli's --net-workers default
    front_end_ = std::make_unique<net::FrontEnd>(*wire_fleet_, fe);
    front_end_->start();
    client_.connect("127.0.0.1", front_end_->port());
    if (workload.shape == Shape::kBurstBatch) {
      pipelined_ = std::make_unique<net::PipelinedClient>(e2e::kPipelineWindow);
      pipelined_->connect("127.0.0.1", front_end_->port());
    }
  }

  ~Replay() {
    client_.close();
    if (pipelined_) pipelined_->close();
    if (front_end_) front_end_->stop();
  }

  Replay(const Replay&) = delete;
  Replay& operator=(const Replay&) = delete;

  /// Replay from the warmup's end: `state` is the e2e run's state file as
  /// the warmup left it, matching the SIGKILLed data dir.
  void run(const e2e::State& state, double seconds) {
    for (const auto& [index, id] : state.held) held_.push_back({index, static_cast<TaskId>(id)});
    const std::uint64_t first = state.next;
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    std::uint64_t next = first;
    for (std::uint64_t clump = 0; Clock::now() < deadline; ++clump) {
      // Every other arrival (or clump) records spans, so trace.overhead_frac
      // can compare the two halves while the span log has room.
      comparing_ = log_.has_room();
      group_traced_ = comparing_ && clump % 2 == 0;
      if (workload_.shape == Shape::kBurstBatch) {
        const std::uint64_t count = e2e::clump_size(seed_, first, clump);
        std::vector<Arrival> arrivals;
        for (std::uint64_t j = 0; j < count; ++j) {
          arrivals.push_back(e2e::make_arrival(workload_, seed_, next + j));
        }
        next += count;
        batch(arrivals);
      } else {
        const Arrival a = e2e::make_arrival(workload_, seed_, next++);
        if (a.quote) quote(a);
        if (a.admit) admit(a);
      }
      while (held_.size() > workload_.live_target) {
        complete(held_.front());
        held_.pop_front();
      }
    }
    // The quote probe of e2e_client's audit phase, on the twin: quotes of
    // fresh arrivals, never admitted, after the stream.
    if (workload_.shape != Shape::kQuoteAdmit) {
      for (std::uint64_t k = 0; k < e2e::kProbeQuotes; ++k) {
        const Arrival a = e2e::make_arrival(workload_, seed_, next + k);
        const std::int64_t start = now_ns();
        const auto t = twin_->quote(a.tenant, a.task);
        samples_.quote_us.push_back(us_between(start, now_ns()));
        check(t && t->admitted);
      }
    }
  }

  e2e::JsonLine report() const {
    const Samples& s = samples_;
    const net::FrontEndStats fe = front_end_->stats();
    std::uint64_t journal_bytes = 0;
    std::uint64_t journal_records = 0;
    for (const auto& shard : shadow_) {
      journal_bytes += shard->journal_bytes();
      journal_records += shard->journal_records();
    }
    e2e::JsonLine line;
    line.num("ops", static_cast<double>(op_))
        .num("mismatches", static_cast<double>(s.mismatches))
        .num("net.wire_admit_us", median(s.wire_us))
        .num("net.self_us", median(s.net_self_us))
        .num("net.self_p99_us", e2e::percentile(s.net_self_us, 99))
        .num("net.self_share", ratio(s.wire_total_us - s.twin_total_us, s.wire_total_us))
        .num("net.encode_us", median(s.encode_us))
        .num("net.decode_us", median(s.decode_us))
        .num("net.bytes_per_admit", ratio(static_cast<double>(fe.bytes_received + fe.bytes_sent),
                                          static_cast<double>(s.admits)))
        .num("parallel.delta_serial_us", median(s.delta_serial_us))
        .num("parallel.speedup", ratio(sum(s.delta_serial_us), sum(s.delta_us)))
        .num("sched.delta_us", median(s.delta_us))
        .num("sched.delta_p99_us", e2e::percentile(s.delta_us, 99))
        .num("sched.dirty_columns_per_op",
             ratio(static_cast<double>(s.dirty_columns), static_cast<double>(s.delta_ops)))
        .num("sched.delta_hit_ratio",
             ratio(static_cast<double>(s.delta_plans), static_cast<double>(s.plans)))
        .num("sched.declines_per_frame",
             ratio(static_cast<double>(s.declined), static_cast<double>(s.wire_us.size())))
        .num("sched.plans_per_admit",
             ratio(static_cast<double>(s.plans), static_cast<double>(s.admits)))
        .num("sched.validate_us", median(s.validate_us))
        .num("sched.segments_per_plan",
             ratio(static_cast<double>(s.segments), static_cast<double>(s.plans)))
        .num("sched.full_plan_us", median(s.full_plan_us))
        .num("sched.submit_share", ratio(s.plan_in_submit_us, s.twin_total_us))
        .num("service.submit_us", median(s.submit_us))
        .num("service.submit_p99_us", e2e::percentile(s.submit_us, 99))
        .num("service.self_us", median(s.service_self_us))
        .num("service.complete_us", median(s.complete_us))
        .num("service.quote_us", median(s.quote_us))
        .num("service.batch_item_us", median(s.batch_item_us))
        .num("service.signature_us", median(s.signature_us))
        .num("service.cache_insert_us", median(s.cache_insert_us))
        .num("service.cache_lookup_us", median(s.cache_lookup_us))
        .num("service.journal_append_us", median(s.journal_us))
        .num("service.journal_bytes_per_op",
             ratio(static_cast<double>(journal_bytes), static_cast<double>(journal_records)))
        .num("service.recovery_s", median(recovery_s_))
        .num("trace.overhead_frac",
             ratio(median(s.wire_traced_us), median(s.wire_untraced_us)) - 1.0);
    return line;
  }

  std::string trace_json() const { return log_.chrome_json(); }

 private:
  OpContext begin_op() {
    OpContext ctx{log_, samples_, op_++, group_traced_};
    return ctx;
  }

  void end_op(OpContext& ctx, const char* name, std::int64_t start) {
    if (ctx.traced) log_.add(name, start, now_ns(), ctx.op);
  }

  /// Time one call into a fleet ("wire" or "twin") as a span of the op.
  template <typename Fn>
  auto fleet_call(OpContext& ctx, const char* name, double& us, Fn&& fn) {
    const std::int64_t start = now_ns();
    auto result = fn();
    const std::int64_t end = now_ns();
    us = us_between(start, end);
    if (ctx.traced) log_.add(name, start, end, ctx.op);
    return result;
  }

  ShadowShard& shadow_of(const std::string& tenant) { return *shadow_[twin_->route(tenant)]; }

  void check(bool same) {
    if (!same) ++samples_.mismatches;
  }

  void quote(const Arrival& a) {
    OpContext ctx = begin_op();
    const std::int64_t start = now_ns();
    double wire_us = 0.0;
    double twin_us = 0.0;
    const net::QuoteResponse w =
        fleet_call(ctx, "wire", wire_us, [&] { return client_.quote({a.tenant, a.task}); });
    const auto t = fleet_call(ctx, "twin", twin_us, [&] { return twin_->quote(a.tenant, a.task); });
    samples_.quote_us.push_back(twin_us);
    shadow_of(a.tenant).quote(a.task, ctx);
    check(w.status == net::Status::kOk && t && t->admitted &&
          w.marginal_energy == t->marginal_energy);
    end_op(ctx, "op.quote", start);
  }

  void admit(const Arrival& a) {
    OpContext ctx = begin_op();
    ctx.in_admit = true;
    const std::int64_t start = now_ns();
    const net::AdmitRequest request{a.tenant, a.rid, a.task, 0};
    encode_decode(ctx, net::Op::kAdmit, request, net::encode_admit_request,
                  net::decode_admit_request);
    double wire_us = 0.0;
    double twin_us = 0.0;
    const net::AdmitResponse w =
        fleet_call(ctx, "wire", wire_us, [&] { return client_.admit(request); });
    const ServiceDecision t =
        fleet_call(ctx, "twin", twin_us, [&] { return twin_->submit(a.tenant, a.task, a.rid); });
    ShadowShard& shadow = shadow_of(a.tenant);
    check(t.id == shadow.next_id());
    shadow.admit({{a.task, a.rid}}, ctx);
    check(w.status == net::Status::kOk && t.admission.admitted && w.id == t.id &&
          w.marginal_energy == t.admission.marginal_energy);
    record_admit_frame(ctx, wire_us, twin_us, 1);
    held_.push_back({a.index, t.id});
    end_op(ctx, "op.admit", start);
  }

  void batch(const std::vector<Arrival>& arrivals) {
    OpContext ctx = begin_op();
    ctx.in_admit = true;
    const std::int64_t start = now_ns();
    net::AdmitBatchRequest request;
    std::vector<Supervisor::BatchItem> items;
    for (const Arrival& a : arrivals) {
      request.items.push_back({a.tenant, a.rid, a.task});
      items.push_back({a.tenant, a.task, a.rid});
    }
    encode_decode(ctx, net::Op::kAdmitBatch, request, net::encode_admit_batch_request,
                  net::decode_admit_batch_request);
    double wire_us = 0.0;
    double twin_us = 0.0;
    const net::AdmitBatchResponse w =
        fleet_call(ctx, "wire", wire_us, [&] { return pipelined_->admit_batch(request).get(); });
    const std::vector<ServiceDecision> t =
        fleet_call(ctx, "twin", twin_us, [&] { return twin_->submit_batch(items); });
    // The supervisor runs each shard's slice in shard order, arrival order kept.
    for (std::size_t k = 0; k < shadow_.size(); ++k) {
      std::vector<std::pair<Task, std::string>> slice;
      for (std::size_t i = 0; i < arrivals.size(); ++i) {
        if (twin_->route(arrivals[i].tenant) != k) continue;
        check(t[i].id == shadow_[k]->next_id() + static_cast<TaskId>(slice.size()));
        slice.emplace_back(arrivals[i].task, arrivals[i].rid);
      }
      if (!slice.empty()) shadow_[k]->admit(slice, ctx);
    }
    check(w.status == net::Status::kOk && w.items.size() == t.size());
    for (std::size_t i = 0; i < t.size() && i < w.items.size(); ++i) {
      check(w.items[i].status == net::Status::kOk && w.items[i].id == t[i].id &&
            w.items[i].marginal_energy == t[i].admission.marginal_energy);
      held_.push_back({arrivals[i].index, t[i].id});
    }
    record_admit_frame(ctx, wire_us, twin_us, arrivals.size());
    end_op(ctx, "op.batch", start);
  }

  void complete(const Held& h) {
    OpContext ctx = begin_op();
    const std::int64_t start = now_ns();
    const std::string tenant = e2e::make_arrival(workload_, seed_, h.index).tenant;
    double wire_us = 0.0;
    double twin_us = 0.0;
    const net::StatusResponse w =
        fleet_call(ctx, "wire", wire_us, [&] { return client_.complete_task({tenant, h.id}); });
    const std::optional<bool> t =
        fleet_call(ctx, "twin", twin_us, [&] { return twin_->complete(tenant, h.id); });
    samples_.complete_us.push_back(twin_us);
    shadow_of(tenant).complete(h.id, ctx);
    check(w.status == net::Status::kOk && t && *t);
    end_op(ctx, "op.complete", start);
  }

  /// Client-side encode and server-side decode of an admit frame, timed on
  /// a copy outside the wire call.
  template <typename Request>
  void encode_decode(OpContext& ctx, net::Op op, const Request& request,
                     std::string (*encode)(const Request&),
                     bool (*decode)(std::string_view, Request&)) {
    const std::string bytes = ctx.time("encode", samples_.encode_us, false, [&] {
      return net::encode_frame(op, false, 1, encode(request));
    });
    ctx.time("decode", samples_.decode_us, false, [&] {
      net::FrameDecoder decoder;
      Request decoded;
      const bool ok = decoder.feed(bytes) && decoder.frames().size() == 1 &&
                      decode(decoder.frames().front().payload, decoded);
      check(ok && decoded == request);
    });
  }

  void record_admit_frame(OpContext& ctx, double wire_us, double twin_us, std::size_t items) {
    samples_.admits += items;
    samples_.wire_us.push_back(wire_us);
    samples_.net_self_us.push_back(wire_us - twin_us);
    samples_.wire_total_us += wire_us;
    samples_.twin_total_us += twin_us;
    samples_.submit_us.push_back(twin_us);
    samples_.batch_item_us.push_back(twin_us / static_cast<double>(items));
    samples_.service_self_us.push_back(twin_us - ctx.leaves_us);
    if (comparing_) {
      (ctx.traced ? samples_.wire_traced_us : samples_.wire_untraced_us).push_back(wire_us);
    }
  }

  const Workload& workload_;
  const std::uint64_t seed_;
  std::vector<double> recovery_s_;
  std::unique_ptr<Supervisor> twin_;
  std::unique_ptr<Supervisor> wire_fleet_;
  std::vector<std::unique_ptr<ShadowShard>> shadow_;
  std::unique_ptr<net::FrontEnd> front_end_;
  net::BlockingClient client_;
  std::unique_ptr<net::PipelinedClient> pipelined_;
  std::deque<Held> held_;
  SpanLog log_;
  Samples samples_;
  std::uint64_t op_ = 0;
  bool comparing_ = true;      ///< the current group counts toward trace.overhead_frac
  bool group_traced_ = false;  ///< the current group records spans
};

}  // namespace

int main(int argc, char** argv) {
  CliParser args("e2e_layers", "per-layer replay of the admission-service benchmark");
  args.add_option("workload", "", "workload name (required)");
  args.add_option("seed", "1", "workload seed");
  args.add_option("state", "", "state file of the e2e run's warmup (required)");
  args.add_option("data-dir", "", "data dir of the SIGKILLed server after warmup (required)");
  args.add_option("work-dir", "", "scratch directory for the fleets' copies (required)");
  args.add_option("seconds", "10", "replay length in seconds");
  args.add_option("trace-out", "", "Chrome trace output path");
  if (!args.parse(argc, argv)) {
    std::cerr << args.error() << "\n\n" << args.help();
    return 2;
  }
  const Workload* workload = e2e::find_workload(args.get("workload"));
  if (workload == nullptr || args.get("state").empty() || args.get("data-dir").empty() ||
      args.get("work-dir").empty()) {
    std::cerr << args.help();
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  std::string error;
  std::optional<e2e::JsonLine> line;
  try {
    Replay replay(*workload, seed, args.get("data-dir"), args.get("work-dir"));
    replay.run(e2e::read_state(args.get("state")), args.get_double("seconds"));
    line = replay.report();
    if (!args.get("trace-out").empty()) {
      std::ofstream(args.get("trace-out")) << replay.trace_json();
    }
  } catch (const std::exception& e) {
    error = e.what();
  }
  if (!line) line.emplace().num("mismatches", 0);
  line->str("error", error);
  std::cout << line->text() << std::endl;
  return error.empty() ? 0 : 1;
}
