// Tracer contracts: span nesting, lossless recording up to ring capacity
// (counted drops past it), request-id propagation across the thread pool,
// the determinism guarantees (bit-identical plans and an identical span SET
// at any pool size), Chrome trace export, and the per-request
// queue -> plan -> journal span chain of the scheduler service.

#include "easched/obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "easched/common/rng.hpp"
#include "easched/parallel/exec.hpp"
#include "easched/parallel/thread_pool.hpp"
#include "easched/sched/pipeline.hpp"
#include "easched/service/service.hpp"
#include "easched/tasksys/workload.hpp"

namespace easched {
namespace {

using obs::Span;
using obs::SpanRecord;
using obs::TraceScope;
using obs::Tracer;

TaskSet demo_tasks(std::size_t n) {
  Rng rng(Rng::seed_of("obs-trace-test", n));
  WorkloadConfig config;
  config.task_count = n;
  return generate_workload(config, rng);
}

const SpanRecord& find_span(const std::vector<SpanRecord>& records,
                            const std::string& name) {
  for (const SpanRecord& r : records) {
    if (name == r.name) return r;
  }
  ADD_FAILURE() << "span not found: " << name;
  static const SpanRecord missing{};
  return missing;
}

TEST(Tracer, DisabledSpansAreInertAndFree) {
  ASSERT_EQ(obs::current(), nullptr);
  Span span("never.recorded");
  EXPECT_FALSE(span.active());
  EXPECT_EQ(span.id(), 0u);
  span.arg("x", 1.0);           // all no-ops; must not crash
  span.set_status("ignored");
}

TEST(Tracer, RecordsNestingViaParentIds) {
  Tracer tracer;
  {
    const TraceScope scope(tracer);
    Span outer("outer");
    outer.arg("a", 1.0);
    {
      Span mid("mid");
      {
        Span inner("inner");
        inner.set_status("done");
      }
    }
    Span sibling("sibling");
  }
  const std::vector<SpanRecord> records = tracer.records();
  ASSERT_EQ(records.size(), 4u);

  const SpanRecord& outer = find_span(records, "outer");
  const SpanRecord& mid = find_span(records, "mid");
  const SpanRecord& inner = find_span(records, "inner");
  const SpanRecord& sibling = find_span(records, "sibling");

  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(mid.parent, outer.id);
  EXPECT_EQ(inner.parent, mid.id);
  EXPECT_EQ(sibling.parent, outer.id);  // inner/mid closed; outer is live again

  EXPECT_STREQ(outer.arg0_name, "a");
  EXPECT_DOUBLE_EQ(outer.arg0, 1.0);
  EXPECT_STREQ(inner.status, "done");

  // Containment in time: a child must start and end inside its parent.
  EXPECT_GE(mid.start_ns, outer.start_ns);
  EXPECT_LE(mid.start_ns + mid.dur_ns, outer.start_ns + outer.dur_ns);
}

TEST(Tracer, SpanArgsKeepFirstTwo) {
  Tracer tracer;
  {
    const TraceScope scope(tracer);
    Span span("args");
    span.arg("first", 1.0);
    span.arg("second", 2.0);
    span.arg("third", 3.0);  // silently ignored: records hold two args
  }
  const std::vector<SpanRecord> records = tracer.records();  // keep the copy alive
  const SpanRecord& span = find_span(records, "args");
  EXPECT_STREQ(span.arg0_name, "first");
  EXPECT_STREQ(span.arg1_name, "second");
  EXPECT_DOUBLE_EQ(span.arg1, 2.0);
}

TEST(Tracer, NoLossBelowRingCapacityCountedDropsAbove) {
  obs::TracerOptions options;
  options.ring_capacity = 256;
  Tracer tracer(options);
  {
    const TraceScope scope(tracer);
    for (int i = 0; i < 256; ++i) Span span("filling");
  }
  EXPECT_EQ(tracer.records().size(), 256u);
  EXPECT_EQ(tracer.dropped(), 0u);

  {
    const TraceScope scope(tracer);
    for (int i = 0; i < 10; ++i) Span span("overflowing");
  }
  EXPECT_EQ(tracer.records().size(), 256u);  // newest dropped, ring intact
  EXPECT_EQ(tracer.dropped(), 10u);
}

TEST(Tracer, FreshTracerAfterDeadOneRecordsCleanly) {
  // The thread-local fast path caches a buffer pointer keyed by tracer
  // epoch; a new tracer (possibly at the same address) must not inherit it.
  for (int round = 0; round < 3; ++round) {
    Tracer tracer;
    const TraceScope scope(tracer);
    Span span("round");
    span.arg("i", static_cast<double>(round));
    ASSERT_TRUE(span.active());
  }
}

TEST(Tracer, RequestAndParentContextCrossThePool) {
  ThreadPool pool(2);
  Tracer tracer;
  {
    const TraceScope scope(tracer);
    Span submit_span("submitter");
    const obs::RequestScope request(42);
    const obs::ParentScope parent(submit_span.id());
    pool.submit([] { Span job("pool.job"); }).get();
  }
  const std::vector<SpanRecord> records = tracer.records();
  const SpanRecord& job = find_span(records, "pool.job");
  const SpanRecord& submitter = find_span(records, "submitter");
  EXPECT_EQ(job.request, 42u);
  EXPECT_EQ(job.parent, submitter.id);
}

TEST(Tracer, EmitRecordsRetrospectiveInterval) {
  Tracer tracer;
  const auto start = obs::now();
  const auto end = start + std::chrono::microseconds(250);
  {
    const TraceScope scope(tracer);
    obs::emit("queue.wait", start, end, 7);
  }
  const std::vector<SpanRecord> records = tracer.records();  // keep the copy alive
  const SpanRecord& span = find_span(records, "queue.wait");
  EXPECT_EQ(span.request, 7u);
  EXPECT_NEAR(static_cast<double>(span.dur_ns), 250e3, 1.0);
}

TEST(Tracer, ChromeTraceExportIsWellFormed) {
  Tracer tracer;
  {
    const TraceScope scope(tracer);
    Span span("export.me");
    span.arg("n", 3.0);
    span.set_status("ok");
  }
  const std::string json = tracer.chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"export.me\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

// The multiset of span names a traced computation emits must not depend on
// the pool size — spans record, they never reorder or gate work.
std::map<std::string, std::size_t> span_census(const std::vector<SpanRecord>& records) {
  std::map<std::string, std::size_t> census;
  for (const SpanRecord& r : records) ++census[r.name];
  return census;
}

TEST(Tracer, PipelineSpanSetIsPoolSizeInvariant) {
  const TaskSet tasks = demo_tasks(60);
  const PowerModel power(3.0, 0.1);

  Tracer serial_tracer;
  {
    const TraceScope scope(serial_tracer);
    run_pipeline(tasks, 4, power);
  }
  const auto serial_census = span_census(serial_tracer.records());
  EXPECT_FALSE(serial_census.empty());
  EXPECT_TRUE(serial_census.count("kernel.pipeline"));
  EXPECT_TRUE(serial_census.count("kernel.subinterval_cut"));

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(workers);
    Tracer tracer;
    {
      const TraceScope scope(tracer);
      run_pipeline(tasks, 4, power, Exec::on(pool));
    }
    EXPECT_EQ(span_census(tracer.records()), serial_census)
        << "span census diverged at pool size " << workers;
  }
}

TEST(Tracer, TracingPreservesBitIdenticalParallelPlans) {
  const TaskSet tasks = demo_tasks(80);
  const PowerModel power(3.0, 0.1);
  const PipelineResult baseline = run_pipeline(tasks, 4, power);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(workers);
    Tracer tracer;
    const TraceScope scope(tracer);
    const PipelineResult traced = run_pipeline(tasks, 4, power, Exec::on(pool));
    ASSERT_EQ(traced.der.final_frequency.size(), baseline.der.final_frequency.size());
    for (std::size_t i = 0; i < baseline.der.final_frequency.size(); ++i) {
      EXPECT_EQ(traced.der.final_frequency[i], baseline.der.final_frequency[i])
          << "frequency diverged at task " << i << ", pool size " << workers;
    }
    EXPECT_EQ(traced.der.final_energy, baseline.der.final_energy);
  }
}

TEST(Tracer, ServiceEmitsQueuePlanJournalChainPerAdmittedRequest) {
  const std::string journal_path = "obs_trace_test_journal.wal";
  std::remove(journal_path.c_str());

  Tracer tracer;
  {
    const TraceScope scope(tracer);
    ServiceOptions options;
    options.cores = 2;
    options.journal_path = journal_path;
    SchedulerService service(PowerModel(3.0, 0.1), options);

    Rng rng(Rng::seed_of("obs-service-stream", 0));
    for (int i = 0; i < 5; ++i) {
      Task t;
      t.release = rng.uniform(0.0, 10.0);
      t.work = rng.uniform(1.0, 3.0);
      t.deadline = t.release + t.work / rng.uniform(0.2, 0.6);
      const ServiceDecision decision = service.submit(t);
      ASSERT_TRUE(decision.admission.admitted) << "request " << i;
    }
  }
  std::remove(journal_path.c_str());

  // Group spans by request id: every admitted request must show the full
  // lifecycle — queue wait, request processing, a plan and the WAL append —
  // under its own id.
  std::map<std::uint64_t, std::set<std::string>> by_request;
  for (const SpanRecord& r : tracer.records()) {
    if (r.request != 0) by_request[r.request].insert(r.name);
  }
  ASSERT_EQ(by_request.size(), 5u);
  for (const auto& [request, names] : by_request) {
    EXPECT_TRUE(names.count("service.queue_wait")) << "request " << request;
    EXPECT_TRUE(names.count("service.request")) << "request " << request;
    EXPECT_TRUE(names.count("service.plan")) << "request " << request;
    EXPECT_TRUE(names.count("service.journal_append")) << "request " << request;
  }

  // The request span must carry its admission outcome.
  bool saw_admitted_status = false;
  for (const SpanRecord& r : tracer.records()) {
    if (std::string("service.request") == r.name && r.status != nullptr &&
        std::string("admitted") == r.status) {
      saw_admitted_status = true;
    }
  }
  EXPECT_TRUE(saw_admitted_status);
}

}  // namespace
}  // namespace easched
