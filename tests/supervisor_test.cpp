// The supervised shard fleet: consistent-hash routing, crash containment
// with scheduled restart, recovery that loses no acked admit (with kills at
// every journal boundary AND mid-restart-replay), idempotent re-admission
// across restarts, the watchdog, brownout effects, and merged metrics.

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "easched/common/math.hpp"
#include "easched/faults/fault_injection.hpp"
#include "easched/obs/trace.hpp"
#include "easched/service/supervisor.hpp"

namespace easched {
namespace {

PowerModel test_power() { return PowerModel(3.0, 0.1); }

SupervisorOptions fleet_options(const std::string& name, std::size_t shards) {
  SupervisorOptions options;
  options.shards = shards;
  options.data_dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(options.data_dir);
  std::filesystem::create_directories(options.data_dir);
  options.service.cores = 2;
  options.service.f_max = kInf;
  options.service.use_thread_pool = false;  // serial planning: fully in-thread
  return options;
}

Task rich_task(int i) {
  // Slack ratio ~0.97: admissible at every brownout level, never shed.
  const double release = 0.1 * i;
  return Task{release, release + 15.0, 0.5 + 0.01 * i};
}

TEST(SupervisorTest, RoutingIsDeterministicAndCoversEveryShard) {
  Supervisor supervisor(test_power(), fleet_options("sup_route", 4));
  std::set<std::size_t> hit;
  for (int t = 0; t < 200; ++t) {
    const std::string tenant = "tenant-" + std::to_string(t);
    const std::size_t k = supervisor.route(tenant);
    ASSERT_LT(k, 4u);
    EXPECT_EQ(supervisor.route(tenant), k);  // stable per tenant
    hit.insert(k);
  }
  EXPECT_EQ(hit.size(), 4u);  // virtual nodes spread tenants over all shards

  // The ring is a pure function of (shard count, virtual nodes): a second
  // fleet routes every tenant identically.
  Supervisor twin(test_power(), fleet_options("sup_route_twin", 4));
  for (int t = 0; t < 50; ++t) {
    const std::string tenant = "tenant-" + std::to_string(t);
    EXPECT_EQ(twin.route(tenant), supervisor.route(tenant));
  }
}

TEST(SupervisorTest, SubmitsLandOnTheRoutedShard) {
  Supervisor supervisor(test_power(), fleet_options("sup_sticky", 3));
  const std::string tenant = "tenant-42";
  const std::size_t k = supervisor.route(tenant);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(supervisor.submit(tenant, rich_task(i)).admission.admitted);
  }
  EXPECT_EQ(supervisor.shard(k).committed_count(), 5u);
  for (std::size_t other = 0; other < 3; ++other) {
    if (other != k) {
      EXPECT_EQ(supervisor.shard(other).committed_count(), 0u);
    }
  }
}

TEST(SupervisorTest, CrashIsContainedAndRestartAfterSchedulesRecovery) {
  Supervisor supervisor(test_power(), fleet_options("sup_crash", 1));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(supervisor.submit("t", rich_task(i)).admission.admitted);
  }

  FaultInjector injector(FaultPlan::parse("kill:shard.submit@1;restart_after=2"));
  faults::FaultScope scope(injector);

  // The 4th submit crashes on arrival — contained, never thrown to us.
  const ServiceDecision crashed = supervisor.submit("t", rich_task(3));
  EXPECT_EQ(crashed.error_kind, AdmissionErrorKind::kUnavailable);
  EXPECT_FALSE(supervisor.shard(0).up());

  // restart_after=2: two more ops are answered unavailable while the
  // countdown ticks; the op after that triggers recovery and is served.
  EXPECT_EQ(supervisor.submit("t", rich_task(3)).error_kind, AdmissionErrorKind::kUnavailable);
  EXPECT_EQ(supervisor.submit("t", rich_task(3)).error_kind, AdmissionErrorKind::kUnavailable);
  const ServiceDecision recovered = supervisor.submit("t", rich_task(3));
  EXPECT_TRUE(recovered.admission.admitted);
  EXPECT_TRUE(supervisor.shard(0).up());

  // Every acked admit survived the crash (journal replay over the snapshot).
  EXPECT_EQ(supervisor.shard(0).committed_count(), 4u);
  const ShardStats stats = supervisor.shard(0).stats();
  EXPECT_EQ(stats.crashes_contained, 1u);
  EXPECT_EQ(stats.restarts, 1u);
  EXPECT_EQ(stats.unavailable_rejects, 2u);
}

TEST(SupervisorTest, KillAfterJournalWriteDedupsTheRetry) {
  // Boundary: journal.admit.post — the admit IS durable, the ack was lost.
  // The retried rid must replay the original ack, not double-commit.
  Supervisor supervisor(test_power(), fleet_options("sup_dedup", 1));
  const ServiceDecision first = supervisor.submit("t", rich_task(0), "req-0");
  ASSERT_TRUE(first.admission.admitted);

  {
    FaultInjector injector(FaultPlan::parse("kill:journal.admit.post@1"));
    faults::FaultScope scope(injector);
    const ServiceDecision lost_ack = supervisor.submit("t", rich_task(1), "req-1");
    EXPECT_EQ(lost_ack.error_kind, AdmissionErrorKind::kUnavailable);
  }

  // Retry with the same rid: restart replays the journal (which has the
  // rid inside the admit record), so this dedups to the original id.
  const ServiceDecision retry = supervisor.submit("t", rich_task(1), "req-1");
  ASSERT_TRUE(retry.admission.admitted);
  EXPECT_TRUE(retry.deduplicated);
  EXPECT_EQ(supervisor.shard(0).committed_count(), 2u);

  // A retry of the much older ack dedups too.
  const ServiceDecision old_retry = supervisor.submit("t", rich_task(0), "req-0");
  ASSERT_TRUE(old_retry.admission.admitted);
  EXPECT_TRUE(old_retry.deduplicated);
  EXPECT_EQ(old_retry.id, first.id);
  EXPECT_EQ(supervisor.shard(0).committed_count(), 2u);
}

TEST(SupervisorTest, KillBeforeJournalWriteReadmitsWithoutDuplicate) {
  // Boundary: journal.admit.pre — the admit never became durable and was
  // never acked. The retry is a fresh admission; nothing is lost and
  // nothing is doubled.
  Supervisor supervisor(test_power(), fleet_options("sup_prekill", 1));
  ASSERT_TRUE(supervisor.submit("t", rich_task(0), "req-0").admission.admitted);

  {
    FaultInjector injector(FaultPlan::parse("kill:journal.admit.pre@1"));
    faults::FaultScope scope(injector);
    EXPECT_EQ(supervisor.submit("t", rich_task(1), "req-1").error_kind,
              AdmissionErrorKind::kUnavailable);
  }

  const ServiceDecision retry = supervisor.submit("t", rich_task(1), "req-1");
  ASSERT_TRUE(retry.admission.admitted);
  EXPECT_FALSE(retry.deduplicated);  // first commit of req-1, not a replay
  EXPECT_EQ(supervisor.shard(0).committed_count(), 2u);
}

TEST(SupervisorTest, KillMidRestartReplayLeavesShardDownThenRecovers) {
  // Boundary: shard.restart.replay — recovery itself crashes between the
  // snapshot read and the journal replay. The shard stays down (a failed
  // restart must not half-apply state) and the next op retries from scratch.
  Supervisor supervisor(test_power(), fleet_options("sup_replaykill", 1));
  ASSERT_TRUE(supervisor.submit("t", rich_task(0), "req-0").admission.admitted);
  ASSERT_TRUE(supervisor.submit("t", rich_task(1), "req-1").admission.admitted);

  FaultInjector injector(
      FaultPlan::parse("kill:shard.submit@1;kill:shard.restart.replay@1"));
  faults::FaultScope scope(injector);

  EXPECT_EQ(supervisor.submit("t", rich_task(2), "req-2").error_kind,
            AdmissionErrorKind::kUnavailable);  // crash (restart_after=0)
  EXPECT_EQ(supervisor.submit("t", rich_task(2), "req-2").error_kind,
            AdmissionErrorKind::kUnavailable);  // restart attempt dies mid-replay
  const ServiceDecision recovered = supervisor.submit("t", rich_task(2), "req-2");
  ASSERT_TRUE(recovered.admission.admitted);

  const std::vector<TaskId> ids = supervisor.shard(0).committed_ids();
  EXPECT_EQ(ids.size(), 3u);  // both acked admits survived the double failure
  const ShardStats stats = supervisor.shard(0).stats();
  EXPECT_EQ(stats.crashes_contained, 1u);
  EXPECT_EQ(stats.restart_failures, 1u);
  EXPECT_EQ(stats.restarts, 1u);
}

TEST(SupervisorTest, WatchdogRestartsAnIdleDownShard) {
  SupervisorOptions options = fleet_options("sup_watchdog", 2);
  options.watchdog_deadline = std::chrono::milliseconds(0);  // overdue at once
  Supervisor supervisor(test_power(), options);

  const std::string tenant = "tenant-7";
  const std::size_t k = supervisor.route(tenant);
  ASSERT_TRUE(supervisor.submit(tenant, rich_task(0)).admission.admitted);

  {
    // Shard-addressed kill: only shard k dies, with a countdown so long no
    // routed op would ever bring it back.
    FaultInjector injector(FaultPlan::parse("kill:shard" + std::to_string(k) +
                                            ".submit@1;restart_after=1000000"));
    faults::FaultScope scope(injector);
    EXPECT_EQ(supervisor.submit(tenant, rich_task(1)).error_kind,
              AdmissionErrorKind::kUnavailable);
  }
  EXPECT_FALSE(supervisor.shard(k).up());
  EXPECT_TRUE(supervisor.shard(1 - k).up());

  // No traffic needed: the watchdog sweep restarts it past the deadline.
  EXPECT_EQ(supervisor.check_watchdogs(), 1u);
  EXPECT_TRUE(supervisor.shard(k).up());
  EXPECT_EQ(supervisor.shard(k).committed_count(), 1u);  // acked admit intact
}

TEST(SupervisorTest, PressureClimbsTheLadderAndLevelThreeShedsOnlyTightTasks) {
  SupervisorOptions options = fleet_options("sup_brownout", 1);
  Supervisor supervisor(test_power(), options);

  // Default watermarks: engage {8,16,32}, dwell 2. Sustained pressure at
  // 4x the top watermark climbs 0->1->2->3 in six observations.
  int max_seen = 0;
  std::size_t admitted = 0;
  for (int i = 0; i < 10; ++i) {
    const ServiceDecision d = supervisor.submit("t", rich_task(i), "", /*pressure=*/128);
    EXPECT_TRUE(d.admission.admitted);  // rich tasks pass even at level 3
    ++admitted;
    EXPECT_GE(d.brownout_level, max_seen);  // monotone climb, no flapping
    max_seen = std::max(max_seen, d.brownout_level);
  }
  EXPECT_EQ(max_seen, kBrownoutMaxLevel);
  EXPECT_EQ(admitted, 10u);  // still accepting at level <= 3

  // A tight task (slack ratio 0.1 < shed_slack 0.5) is shed outright.
  const ServiceDecision shed = supervisor.submit("t", Task{0.0, 10.0, 9.0}, "", 128);
  EXPECT_FALSE(shed.admission.admitted);
  EXPECT_EQ(shed.error_kind, AdmissionErrorKind::kOverload);
  EXPECT_EQ(shed.brownout_level, kBrownoutMaxLevel);
  EXPECT_EQ(supervisor.shard(0).stats().brownout_sheds, 1u);

  // Calm pressure releases the ladder one level at a time.
  int level = kBrownoutMaxLevel;
  for (int i = 0; i < 20 && level > 0; ++i) {
    level = supervisor.submit("t", rich_task(20 + i), "", 0).brownout_level;
  }
  EXPECT_EQ(level, 0);
}

TEST(SupervisorTest, TracingIsDisarmedAtLevelTwoAndRearmedBelow) {
  Supervisor supervisor(test_power(), fleet_options("sup_tracing", 2));
  obs::Tracer tracer;
  obs::TraceScope trace_scope(tracer);

  supervisor.force_brownout_level(2);
  ASSERT_TRUE(supervisor.submit("t", rich_task(0)).admission.admitted);
  EXPECT_EQ(tracer.records().size(), 0u);  // degraded: spans suppressed

  supervisor.force_brownout_level(0);
  ASSERT_TRUE(supervisor.submit("t", rich_task(1)).admission.admitted);
  EXPECT_GT(tracer.records().size(), 0u);  // cooled: spans flow again
}

TEST(SupervisorTest, MergedMetricsCarryShardPrefixesAndFleetGauges) {
  Supervisor supervisor(test_power(), fleet_options("sup_metrics", 2));
  for (int t = 0; t < 8; ++t) {
    ASSERT_TRUE(
        supervisor.submit("tenant-" + std::to_string(t), rich_task(t)).admission.admitted);
  }

  const MetricsSnapshot merged = supervisor.metrics_snapshot();
  EXPECT_EQ(merged.gauges.at("shards_up"), 2.0);
  EXPECT_EQ(merged.gauges.at("shard0_up"), 1.0);
  EXPECT_EQ(merged.gauges.at("brownout_level"), 0.0);
  EXPECT_EQ(merged.counters.at("supervisor_requests_total"), 8u);
  // Inner per-shard registries are merged under shard<k>_ prefixes. The 8
  // admits split over the fleet however the ring routes them, but every one
  // of them must show up in exactly one shard's merged counters.
  const auto counter = [&merged](const std::string& name) -> std::uint64_t {
    const auto it = merged.counters.find(name);
    return it == merged.counters.end() ? 0 : it->second;
  };
  EXPECT_EQ(counter("shard0_admitted_total") + counter("shard1_admitted_total"), 8u);

  const std::string exposition = supervisor.prometheus();
  EXPECT_NE(exposition.find("easched_shards_up 2"), std::string::npos);
  EXPECT_NE(exposition.find("easched_shard0_up 1"), std::string::npos);
  EXPECT_NE(exposition.find("easched_brownout_level 0"), std::string::npos);
}

TEST(SupervisorTest, ThresholdCompactionBoundsTheJournal) {
  SupervisorOptions options = fleet_options("sup_compact", 1);
  options.journal_compact_bytes = 2048;  // tiny: force threshold compactions
  Supervisor supervisor(test_power(), options);

  // Admit + complete churn grows the WAL with records whose net state is
  // tiny; the size check after every op must keep compacting it back down.
  for (int i = 0; i < 200; ++i) {
    const ServiceDecision d = supervisor.submit("t", rich_task(i % 40));
    ASSERT_TRUE(d.admission.admitted);
    ASSERT_EQ(supervisor.complete("t", d.id), std::optional<bool>(true));
  }
  EXPECT_GT(supervisor.shard(0).stats().compactions, 0u);
  const auto wal_size =
      std::filesystem::file_size(options.data_dir + "/shard0.wal");
  EXPECT_LT(wal_size, 16u * 1024u);  // bounded by live state, not history

  // The compacted journal still recovers correctly: crash with live state,
  // then restart and check nothing was lost to compaction.
  const ServiceDecision live = supervisor.submit("t", rich_task(5));
  ASSERT_TRUE(live.admission.admitted);
  {
    FaultInjector injector(FaultPlan::parse("kill:shard.submit@1"));
    faults::FaultScope scope(injector);
    EXPECT_EQ(supervisor.submit("t", rich_task(6)).error_kind,
              AdmissionErrorKind::kUnavailable);
  }
  ASSERT_TRUE(supervisor.shard(0).restart_now());
  const std::vector<TaskId> ids = supervisor.shard(0).committed_ids();
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids.front(), live.id);
}

TEST(SupervisorTest, RidsTheJournalCannotStoreAreRejectedBeforeAnything) {
  // A space would split the admit record (the retry then misses dedup); a
  // newline would tear it (the acked admit is lost on restart). Both are
  // refused before planning or journaling, on the single and batch paths.
  const SupervisorOptions options = fleet_options("sup_bad_rid", 1);
  const std::string wal = options.data_dir + "/shard0.wal";
  TaskId acked = -1;
  for (const bool restarted : {false, true}) {
    SCOPED_TRACE(restarted ? "after restart" : "first incarnation");
    Supervisor supervisor(test_power(), options);
    const ServiceDecision good = supervisor.submit("t", rich_task(0), "good-rid");
    ASSERT_TRUE(good.admission.admitted);
    EXPECT_EQ(good.deduplicated, restarted);
    if (!restarted) acked = good.id;
    EXPECT_EQ(good.id, acked);

    const auto wal_bytes = std::filesystem::file_size(wal);
    for (const std::string rid : {"has space", "has\nnewline"}) {
      const ServiceDecision single = supervisor.submit("t", rich_task(1), rid);
      EXPECT_FALSE(single.admission.admitted);
      EXPECT_EQ(single.error_kind, AdmissionErrorKind::kInvalid);
      EXPECT_FALSE(single.admission.rejection_reason.empty());
      const std::vector<ServiceDecision> batch =
          supervisor.submit_batch({{"t", rich_task(2), rid}});
      EXPECT_FALSE(batch[0].admission.admitted);
      EXPECT_EQ(batch[0].error_kind, AdmissionErrorKind::kInvalid);
    }
    EXPECT_EQ(supervisor.committed_total(), 1u);
    EXPECT_EQ(std::filesystem::file_size(wal), wal_bytes);  // nothing journaled
  }
}

}  // namespace
}  // namespace easched
