// The supervised shard fleet: consistent-hash routing, crash containment
// with scheduled restart, recovery that loses no acked admit (with kills at
// every journal boundary AND mid-restart-replay), idempotent re-admission
// across restarts, the watchdog, brownout effects, merged metrics, and the
// concurrent bring-up (kill-point order, error choice, equivalence with a
// one-shard-at-a-time recovery).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
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

  // Every acked admit survived the crash (journal replay).
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
  // Boundary: shard.restart.replay — recovery itself crashes before the
  // journal replay. The shard stays down (a failed restart must not
  // half-apply state) and the next op retries from scratch.
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

  // The text exposition of the merged snapshot carries the shard histograms.
  const std::string text = to_text(merged);
  EXPECT_NE(text.find("counter supervisor_requests_total 8"), std::string::npos);
  EXPECT_NE(text.find("gauge shards_up 2"), std::string::npos);
  EXPECT_NE(text.find("bucket_histogram shard0_admission_latency_us count="), std::string::npos);

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

TEST(SupervisorTest, CrashInsideAMultiChunkBatchAnswersOnlyTheFinishedChunks) {
  // 150 items are decided in three chunks of max_batch = 64. The kill fires
  // right after the 100th admit is journaled, inside the second chunk: the
  // first chunk's acks reach the caller, every later item comes back
  // unavailable, and a same-rid retry finds the journaled admits instead of
  // committing them twice.
  SupervisorOptions options = fleet_options("sup_chunk_crash", 1);
  options.brownout_enabled = false;
  ASSERT_EQ(options.service.max_batch, 64u);
  Supervisor supervisor(test_power(), options);
  std::vector<Supervisor::BatchItem> items;
  for (int i = 0; i < 150; ++i) {
    items.push_back({"t", rich_task(i), "req-" + std::to_string(i)});
  }

  {
    FaultInjector injector(FaultPlan::parse("kill:journal.admit.post@100"));
    faults::FaultScope scope(injector);
    const std::vector<ServiceDecision> first = supervisor.submit_batch(items);
    ASSERT_EQ(first.size(), items.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
      SCOPED_TRACE(i);
      if (i < 64) {
        EXPECT_TRUE(first[i].admission.admitted);
        EXPECT_EQ(first[i].id, static_cast<TaskId>(i));
      } else {
        EXPECT_FALSE(first[i].admission.admitted);
        EXPECT_EQ(first[i].error_kind, AdmissionErrorKind::kUnavailable);
      }
    }
    EXPECT_FALSE(supervisor.shard(0).up());
    EXPECT_EQ(supervisor.shard(0).stats().crashes_contained, 1u);
  }

  const std::vector<ServiceDecision> retry = supervisor.submit_batch(items);
  ASSERT_EQ(retry.size(), items.size());
  std::vector<TaskId> expected_ids;
  for (std::size_t i = 0; i < retry.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(retry[i].admission.admitted);
    // Ids are handed out in item order, so item i holds id i either way.
    EXPECT_EQ(retry[i].id, static_cast<TaskId>(i));
    EXPECT_EQ(retry[i].deduplicated, i < 100);
    expected_ids.push_back(static_cast<TaskId>(i));
  }
  EXPECT_EQ(supervisor.shard(0).committed_ids(), expected_ids);
}

// Shard k's options exactly as `Supervisor` derives them for `options`.
ShardOptions shard_options_of(const SupervisorOptions& options, std::size_t k) {
  ShardOptions shard;
  shard.index = k;
  const std::string base = options.data_dir + "/shard" + std::to_string(k);
  shard.journal_path = base + ".wal";
  shard.snapshot_path = base + ".snap";
  shard.service = options.service;
  shard.brownout = options.brownout;
  shard.brownout_enabled = options.brownout_enabled;
  shard.journal_compact_bytes = options.journal_compact_bytes;
  return shard;
}

// Fill a fleet's data dir: admits over many tenants, a few completions, and
// a snapshot export behind the journal.
void populate(const SupervisorOptions& options) {
  Supervisor fleet(test_power(), options);
  std::vector<std::pair<std::string, TaskId>> acked;
  for (int i = 0; i < 36; ++i) {
    const std::string tenant = "tenant-" + std::to_string(i % 9);
    const ServiceDecision d = fleet.submit(tenant, rich_task(i), "rid-" + std::to_string(i));
    ASSERT_TRUE(d.admission.admitted);
    acked.emplace_back(tenant, d.id);
  }
  for (std::size_t i = 0; i < acked.size(); i += 5) {
    ASSERT_EQ(fleet.complete(acked[i].first, acked[i].second), std::optional<bool>(true));
  }
}

void overwrite(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << text;
}

TEST(SupervisorTest, FirstBringUpCrashLeavesTheShardDownUntilTheFirstOp) {
  const SupervisorOptions options = fleet_options("sup_first_bringup", 1);
  {
    Supervisor fleet(test_power(), options);
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(fleet.submit("t", rich_task(i), "req-" + std::to_string(i)).admission.admitted);
    }
  }
  FaultInjector injector(FaultPlan::parse("kill:shard.restart.replay@1"));
  faults::FaultScope scope(injector);
  Supervisor fleet(test_power(), options);  // construction itself does not throw
  EXPECT_FALSE(fleet.shard(0).up());
  EXPECT_EQ(fleet.shard(0).stats().restart_failures, 1u);

  // The countdown is zero: the first routed op recovers every journaled
  // admit, and a retried rid dedups against them.
  const ServiceDecision retry = fleet.submit("t", rich_task(3), "req-3");
  ASSERT_TRUE(retry.admission.admitted);
  EXPECT_TRUE(retry.deduplicated);
  EXPECT_TRUE(fleet.shard(0).up());
  EXPECT_EQ(fleet.shard(0).committed_count(), 4u);
}

TEST(SupervisorTest, ConcurrentBringUpVisitsTheRestartKillPointInShardOrder) {
  for (int rep = 0; rep < 20; ++rep) {
    SCOPED_TRACE(rep);
    FaultInjector injector(FaultPlan::parse("kill:shard.restart.replay@2"));
    faults::FaultScope scope(injector);
    Supervisor fleet(test_power(), fleet_options("sup_bringup_order", 3));
    EXPECT_TRUE(fleet.shard(0).up());
    EXPECT_FALSE(fleet.shard(1).up());
    EXPECT_TRUE(fleet.shard(2).up());
    EXPECT_EQ(injector.kill_visits("shard.restart.replay"), 3u);
  }
}

TEST(SupervisorTest, BringUpRethrowsTheLowestFailingShardsError) {
  const SupervisorOptions options = fleet_options("sup_bringup_error", 3);
  populate(options);
  const std::string base = options.data_dir + "/shard";

  // A corrupt journal header on shard 2 fails the fleet with its error.
  overwrite(base + "2.wal", "# not a journal\n");
  try {
    Supervisor fleet(test_power(), options);
    FAIL() << "bring-up over a corrupt journal must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "not an easched-admission-journal v1 file: " + base + "2.wal");
  }

  // With shard 1 failing too (its journal header), shard 1's error wins.
  overwrite(base + "1.wal", "# not a journal\n");
  try {
    Supervisor fleet(test_power(), options);
    FAIL() << "bring-up over a corrupt journal must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "not an easched-admission-journal v1 file: " + base + "1.wal");
  }
}

TEST(SupervisorTest, ConcurrentBringUpEqualsOneShardAtATime) {
  const SupervisorOptions killed = fleet_options("sup_bringup_equal", 3);
  populate(killed);
  SupervisorOptions fleet_copy = fleet_options("sup_bringup_equal_fleet", 3);
  SupervisorOptions serial_copy = fleet_options("sup_bringup_equal_serial", 3);
  for (const SupervisorOptions* copy : {&fleet_copy, &serial_copy}) {
    std::filesystem::copy(killed.data_dir, copy->data_dir,
                          std::filesystem::copy_options::overwrite_existing |
                              std::filesystem::copy_options::recursive);
  }

  Supervisor fleet(test_power(), fleet_copy);
  std::vector<std::unique_ptr<ServiceShard>> serial;
  for (std::size_t k = 0; k < 3; ++k) {
    serial.push_back(std::make_unique<ServiceShard>(test_power(), shard_options_of(serial_copy, k)));
  }
  std::size_t recovered = 0;
  for (std::size_t k = 0; k < 3; ++k) {
    SCOPED_TRACE(k);
    ServiceShard& concurrent = fleet.shard(k);
    ServiceShard& one_by_one = *serial[k];
    EXPECT_EQ(concurrent.committed_ids(), one_by_one.committed_ids());
    const TaskSet a = concurrent.committed_task_set();
    const TaskSet b = one_by_one.committed_task_set();
    EXPECT_EQ(std::vector<Task>(a.begin(), a.end()), std::vector<Task>(b.begin(), b.end()));
    EXPECT_EQ(concurrent.current_plan().segments(), one_by_one.current_plan().segments());
    EXPECT_EQ(concurrent.current_energy(), one_by_one.current_energy());
    recovered += concurrent.committed_count();
  }
  EXPECT_EQ(recovered, 36u - 8u);  // every acked admit but the completed ones
}

}  // namespace
}  // namespace easched
