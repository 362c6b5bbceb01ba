// Chaos-tests the supervised fleet: a seeded op stream is run once per kill
// schedule (crashes at every journal boundary, on arrival, and mid-restart-
// replay) and once clean, with clients retrying unavailable ops under the
// same rid. The recovered fleet must end bit-identical to the uninterrupted
// run — same committed ids, same task sets, same plans, same energy. A
// separate test drives 4x overload through the brownout ladder and checks
// the fleet keeps accepting, and another forces the ladder through every
// level while a mixed kill schedule fires and audits every acked admit.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "easched/common/math.hpp"
#include "easched/common/rng.hpp"
#include "easched/faults/fault_injection.hpp"
#include "easched/service/supervisor.hpp"
#include "easched/tasksys/workload.hpp"

namespace easched {
namespace {

constexpr std::size_t kShards = 2;
constexpr int kOps = 60;
constexpr std::uint64_t kStreamSeed = 20140811;  // ICPP'14 vintage

SupervisorOptions chaos_options(const std::string& name) {
  SupervisorOptions options;
  options.shards = kShards;
  options.data_dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(options.data_dir);
  std::filesystem::create_directories(options.data_dir);
  options.service.cores = 2;
  options.service.f_max = kInf;
  // The differential needs brownout OFF: the faulted run's retries add
  // extra pressure observations, so a live ladder would diverge between
  // the two runs by design, not by bug.
  options.brownout_enabled = false;
  return options;
}

/// Everything observable about a shard after the stream drains. Plans are
/// compared segment-by-segment (`Segment` has defaulted equality) and
/// energies exactly — "recovered" must mean bit-identical, not close.
struct ShardState {
  std::vector<TaskId> ids;
  std::vector<Task> tasks;
  std::vector<Segment> segments;
  double energy = 0.0;
};

std::vector<ShardState> fleet_state(Supervisor& supervisor) {
  std::vector<ShardState> state;
  for (std::size_t k = 0; k < supervisor.shard_count(); ++k) {
    ServiceShard& shard = supervisor.shard(k);
    ShardState s;
    s.ids = shard.committed_ids();
    const TaskSet task_set = shard.committed_task_set();
    for (const Task& task : task_set.tasks()) s.tasks.push_back(task);
    s.segments = shard.current_plan().segments();
    s.energy = shard.current_energy();
    state.push_back(std::move(s));
  }
  return state;
}

void expect_states_equal(const std::vector<ShardState>& faulted,
                         const std::vector<ShardState>& clean, const std::string& label) {
  ASSERT_EQ(faulted.size(), clean.size()) << label;
  for (std::size_t k = 0; k < faulted.size(); ++k) {
    SCOPED_TRACE(label + ", shard " + std::to_string(k));
    EXPECT_EQ(faulted[k].ids, clean[k].ids);
    ASSERT_EQ(faulted[k].tasks.size(), clean[k].tasks.size());
    for (std::size_t i = 0; i < faulted[k].tasks.size(); ++i) {
      EXPECT_EQ(faulted[k].tasks[i].release, clean[k].tasks[i].release);
      EXPECT_EQ(faulted[k].tasks[i].deadline, clean[k].tasks[i].deadline);
      EXPECT_EQ(faulted[k].tasks[i].work, clean[k].tasks[i].work);
    }
    EXPECT_EQ(faulted[k].segments, clean[k].segments);
    EXPECT_EQ(faulted[k].energy, clean[k].energy);  // exact, not near
  }
}

/// Replays the seeded 60-op stream against a fresh fleet. Ops 0,1,2 of every
/// four are submits (rid "op-<i>"); op 3 completes the oldest still-live ack.
/// Unavailable answers are retried with the SAME rid until decided — the
/// client behavior the journal's idempotent re-admission exists for.
std::vector<ShardState> run_stream(const std::string& name, const std::string& fault_spec) {
  Supervisor supervisor(PowerModel(3.0, 0.1), chaos_options(name));

  std::optional<FaultInjector> injector;
  std::optional<faults::FaultScope> scope;
  if (!fault_spec.empty()) {
    injector.emplace(FaultPlan::parse(fault_spec));
    scope.emplace(*injector);
  }

  Rng rng(kStreamSeed);
  std::vector<std::pair<std::string, TaskId>> live_acks;  // (tenant, id)
  std::size_t next_to_complete = 0;

  for (int i = 0; i < kOps; ++i) {
    const std::string tenant = "tenant-" + std::to_string(i % 7);
    if (i % 4 == 3 && next_to_complete < live_acks.size()) {
      const auto& [owner, id] = live_acks[next_to_complete];
      std::optional<bool> done;
      for (int attempt = 0; attempt < 64 && !done.has_value(); ++attempt) {
        done = supervisor.complete(owner, id);
      }
      EXPECT_TRUE(done.has_value()) << "complete op " << i << " never recovered";
      if (!done.has_value()) return {};
      EXPECT_TRUE(*done);
      ++next_to_complete;
      continue;
    }

    const double release = rng.uniform(0.0, 6.0);
    const Task task{release, release + rng.uniform(10.0, 20.0), rng.uniform(0.2, 1.5)};
    const std::string rid = "op-" + std::to_string(i);
    ServiceDecision decision;
    for (int attempt = 0; attempt < 64; ++attempt) {
      decision = supervisor.submit(tenant, task, rid);
      if (decision.error_kind != AdmissionErrorKind::kUnavailable) break;
    }
    EXPECT_TRUE(decision.admission.admitted) << "submit op " << i << " never recovered";
    if (!decision.admission.admitted) return {};
    live_acks.emplace_back(tenant, decision.id);
  }

  // Nothing a client was acked for may be missing, crashed run or not.
  std::size_t committed = 0;
  for (std::size_t k = 0; k < supervisor.shard_count(); ++k) {
    committed += supervisor.shard(k).committed_count();
  }
  EXPECT_EQ(committed, live_acks.size() - next_to_complete);

  return fleet_state(supervisor);
}

// One kill schedule per crash boundary, plus a mixed storm. `restart_after`
// values keep some shards down across several ops so retries really exercise
// the countdown path, and the mid-restart-replay kill makes one recovery
// itself fail before succeeding.
const std::vector<std::pair<std::string, std::string>> kSchedules = {
    {"arrival", "seed=1;kill:shard.submit@4;restart_after=3"},
    {"journal_pre", "seed=2;kill:journal.admit.pre@3"},
    {"journal_post", "seed=3;kill:journal.admit.post@3"},
    {"restart_replay", "seed=4;kill:shard.submit@2;kill:shard.restart.replay@1"},
    {"mixed_storm",
     "seed=5;kill:shard.submit@5;restart_after=2;kill:journal.admit.pre@7;"
     "kill:journal.admit.post@11;kill:shard0.submit@20;restart_after=4"},
};

TEST(SupervisorChaosTest, EveryCrashBoundaryRecoversToTheUninterruptedState) {
  const std::vector<ShardState> clean = run_stream("chaos_clean", "");
  for (const auto& [label, spec] : kSchedules) {
    const std::vector<ShardState> faulted = run_stream("chaos_" + label, spec);
    expect_states_equal(faulted, clean, label);
  }
}

TEST(SupervisorChaosTest, FourTimesOverloadDegradesButKeepsAccepting) {
  SupervisorOptions options;
  options.shards = 2;
  options.data_dir = ::testing::TempDir() + "/chaos_overload";
  std::filesystem::remove_all(options.data_dir);
  std::filesystem::create_directories(options.data_dir);
  options.service.cores = 2;
  options.service.f_max = kInf;

  Supervisor supervisor(PowerModel(3.0, 0.1), options);

  // 4x the top engage watermark (32), sustained: the ladder must climb to
  // its ceiling, never past it, and laxity-rich work must keep landing.
  Rng rng(kStreamSeed);
  std::size_t admitted = 0;
  int max_level = 0;
  for (int i = 0; i < 80; ++i) {
    const double release = rng.uniform(0.0, 4.0);
    const Task task{release, release + 20.0, rng.uniform(0.2, 0.8)};
    const ServiceDecision decision =
        supervisor.submit("tenant-" + std::to_string(i % 5), task, "", /*pressure=*/128);
    EXPECT_LE(decision.brownout_level, kBrownoutMaxLevel);
    max_level = std::max(max_level, decision.brownout_level);
    if (decision.admission.admitted) ++admitted;
  }
  EXPECT_EQ(max_level, kBrownoutMaxLevel);  // walked the whole ladder up
  EXPECT_EQ(admitted, 80u);                 // level 3 still accepts rich work
  EXPECT_EQ(supervisor.max_brownout_level(), kBrownoutMaxLevel);
  EXPECT_EQ(supervisor.stats().shards_up, 2u);

  // The degradation is visible where operators look for it.
  const std::string exposition = supervisor.prometheus();
  EXPECT_NE(exposition.find("easched_brownout_level 3"), std::string::npos);
}

TEST(SupervisorChaosTest, ForcedBrownoutWalkUnderAKillScheduleLosesNoAckedAdmit) {
  SupervisorOptions options;
  options.shards = 4;
  options.data_dir = ::testing::TempDir() + "/chaos_walk";
  std::filesystem::remove_all(options.data_dir);
  std::filesystem::create_directories(options.data_dir);
  options.service.cores = 4;
  options.service.f_max = kInf;
  // The walk pins each level; a pressure-driven ladder would release a
  // forced level as soon as pressure looks calm.
  options.brownout_enabled = false;
  options.watchdog_deadline = std::chrono::milliseconds(0);

  // Shard crashes with restart countdowns, a shard-addressed kill, both
  // journal boundaries, and one failed restart: the second visit of
  // `shard.restart.replay` is shard 1's first bring-up.
  FaultInjector injector(FaultPlan::parse(
      "seed=11;kill:shard.submit@40;restart_after=6;kill:shard1.submit@120;restart_after=3;"
      "kill:journal.admit.pre@200;kill:journal.admit.post@400;kill:shard2.submit@500;"
      "kill:shard.restart.replay@2"));
  faults::FaultScope scope(injector);
  Supervisor supervisor(PowerModel(3.0, 0.1), options);

  // 1000 paper-generator tasks in release order, over 8 tenants.
  constexpr std::size_t kRequests = 1000;
  WorkloadConfig config;
  config.task_count = kRequests;
  Rng rng(kStreamSeed);
  const TaskSet generated = generate_workload(config, rng);
  std::vector<Task> stream(generated.tasks().begin(), generated.tasks().end());
  std::stable_sort(stream.begin(), stream.end(),
                   [](const Task& a, const Task& b) { return a.release < b.release; });

  struct Ack {
    std::size_t shard = 0;
    TaskId id = -1;
  };
  std::map<std::string, Ack> acked;
  std::set<int> levels_seen;
  std::size_t undecided = 0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    // Levels 0 -> 1 -> 2 -> 3 at stream quarters.
    const int quarter = static_cast<int>(i * 4 / kRequests);
    if (supervisor.max_brownout_level() != quarter) supervisor.force_brownout_level(quarter);
    const std::string tenant = "tenant-" + std::to_string(i % 8);
    const std::string rid = "req-" + std::to_string(i);
    ServiceDecision decision;
    for (int attempt = 0; attempt < 64; ++attempt) {
      decision = supervisor.submit(tenant, stream[i], rid);
      if (decision.error_kind != AdmissionErrorKind::kUnavailable) break;
    }
    if (decision.error_kind == AdmissionErrorKind::kUnavailable) ++undecided;
    levels_seen.insert(decision.brownout_level);
    if (decision.admission.admitted) acked[rid] = Ack{supervisor.route(tenant), decision.id};
    if (i % 16 == 15) supervisor.check_watchdogs();
  }
  // Bring every down shard back up so the audit reads live state.
  for (std::size_t k = 0; k < supervisor.shard_count(); ++k) {
    for (int attempt = 0; attempt < 8 && !supervisor.shard(k).restart_now(); ++attempt) {
    }
  }

  const SupervisorStats stats = supervisor.stats();
  EXPECT_EQ(stats.shards_up, 4u);
  EXPECT_GE(stats.crashes_contained, 1u);
  EXPECT_GE(stats.restart_failures, 1u);
  EXPECT_EQ(undecided, 0u);
  EXPECT_EQ(levels_seen, (std::set<int>{0, 1, 2, kBrownoutMaxLevel}));
  EXPECT_EQ(stats.max_brownout_level, kBrownoutMaxLevel);

  // No-lost-acks audit: every acked rid is still committed on its shard.
  ASSERT_FALSE(acked.empty());
  std::vector<std::set<TaskId>> committed(supervisor.shard_count());
  for (std::size_t k = 0; k < supervisor.shard_count(); ++k) {
    const std::vector<TaskId> ids = supervisor.shard(k).committed_ids();
    committed[k].insert(ids.begin(), ids.end());
  }
  for (const auto& [rid, ack] : acked) {
    EXPECT_EQ(committed[ack.shard].count(ack.id), 1u)
        << rid << " (task " << ack.id << " on shard " << ack.shard << ") was lost";
  }

  const std::string exposition = supervisor.prometheus();
  EXPECT_NE(exposition.find("easched_brownout_level 3"), std::string::npos);
}

}  // namespace
}  // namespace easched
