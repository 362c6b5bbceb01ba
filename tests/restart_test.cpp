// Restart does each step once: the journal alone is replayed, once, and the
// first request re-derives the plan. Pins compatibility with data dirs
// written in the older formats (17-digit journal records, snapshots with a
// stored plan and counters), bit-exact record round-trips, that a restarted
// shard plans the set it recovered rather than the one its last snapshot
// export saw, when a restart rewrites the journal (mid-file corruption, or
// past the compaction threshold — never a clean journal under it), that a
// torn tail is cut before the next append, and that a missing or damaged
// snapshot export changes nothing a restart recovers.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "easched/common/math.hpp"
#include "easched/common/rng.hpp"
#include "easched/service/journal.hpp"
#include "easched/service/snapshot.hpp"
#include "easched/service/supervisor.hpp"

namespace easched {
namespace {

PowerModel test_power() { return PowerModel(3.0, 0.1); }

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

SupervisorOptions one_shard(const std::string& data_dir) {
  SupervisorOptions options;
  options.shards = 1;
  options.data_dir = data_dir;
  options.service.cores = 2;
  options.service.f_max = kInf;
  return options;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

void expect_same_bits(const Task& actual, const Task& expected) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.release),
            std::bit_cast<std::uint64_t>(expected.release));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.deadline),
            std::bit_cast<std::uint64_t>(expected.deadline));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.work),
            std::bit_cast<std::uint64_t>(expected.work));
}

/// Task `i` of the checked-in data dir `data/older_format`: a one-shard
/// fleet admitted tasks 0..11 under rids "rid-<i>", completed 3 and 7,
/// restarted (snapshot with plan and energy, compacted journal), admitted
/// 12..15 and completed 0 and 12. Every field has 17 significant digits.
Task fixture_task(int i) {
  const double release = 0.1 * i + 1.0 / 3.0;
  return Task{release, release + 15.0 + 1.0 / 7.0, 0.5 + 0.01 * i + 1e-9 / 3.0};
}

TEST(RestartTest, OlderFormatDataDirRestoresBitExactly) {
  const std::string dir = fresh_dir("restart_older_format");
  for (const char* name : {"shard0.wal", "shard0.snap"}) {
    std::filesystem::copy_file(std::string(EASCHED_TEST_DATA_DIR) + "/older_format/" + name,
                               dir + "/" + name);
  }
  // The snapshot's plan section, `# energy=` and `# counter=` lines are
  // skipped.
  const ServiceSnapshot snapshot = read_snapshot(dir + "/shard0.snap");
  EXPECT_EQ(snapshot.next_id, 12);
  EXPECT_EQ(snapshot.committed.size(), 10u);

  Supervisor fleet(test_power(), one_shard(dir));
  const std::vector<TaskId> live = {1, 2, 4, 5, 6, 8, 9, 10, 11, 13, 14, 15};
  ASSERT_EQ(fleet.shard(0).committed_ids(), live);
  EXPECT_EQ(fleet.shard(0).next_id(), 16);
  // The snapshot rounded its tasks to 9 decimals; recovery reads the
  // journal's 17-digit records, which restore the admitted bits.
  const TaskSet tasks = fleet.shard(0).committed_task_set();
  for (std::size_t i = 0; i < live.size(); ++i) expect_same_bits(tasks[i], fixture_task(live[i]));

  // The rid map covers every acked admit, completed ones included.
  for (int i = 0; i < 16; ++i) {
    const ServiceDecision retry = fleet.submit("t", fixture_task(i), "rid-" + std::to_string(i));
    EXPECT_TRUE(retry.deduplicated) << "rid-" << i;
    EXPECT_EQ(retry.id, i);
  }
  EXPECT_EQ(fleet.committed_total(), live.size());
  // next_id resumes past every id ever handed out.
  EXPECT_EQ(fleet.submit("t", fixture_task(16), "rid-16").id, 16);
}

/// A double from one of the ranges a text codec gets wrong: 17 significant
/// digits, subnormals, magnitudes near ±1e300.
double hard_double(Rng& rng) {
  const double sign = rng.uniform() < 0.5 ? -1.0 : 1.0;
  switch (rng.uniform_index(4)) {
    case 0:
      return sign * rng.uniform(1e-3, 1e6);
    case 1:
      return sign * std::numeric_limits<double>::denorm_min() *
             static_cast<double>(1 + rng.uniform_index(std::uint64_t{1} << 40));
    case 2:
      return sign * 1e300 * rng.uniform(0.1, 1.7);
    default:
      return sign * rng.uniform() * 1e-300;
  }
}

TEST(RestartTest, RecordsRoundTripTasksBitExactly) {
  Rng rng(Rng::seed_of("restart-codec-property"));
  std::vector<std::pair<TaskId, Task>> tasks;
  while (tasks.size() < 2000) {
    const double a = hard_double(rng);
    const double b = hard_double(rng);
    const double work = std::abs(hard_double(rng));
    if (a == b || work == 0.0) continue;
    tasks.emplace_back(static_cast<TaskId>(tasks.size()),
                       Task{std::min(a, b), std::max(a, b), work});
  }

  const std::string dir = fresh_dir("restart_codec_property");
  {
    AdmissionJournal journal(dir + "/tasks.wal");
    for (const auto& [id, task] : tasks) journal.append_admit(id, task);
  }
  const JournalRecovery recovery = AdmissionJournal::recover(dir + "/tasks.wal");
  ASSERT_EQ(recovery.committed.size(), tasks.size());
  EXPECT_TRUE(recovery.corruptions.empty());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(recovery.committed[i].first, tasks[i].first);
    expect_same_bits(recovery.committed[i].second, tasks[i].second);
  }

  ServiceSnapshot snapshot;
  snapshot.cores = 4;
  snapshot.next_id = static_cast<TaskId>(tasks.size());
  snapshot.committed = tasks;
  const ServiceSnapshot parsed = snapshot_from_text(snapshot_to_text(snapshot));
  ASSERT_EQ(parsed.committed.size(), tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(parsed.committed[i].first, tasks[i].first);
    expect_same_bits(parsed.committed[i].second, tasks[i].second);
  }
}

TEST(RestartTest, RecordLinesMatchTheOlderWriterByteForByte) {
  // Records whose numbers print alike in every writer: each whole line,
  // checksum hex included, equals the line the older iostream writer
  // produced, so the checksum and its text are unchanged.
  const std::string dir = fresh_dir("restart_lines");
  AdmissionJournal journal(dir + "/lines.wal");
  journal.append_admit(7, Task{0.5, 9.5, 2.0}, "client-3-attempt-1");
  journal.append_admit(0, Task{0.0, 10.0, 1.0});
  journal.append_admit(42, Task{4.25, 14.25, 1.5}, "r");
  journal.append_complete(0);
  journal.append_complete(123456);
  EXPECT_EQ(read_lines(dir + "/lines.wal"),
            (std::vector<std::string>{
                "# easched-admission-journal v1",
                "9cae1d1aef8fff1f admit 7 0.5 9.5 2 client-3-attempt-1",
                "a96d117952c92044 admit 0 0 10 1",
                "f867be9efa2e7eb3 admit 42 4.25 14.25 1.5 r",
                "44db8428a7446d42 complete 0",
                "6e2ed15917989579 complete 123456",
            }));

  journal.compact(2, {{1, Task{1.0, 11.0, 1.0}}}, {{"req-a", 0}, {"req-b", 1}});
  EXPECT_EQ(read_lines(dir + "/lines.wal"),
            (std::vector<std::string>{
                "# easched-admission-journal v1",
                "4f84683129faa7de next 2",
                "4275115156288668 admit 1 1 11 1 req-b",
                "f851a301c3c290b1 dedup req-a 0",
            }));
}

Task churn_task(int i) {
  const double release = 0.37 * i + 0.1 / 3.0;
  return Task{release, release + 12.0 + 0.01 * (i % 7), 0.4 + 0.013 * (i % 11)};
}

TEST(RestartTest, RestartedShardPlansTheRecoveredSetNotTheSnapshots) {
  // Fleet A restarts after its snapshot export fell behind its journal; the
  // never-restarted fleet sees the same ops. Plans are a function of the
  // committed set, so both must agree bit for bit.
  const SupervisorOptions restarting = one_shard(fresh_dir("restart_stale"));
  Supervisor never_restarted(test_power(), one_shard(fresh_dir("restart_stale_reference")));
  const auto both = [&](Supervisor& fleet, int i) {
    const std::string rid = "stale-" + std::to_string(i);
    ASSERT_TRUE(fleet.submit("t", churn_task(i), rid).admission.admitted);
    ASSERT_TRUE(never_restarted.submit("t", churn_task(i), rid).admission.admitted);
  };
  {
    Supervisor first(test_power(), restarting);
    for (int i = 0; i < 20; ++i) both(first, i);
  }
  {
    // A bring-up that finds the journal past a tiny threshold compacts it;
    // every bring-up exports the 20 tasks.
    SupervisorOptions compacting = restarting;
    compacting.journal_compact_bytes = 1;
    Supervisor snapshotting(test_power(), compacting);
    ASSERT_EQ(snapshotting.shard(0).stats().compactions, 1u);
  }
  {
    Supervisor second(test_power(), restarting);
    for (int i = 20; i < 40; ++i) both(second, i);
    for (const TaskId id : {3, 21, 30}) {
      ASSERT_EQ(second.complete("t", id), std::optional<bool>(true));
      ASSERT_EQ(never_restarted.complete("t", id), std::optional<bool>(true));
    }
    ASSERT_EQ(second.shard(0).stats().compactions, 0u);
  }  // the journal now holds 20 admits and 3 completions past the export
  ASSERT_EQ(read_snapshot(restarting.data_dir + "/shard0.snap").committed.size(), 20u);

  // Two rebuilds over copies of the same data dir: one reads the plan
  // first, the other admits first.
  const std::string admit_first_dir = fresh_dir("restart_stale_admit_first");
  std::filesystem::copy(restarting.data_dir, admit_first_dir,
                        std::filesystem::copy_options::recursive |
                            std::filesystem::copy_options::overwrite_existing);
  Supervisor read_first(test_power(), restarting);
  Supervisor admit_first(test_power(), one_shard(admit_first_dir));
  ASSERT_EQ(read_first.shard(0).committed_ids(), never_restarted.shard(0).committed_ids());

  EXPECT_EQ(read_first.shard(0).current_energy(), never_restarted.shard(0).current_energy());
  const Schedule restored_plan = read_first.shard(0).current_plan();
  const Schedule reference_plan = never_restarted.shard(0).current_plan();
  EXPECT_EQ(restored_plan.core_count(), reference_plan.core_count());
  EXPECT_EQ(restored_plan.segments(), reference_plan.segments());

  const ServiceDecision restored = admit_first.submit("t", churn_task(40), "stale-40");
  const ServiceDecision reference = never_restarted.submit("t", churn_task(40), "stale-40");
  ASSERT_TRUE(restored.admission.admitted);
  ASSERT_TRUE(reference.admission.admitted);
  EXPECT_EQ(restored.id, reference.id);
  EXPECT_EQ(restored.admission.energy_before, reference.admission.energy_before);
  EXPECT_EQ(restored.admission.energy_after, reference.admission.energy_after);
}

std::vector<TaskId> fill(Supervisor& fleet, const std::string& rid_prefix, int admits,
                         const std::vector<TaskId>& completes) {
  for (int i = 0; i < admits; ++i) {
    EXPECT_TRUE(
        fleet.submit("t", churn_task(i), rid_prefix + std::to_string(i)).admission.admitted);
  }
  for (const TaskId id : completes) EXPECT_EQ(fleet.complete("t", id), std::optional<bool>(true));
  return fleet.shard(0).committed_ids();
}

TEST(RestartTest, CleanJournalUnderTheThresholdIsLeftByteIdentical) {
  const SupervisorOptions options = one_shard(fresh_dir("restart_clean"));
  const std::string wal = options.data_dir + "/shard0.wal";
  std::vector<TaskId> live;
  {
    Supervisor fleet(test_power(), options);
    live = fill(fleet, "clean-", 30, {4, 9, 17});
  }
  const std::string before = read_bytes(wal);
  ASSERT_LT(before.size(), options.journal_compact_bytes);

  Supervisor fleet(test_power(), options);
  EXPECT_EQ(read_bytes(wal), before);
  EXPECT_EQ(fleet.shard(0).stats().compactions, 0u);
  EXPECT_EQ(fleet.shard(0).committed_ids(), live);
}

TEST(RestartTest, JournalOverTheThresholdCompactsOnRestart) {
  SupervisorOptions options = one_shard(fresh_dir("restart_over_threshold"));
  const std::string wal = options.data_dir + "/shard0.wal";
  std::vector<TaskId> live;
  {
    Supervisor fleet(test_power(), options);
    live = fill(fleet, "over-", 30, {4, 9, 17});
  }
  const std::uintmax_t before = std::filesystem::file_size(wal);
  options.journal_compact_bytes = before / 2;

  Supervisor fleet(test_power(), options);
  EXPECT_EQ(fleet.shard(0).stats().compactions, 1u);
  EXPECT_LT(std::filesystem::file_size(wal), before);  // the completions are gone
  EXPECT_EQ(fleet.shard(0).committed_ids(), live);
  for (int i = 0; i < 30; ++i) {
    const ServiceDecision retry = fleet.submit("t", churn_task(i), "over-" + std::to_string(i));
    EXPECT_TRUE(retry.deduplicated) << i;
    EXPECT_EQ(retry.id, i);
  }
}

TEST(RestartTest, CorruptJournalCompactsAndTheNextRestartFindsNone) {
  const SupervisorOptions options = one_shard(fresh_dir("restart_corrupt"));
  const std::string wal = options.data_dir + "/shard0.wal";
  {
    Supervisor fleet(test_power(), options);
    fill(fleet, "corrupt-", 10, {});
  }
  // Break the checksum of line 4 (the admit of id 2) with valid records
  // after it: mid-file corruption, not a torn tail. Checksums are written
  // without leading zeros, so a leading '0' never matches.
  std::string text = read_bytes(wal);
  std::size_t line_start = 0;
  for (int line = 1; line < 4; ++line) line_start = text.find('\n', line_start) + 1;
  text[line_start] = '0';
  std::ofstream(wal, std::ios::binary | std::ios::trunc) << text;
  ASSERT_EQ(AdmissionJournal::recover(wal).corruptions.size(), 1u);

  const std::vector<TaskId> survivors = {0, 1, 3, 4, 5, 6, 7, 8, 9};
  {
    Supervisor fleet(test_power(), options);
    EXPECT_EQ(fleet.shard(0).stats().compactions, 1u);
    EXPECT_EQ(fleet.shard(0).committed_ids(), survivors);
  }
  EXPECT_TRUE(AdmissionJournal::recover(wal).corruptions.empty());
  Supervisor fleet(test_power(), options);
  EXPECT_EQ(fleet.shard(0).stats().compactions, 0u);
  EXPECT_EQ(fleet.shard(0).committed_ids(), survivors);
  EXPECT_EQ(fleet.submit("t", churn_task(10), "corrupt-10").id, 10);
}

ServiceOptions journaled(const std::string& wal) {
  ServiceOptions options;
  options.cores = 2;
  options.f_max = kInf;
  options.journal_path = wal;
  return options;
}

TEST(RestartTest, TornTailIsCutBeforeTheNextAppend) {
  // A crash mid-append leaves the last record torn. Had the next
  // incarnation appended onto that line, its acked admit would fail the
  // checksum on the replay after, and a retry of its rid would commit it
  // again under a new id.
  for (const std::uintmax_t cut : {std::uintmax_t{9}, std::uintmax_t{1}}) {
    SCOPED_TRACE(cut == 1 ? "only the final newline lost" : "last record torn");
    const std::string wal =
        fresh_dir("restart_torn_service_" + std::to_string(cut)) + "/service.wal";
    {
      SchedulerService service(test_power(), journaled(wal));
      ASSERT_EQ(service.submit(churn_task(0), "a").id, 0);
      ASSERT_EQ(service.submit(churn_task(1), "b").id, 1);
    }
    std::filesystem::resize_file(wal, std::filesystem::file_size(wal) - cut);
    // Without only its newline, b's record is whole and replay commits it.
    std::vector<TaskId> expected = cut == 1 ? std::vector<TaskId>{0, 1} : std::vector<TaskId>{0};
    {
      SchedulerService service(test_power(), journaled(wal));
      ASSERT_EQ(service.committed_ids(), expected);
      const ServiceDecision c = service.submit(churn_task(2), "c");
      ASSERT_TRUE(c.admission.admitted);
      ASSERT_FALSE(c.deduplicated);
      expected.push_back(c.id);
    }
    SchedulerService service(test_power(), journaled(wal));
    EXPECT_EQ(service.committed_ids(), expected);
    EXPECT_TRUE(AdmissionJournal::recover(wal).corruptions.empty());
    const ServiceDecision retry = service.submit(churn_task(2), "c");
    EXPECT_TRUE(retry.deduplicated);
    EXPECT_EQ(retry.id, expected.back());
    if (cut == 1) {
      const ServiceDecision b = service.submit(churn_task(1), "b");
      EXPECT_TRUE(b.deduplicated);
      EXPECT_EQ(b.id, 1);
    }
    EXPECT_EQ(service.committed_count(), expected.size());
  }
}

TEST(RestartTest, SupervisedShardCutsATornTailWithoutCompacting) {
  const SupervisorOptions options = one_shard(fresh_dir("restart_torn_shard"));
  const std::string wal = options.data_dir + "/shard0.wal";
  std::string through_a;
  {
    Supervisor fleet(test_power(), options);
    ASSERT_EQ(fleet.submit("t", churn_task(0), "a").id, 0);
    through_a = read_bytes(wal);
    ASSERT_EQ(fleet.submit("t", churn_task(1), "b").id, 1);
  }
  std::filesystem::resize_file(wal, std::filesystem::file_size(wal) - 9);

  TaskId c_id = -1;
  {
    Supervisor fleet(test_power(), options);
    // The torn record is cut off, not compacted away: the journal ends
    // where it did before b's append began.
    EXPECT_EQ(read_bytes(wal), through_a);
    EXPECT_EQ(fleet.shard(0).stats().compactions, 0u);
    const ServiceDecision c = fleet.submit("t", churn_task(2), "c");
    ASSERT_TRUE(c.admission.admitted);
    c_id = c.id;
  }
  Supervisor fleet(test_power(), options);
  EXPECT_EQ(fleet.shard(0).committed_ids(), (std::vector<TaskId>{0, c_id}));
  const ServiceDecision retry = fleet.submit("t", churn_task(2), "c");
  EXPECT_TRUE(retry.deduplicated);
  EXPECT_EQ(retry.id, c_id);
}

TEST(RestartTest, UnreadableSnapshotIsRecoveredFromTheJournalAlone) {
  // Recovery reads the journal alone — it holds the live set, `next` and
  // the dedup ledger — so a snapshot export that is missing, torn by a
  // crash inside its write, or damaged changes nothing a restart recovers.
  const SupervisorOptions options = one_shard(fresh_dir("restart_snapshot"));
  {
    Supervisor fleet(test_power(), options);
    fill(fleet, "snap-", 30, {4, 9, 17});
  }
  {
    // This bring-up exports the 27 live tasks; the ops after it are in the
    // journal only.
    Supervisor fleet(test_power(), options);
    for (int i = 30; i < 40; ++i) {
      ASSERT_TRUE(
          fleet.submit("t", churn_task(i), "snap-" + std::to_string(i)).admission.admitted);
    }
    for (const TaskId id : {21, 33}) ASSERT_EQ(fleet.complete("t", id), std::optional<bool>(true));
  }
  const std::string text = read_bytes(options.data_dir + "/shard0.snap");
  ASSERT_EQ(snapshot_from_text(text).committed.size(), 27u);
  // The start of the tenth task row.
  std::size_t row = text.find("release,deadline,work\n");
  ASSERT_NE(row, std::string::npos);
  for (int i = 0; i < 10; ++i) row = text.find('\n', row) + 1;

  const auto copy_with_snapshot = [&](const std::string& name,
                                      const std::optional<std::string>& snapshot) {
    SupervisorOptions copy = one_shard(fresh_dir(name));
    std::filesystem::copy_file(options.data_dir + "/shard0.wal", copy.data_dir + "/shard0.wal");
    if (snapshot) std::ofstream(copy.data_dir + "/shard0.snap", std::ios::binary) << *snapshot;
    return copy;
  };
  std::vector<TaskId> live;
  TaskSet live_tasks;
  {
    Supervisor intact(test_power(), copy_with_snapshot("restart_snapshot_intact", text));
    live = intact.shard(0).committed_ids();
    live_tasks = intact.shard(0).committed_task_set();
  }
  ASSERT_EQ(live.size(), 35u);

  const std::vector<std::pair<std::string, std::optional<std::string>>> damages = {
      {"deleted", std::nullopt},
      {"mid_row", text.substr(0, text.find(',', row) + 2)},
      {"row_boundary", text.substr(0, row)},
      {"garbage", std::string(text.size(), '\xff')},
  };
  for (const auto& [label, snapshot] : damages) {
    SCOPED_TRACE(label);
    const SupervisorOptions copy = copy_with_snapshot("restart_snapshot_" + label, snapshot);
    Supervisor fleet(test_power(), copy);
    ASSERT_EQ(fleet.shard(0).committed_ids(), live);
    const TaskSet tasks = fleet.shard(0).committed_task_set();
    for (std::size_t i = 0; i < live.size(); ++i) expect_same_bits(tasks[i], live_tasks[i]);
    EXPECT_EQ(fleet.shard(0).next_id(), 40);
    // The bring-up wrote a fresh export of the recovered state.
    EXPECT_EQ(read_snapshot(copy.data_dir + "/shard0.snap").committed.size(), live.size());
    for (int i = 0; i < 40; ++i) {
      const ServiceDecision retry = fleet.submit("t", churn_task(i), "snap-" + std::to_string(i));
      EXPECT_TRUE(retry.deduplicated) << i;
      EXPECT_EQ(retry.id, i);
    }
    EXPECT_EQ(fleet.submit("t", churn_task(40), "snap-40").id, 40);
  }
}

}  // namespace
}  // namespace easched
