// The admission WAL: append/recover round-trips, removal records, torn-tail
// tolerance, and header discipline.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "easched/service/journal.hpp"

namespace easched {
namespace {

std::string fresh_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void write_lines(const std::string& path, const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& line : lines) out << line << "\n";
}

TEST(JournalTest, MissingFileRecoversEmpty) {
  const JournalRecovery recovery = AdmissionJournal::recover(fresh_path("journal_missing.log"));
  EXPECT_TRUE(recovery.committed.empty());
  EXPECT_EQ(recovery.next_id, 0);
  EXPECT_EQ(recovery.records, 0u);
  EXPECT_EQ(recovery.dropped_lines, 0u);
}

TEST(JournalTest, AdmitRoundTripsExactValues) {
  const std::string path = fresh_path("journal_roundtrip.log");
  {
    AdmissionJournal journal(path);
    journal.append_admit(0, Task{0.125, 10.75, 3.0000000000000004});
    journal.append_admit(1, Task{2.0, 8.0, 1.5});
    EXPECT_EQ(journal.appended(), 2u);
  }
  const JournalRecovery recovery = AdmissionJournal::recover(path);
  ASSERT_EQ(recovery.committed.size(), 2u);
  EXPECT_EQ(recovery.records, 2u);
  EXPECT_EQ(recovery.next_id, 2);
  EXPECT_EQ(recovery.committed[0].first, 0);
  // precision(17) makes the text round-trip bit-exact for doubles.
  EXPECT_EQ(recovery.committed[0].second.release, 0.125);
  EXPECT_EQ(recovery.committed[0].second.deadline, 10.75);
  EXPECT_EQ(recovery.committed[0].second.work, 3.0000000000000004);
  EXPECT_EQ(recovery.committed[1].first, 1);
}

TEST(JournalTest, CompleteRemovesAndIsRemembered) {
  const std::string path = fresh_path("journal_complete.log");
  {
    AdmissionJournal journal(path);
    journal.append_admit(0, Task{0.0, 10.0, 2.0});
    journal.append_admit(1, Task{1.0, 9.0, 1.0});
    journal.append_admit(2, Task{2.0, 8.0, 1.0});
    journal.append_complete(1);
  }
  const JournalRecovery recovery = AdmissionJournal::recover(path);
  ASSERT_EQ(recovery.committed.size(), 2u);
  EXPECT_EQ(recovery.committed[0].first, 0);
  EXPECT_EQ(recovery.committed[1].first, 2);
  EXPECT_EQ(recovery.next_id, 3);  // completion does not reuse ids
  EXPECT_EQ(recovery.records, 4u);
}

TEST(JournalTest, ReopenAppendsWithoutSecondHeader) {
  const std::string path = fresh_path("journal_reopen.log");
  {
    AdmissionJournal journal(path);
    journal.append_admit(0, Task{0.0, 10.0, 2.0});
  }
  {
    AdmissionJournal journal(path);
    journal.append_admit(1, Task{1.0, 9.0, 1.0});
    EXPECT_EQ(journal.appended(), 1u);  // counts this handle only
  }
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "# easched-admission-journal v1");
  const JournalRecovery recovery = AdmissionJournal::recover(path);
  EXPECT_EQ(recovery.committed.size(), 2u);
}

TEST(JournalTest, TornTailIsDroppedNotFatal) {
  const std::string path = fresh_path("journal_torn.log");
  {
    AdmissionJournal journal(path);
    journal.append_admit(0, Task{0.0, 10.0, 2.0});
    journal.append_admit(1, Task{1.0, 9.0, 1.0});
  }
  // Simulate a crash mid-append: truncate the last line in half.
  std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 3u);
  lines[2] = lines[2].substr(0, lines[2].size() / 2);
  write_lines(path, lines);

  const JournalRecovery recovery = AdmissionJournal::recover(path);
  ASSERT_EQ(recovery.committed.size(), 1u);
  EXPECT_EQ(recovery.committed[0].first, 0);
  EXPECT_EQ(recovery.records, 1u);
  EXPECT_EQ(recovery.dropped_lines, 1u);
}

TEST(JournalTest, MidFileCorruptionIsSkippedAndStructured) {
  const std::string path = fresh_path("journal_corrupt.log");
  {
    AdmissionJournal journal(path);
    journal.append_admit(0, Task{0.0, 10.0, 2.0});
    journal.append_admit(1, Task{1.0, 9.0, 1.0});
    journal.append_admit(2, Task{2.0, 8.0, 1.0});
  }
  // Flip the middle record's payload without fixing its checksum. A valid
  // record follows, so this is mid-file corruption (bit rot), not a torn
  // tail: replay skips the bad line, recovers the record after it, and
  // surfaces a structured report with the line number and byte offset.
  std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 4u);
  lines[2][lines[2].size() - 1] = lines[2].back() == '9' ? '8' : '9';
  write_lines(path, lines);

  const JournalRecovery recovery = AdmissionJournal::recover(path);
  ASSERT_EQ(recovery.committed.size(), 2u);
  EXPECT_EQ(recovery.committed[0].first, 0);
  EXPECT_EQ(recovery.committed[1].first, 2);
  EXPECT_EQ(recovery.next_id, 3);  // the surviving admit of id 2 pins it
  EXPECT_EQ(recovery.dropped_lines, 0u);
  ASSERT_EQ(recovery.corruptions.size(), 1u);
  EXPECT_EQ(recovery.corruptions[0].line, 3u);  // 1-based; header is line 1
  EXPECT_EQ(recovery.corruptions[0].reason, "checksum mismatch");
  // Offset points at the corrupted line's first byte: header + record 1.
  EXPECT_EQ(recovery.corruptions[0].offset, lines[0].size() + lines[1].size() + 2);
}

TEST(JournalTest, CorruptionAndTornTailAreClassifiedByPosition) {
  const std::string path = fresh_path("journal_corrupt_tail.log");
  {
    AdmissionJournal journal(path);
    journal.append_admit(0, Task{0.0, 10.0, 2.0});
    journal.append_admit(1, Task{1.0, 9.0, 1.0});
    journal.append_admit(2, Task{2.0, 8.0, 1.0});
  }
  // Corrupt the FIRST record and tear the LAST: the first is reported as
  // corruption (a valid record follows it), the torn tail — everything
  // after the last valid record — is silently dropped.
  std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 4u);
  lines[1][lines[1].size() - 1] = lines[1].back() == '9' ? '8' : '9';
  lines[3] = lines[3].substr(0, lines[3].size() / 2);
  write_lines(path, lines);

  const JournalRecovery recovery = AdmissionJournal::recover(path);
  ASSERT_EQ(recovery.committed.size(), 1u);
  EXPECT_EQ(recovery.committed[0].first, 1);
  EXPECT_EQ(recovery.corruptions.size(), 1u);
  EXPECT_EQ(recovery.corruptions[0].line, 2u);
  EXPECT_EQ(recovery.dropped_lines, 1u);

  // A corrupted line followed only by torn lines has no valid record after
  // it — that whole region is the torn tail, not reportable corruption.
  std::vector<std::string> tail_only = read_lines(path);
  tail_only[2][tail_only[2].size() - 1] = tail_only[2].back() == '9' ? '8' : '9';
  write_lines(path, tail_only);
  const JournalRecovery tail_recovery = AdmissionJournal::recover(path);
  EXPECT_TRUE(tail_recovery.committed.empty());
  EXPECT_EQ(tail_recovery.corruptions.size(), 0u);
  EXPECT_EQ(tail_recovery.dropped_lines, 3u);
}

TEST(JournalTest, BadHeaderThrows) {
  const std::string path = fresh_path("journal_badheader.log");
  write_lines(path, {"this is not a journal"});
  EXPECT_THROW(AdmissionJournal::recover(path), std::runtime_error);
}

TEST(JournalTest, ReadmitAfterRemovalSurvives) {
  // complete(id) then a later admit of the same id: the admit wins because
  // replay applies records in sequence.
  const std::string path = fresh_path("journal_readmit.log");
  {
    AdmissionJournal journal(path);
    journal.append_admit(0, Task{0.0, 10.0, 2.0});
    journal.append_complete(0);
    journal.append_admit(0, Task{0.5, 9.5, 1.0});
  }
  const JournalRecovery recovery = AdmissionJournal::recover(path);
  ASSERT_EQ(recovery.committed.size(), 1u);
  EXPECT_EQ(recovery.committed[0].second.work, 1.0);
}

TEST(JournalTest, CompactShrinksToLiveStateAndStaysAppendable) {
  const std::string path = fresh_path("journal_compact.log");
  AdmissionJournal journal(path);
  for (TaskId id = 0; id < 50; ++id) {
    journal.append_admit(id, Task{0.1 * id, 0.1 * id + 10.0, 1.0});
    if (id != 42) journal.append_complete(id);
  }

  const JournalCompaction result = journal.compact(50, {{42, Task{4.2, 14.2, 1.0}}}, {});
  EXPECT_LT(result.bytes_after, result.bytes_before / 10);
  EXPECT_EQ(result.records, 2u);  // next + one live admit

  // The handle survives the rename: appends keep working on the new file.
  journal.append_admit(50, Task{5.0, 15.0, 1.0});

  const JournalRecovery recovery = AdmissionJournal::recover(path);
  ASSERT_EQ(recovery.committed.size(), 2u);
  EXPECT_EQ(recovery.committed[0].first, 42);
  EXPECT_EQ(recovery.committed[1].first, 50);
  EXPECT_EQ(recovery.records, 3u);
}

TEST(JournalTest, CompactionNextRecordPinsTheIdCounter) {
  // Every admit completed: the compacted log would be empty, and without
  // the `next` record a restart would hand out id 0 again — aliasing the
  // completed task 0 in any external system that remembers ids.
  const std::string path = fresh_path("journal_compact_next.log");
  AdmissionJournal journal(path);
  journal.append_admit(0, Task{0.0, 10.0, 1.0});
  journal.append_admit(1, Task{1.0, 11.0, 1.0});
  journal.append_complete(0);
  journal.append_complete(1);

  journal.compact(2, {}, {});
  const JournalRecovery recovery = AdmissionJournal::recover(path);
  EXPECT_TRUE(recovery.committed.empty());
  EXPECT_EQ(recovery.next_id, 2);
}

TEST(JournalTest, CompactionPreservesDedupMappings) {
  const std::string path = fresh_path("journal_compact_dedup.log");
  AdmissionJournal journal(path);
  journal.append_admit(0, Task{0.0, 10.0, 1.0}, "req-a");
  journal.append_admit(1, Task{1.0, 11.0, 1.0}, "req-b");
  journal.append_complete(0);

  // Live admit 1 carries req-b inline; completed 0's req-a needs a
  // standalone dedup record so a late retry of req-a still dedups.
  journal.compact(2, {{1, Task{1.0, 11.0, 1.0}}}, {{"req-a", 0}, {"req-b", 1}});
  const JournalRecovery recovery = AdmissionJournal::recover(path);
  ASSERT_EQ(recovery.committed.size(), 1u);
  ASSERT_EQ(recovery.request_ids.size(), 2u);
  // Record order: live admits (inline rids) first, then standalone dedups.
  EXPECT_EQ(recovery.request_ids[0], (std::pair<std::string, TaskId>{"req-b", 1}));
  EXPECT_EQ(recovery.request_ids[1], (std::pair<std::string, TaskId>{"req-a", 0}));
  EXPECT_EQ(recovery.next_id, 2);
}

TEST(JournalTest, RidRidesInsideTheAdmitRecord) {
  // The admit→rid binding is atomic: one record, one flush — no crash
  // window where the admit is durable but its dedup key is not.
  const std::string path = fresh_path("journal_rid.log");
  {
    AdmissionJournal journal(path);
    journal.append_admit(7, Task{0.5, 9.5, 2.0}, "client-3-attempt-1");
  }
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("admit 7"), std::string::npos);
  EXPECT_NE(lines[1].find("client-3-attempt-1"), std::string::npos);

  const JournalRecovery recovery = AdmissionJournal::recover(path);
  ASSERT_EQ(recovery.request_ids.size(), 1u);
  EXPECT_EQ(recovery.request_ids[0].first, "client-3-attempt-1");
  EXPECT_EQ(recovery.request_ids[0].second, 7);
}

TEST(JournalTest, SizeBytesTracksTheFileWithoutReopeningIt) {
  const std::string path = fresh_path("journal_size.log");
  AdmissionJournal journal(path);
  EXPECT_EQ(journal.size_bytes(), std::filesystem::file_size(path));  // header only
  for (TaskId id = 0; id < 20; ++id) {
    journal.append_admit(id, Task{0.1 * id, 0.1 * id + 10.0 / 3.0, 1.0 / 7.0}, "rid");
    if (id % 3 == 0) journal.append_complete(id);
    EXPECT_EQ(journal.size_bytes(), std::filesystem::file_size(path));
  }

  const JournalCompaction compaction = journal.compact(20, {{4, Task{0.4, 4.0, 1.0}}}, {});
  EXPECT_EQ(compaction.bytes_after, std::filesystem::file_size(path));
  EXPECT_EQ(journal.size_bytes(), compaction.bytes_after);
  journal.append_complete(4);
  EXPECT_EQ(journal.size_bytes(), std::filesystem::file_size(path));

  AdmissionJournal reopened(path);
  EXPECT_EQ(reopened.size_bytes(), std::filesystem::file_size(path));
  reopened.append_admit(20, Task{2.0, 12.0, 1.0});
  EXPECT_EQ(reopened.size_bytes(), std::filesystem::file_size(path));
}

}  // namespace
}  // namespace easched
