#pragma once

/// \file journal.hpp
/// \brief Crash-safe write-ahead log of admission decisions.
///
/// Snapshots (`snapshot.hpp`) capture the service's state at one instant; a
/// crash between snapshots loses every admit since the last one. The journal
/// closes that gap: before a batch's decisions are acknowledged to clients,
/// each admitted task is appended (and flushed) here, and completions and
/// cancellations append removal records. On restart, `recover()` replays the
/// log and hands the service back exactly the committed set it had promised.
///
/// **Durability contract** (enforced by `SchedulerService`): the admit record
/// is flushed *before* the decision promise is fulfilled, so every admit a
/// client ever observed as acknowledged is recoverable. A crash between
/// flush and acknowledgement may recover an admit the client never heard
/// about — that is the safe side of the race (the service honors a
/// commitment nobody collected, rather than dropping one somebody did).
/// Admits may carry a client *request id*; recovery surfaces the rid→id map
/// so a retried acked admit dedups to its original task id instead of
/// double-committing (`SchedulerService::submit(task, rid)`).
///
/// **Format.** Plain text, one record per line, self-checking:
///
///     # easched-admission-journal v1
///     <fnv64-hex> admit <id> <release> <deadline> <work> [<rid>]
///     <fnv64-hex> complete <id>
///     <fnv64-hex> next <id>
///     <fnv64-hex> dedup <rid> <id>
///
/// `next` pins the id counter (written by `compact()` so compacting away the
/// highest admit can never regress `next_id` and reuse ids). `dedup`
/// preserves a rid→id mapping whose admit record was compacted away (the
/// task completed, but a late client retry must still dedup, not re-admit).
///
/// Numbers are written in their shortest round-trip form (`std::to_chars`),
/// so replay restores every double bit-exactly; replay also reads the
/// 17-significant-digit form older writers used. A rid is one field:
/// it may contain no byte <= 0x20 and no 0x7f (`storable_request_id`).
///
/// The leading checksum covers the rest of the line. Replay distinguishes
/// two failure shapes: a *torn tail* (bad line(s) with no valid record after
/// them — the expected wreckage of a mid-append crash, dropped, counted in
/// `dropped_lines`, and cut from the file by `trim_to_replayed` before the
/// next append) and *mid-file corruption* (a bad line with valid records
/// after it — bit rot or truncation-and-append, surfaced as a structured
/// `JournalCorruption` entry with line number + byte offset while replay
/// skips the bad line and recovers every valid record).
///
/// Crash points: `append_admit` / `append_complete` visit the fault
/// injector's kill points `journal.admit.pre` / `journal.admit.post` (and
/// `.complete.` twins) immediately before the write and after the flush, so
/// tests can kill the service at every boundary of the durability window.

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "easched/tasksys/task.hpp"

namespace easched {

/// One mid-file bad record found by replay (not a torn tail): where it was
/// and why it failed. Replay skips it and keeps going.
struct JournalCorruption {
  std::size_t line = 0;      ///< 1-based line number in the file
  std::uint64_t offset = 0;  ///< byte offset of the line's first character
  std::string reason;        ///< "checksum mismatch" / "unparseable record"

  friend bool operator==(const JournalCorruption&, const JournalCorruption&) = default;
};

/// True when `rid` can ride in a journal record as one field: it contains no
/// byte <= 0x20 (space, newline and other controls) and no 0x7f. Such a byte
/// would split the record on replay, losing its dedup key or the whole
/// admit, so the service refuses those rids before planning anything.
bool storable_request_id(std::string_view rid);

/// What `AdmissionJournal::recover` rebuilds from a log.
struct JournalRecovery {
  /// Tasks admitted and not yet completed/cancelled, in id order.
  std::vector<std::pair<TaskId, Task>> committed;
  /// One past the highest id ever admitted (0 for an empty log) — the
  /// restart value for the service's id counter.
  TaskId next_id = 0;
  /// Ids that have a removal record (deduplicated, ascending). Lets a
  /// caller replaying the journal over a snapshot base also apply the
  /// removals, not just the surviving admits.
  std::vector<TaskId> removed_ids;
  /// Request-id → task-id for every rid-tagged admit (and every `dedup`
  /// record), in record order. The restart seed for idempotent re-admission.
  std::vector<std::pair<std::string, TaskId>> request_ids;
  /// Mid-file bad records that were skipped (see `JournalCorruption`).
  std::vector<JournalCorruption> corruptions;
  /// Valid records replayed.
  std::size_t records = 0;
  /// Trailing lines discarded as torn/corrupt.
  std::size_t dropped_lines = 0;
  /// Length of the log through the newline that ends the last valid record
  /// (or the header when no record is valid): the bytes past it are the
  /// torn tail. A log one byte shorter ends in a valid record whose newline
  /// never landed. 0 when there is no log.
  std::uint64_t valid_bytes = 0;
};

/// What `AdmissionJournal::compact` did, for logs and metrics.
struct JournalCompaction {
  std::uint64_t bytes_before = 0;
  std::uint64_t bytes_after = 0;
  std::size_t records = 0;  ///< records in the compacted journal
};

/// Append-only admission WAL. Thread-safe; every append flushes before
/// returning.
class AdmissionJournal {
 public:
  /// Open `path` for appending, writing the header if the file is new or
  /// empty. Throws `std::runtime_error` when the file cannot be opened.
  explicit AdmissionJournal(std::string path);

  /// Append (and flush) one admit record. A non-empty `rid` (client request
  /// id; must pass `storable_request_id`) rides inside the record so the
  /// admit→rid binding is atomic — there is no crash window in which the
  /// admit is durable but its dedup key is not.
  void append_admit(TaskId id, const Task& task, std::string_view rid = {});

  /// Append (and flush) one removal record (used for both `complete` and
  /// `cancel` — recovery only needs to know the task is gone).
  void append_complete(TaskId id);

  const std::string& path() const { return path_; }

  /// Records appended through this handle (excludes pre-existing ones).
  std::uint64_t appended() const;

  /// Current size of the journal file in bytes (compaction threshold input):
  /// the size at open plus every line appended since, reset by `compact()`.
  /// Tracked by the handle, so reading it touches no file.
  std::uint64_t size_bytes() const;

  /// Rewrite the journal in place against a fresh snapshot: the new file
  /// holds only a `next` record pinning the id counter, the caller's `live`
  /// admits (in id order; empty when a just-written snapshot already covers
  /// the live set), and `dedup` records for every rid→id mapping so late
  /// retries still dedup. Atomic via write-temp-then-rename; the handle stays open
  /// for appending afterwards.
  JournalCompaction compact(TaskId next_id,
                            const std::vector<std::pair<TaskId, Task>>& live,
                            const std::vector<std::pair<std::string, TaskId>>& dedup);

  /// Replay the log at `path`. A missing file recovers to the empty state;
  /// a present file with a bad header throws (that is not a journal).
  static JournalRecovery recover(const std::string& path);

  /// Make the log at `path` end where `recovery` (its replay) ended: cut the
  /// torn tail after the last valid record, or add the newline a final
  /// valid record lacks. Without this, the first record appended after a
  /// mid-append crash would extend the torn line and fail its checksum on
  /// the next replay — an acked admit lost. Run it between replay and the
  /// first append; a log that already ends at a record boundary is not
  /// touched.
  static void trim_to_replayed(const std::string& path, const JournalRecovery& recovery);

 private:
  void append_line(std::string_view payload, const char* pre_point, const char* post_point);

  std::string path_;
  mutable std::mutex mutex_;
  std::ofstream out_;
  std::uint64_t appended_ = 0;
  std::uint64_t bytes_ = 0;  ///< file size: at open, plus every line since
};

}  // namespace easched
