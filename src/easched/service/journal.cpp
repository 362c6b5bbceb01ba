#include "easched/service/journal.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "easched/common/charconv.hpp"
#include "easched/common/contracts.hpp"
#include "easched/faults/fault_injection.hpp"

namespace easched {

namespace {

constexpr std::string_view kHeader = "# easched-admission-journal v1";

/// FNV-1a over the payload bytes; hex-encoded it prefixes every record so
/// replay can detect a line torn by a mid-append crash.
std::uint64_t fnv1a(std::string_view payload) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : payload) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// `fnv1a(payload)` in lowercase hex without leading zeros, written to `buf`.
std::string_view checksum_hex(std::string_view payload, char (&buf)[16]) {
  const char* end = std::to_chars(buf, buf + sizeof(buf), fnv1a(payload), 16).ptr;
  return {buf, static_cast<std::size_t>(end - buf)};
}

/// Append one full record line for `payload`: `<fnv64-hex> <payload>\n`.
void append_record(std::string& out, std::string_view payload) {
  char hex[16];
  out += checksum_hex(payload, hex);
  out += ' ';
  out += payload;
  out += '\n';
}

std::string admit_payload(TaskId id, const Task& task, std::string_view rid) {
  std::string payload = "admit ";
  append_number(payload, id);
  for (const double value : {task.release, task.deadline, task.work}) {
    payload += ' ';
    append_number(payload, value);
  }
  if (!rid.empty()) {
    payload += ' ';
    payload += rid;
  }
  return payload;
}

std::string id_payload(std::string_view kind, TaskId id) {
  std::string payload(kind);
  payload += ' ';
  append_number(payload, id);
  return payload;
}

/// One decoded journal record. `rid` points into the replayed text.
struct Record {
  enum class Kind { kAdmit, kComplete, kNext, kDedup } kind = Kind::kAdmit;
  TaskId id = 0;
  Task task;             // kAdmit only
  std::string_view rid;  // kAdmit (optional) / kDedup
};

/// Checksum-verify and parse one line. Returns nothing (with `reason` set)
/// when the line is not a valid record.
std::optional<Record> parse_record(std::string_view line, const char*& reason) {
  reason = "checksum mismatch";
  const auto space = line.find(' ');
  if (space == std::string_view::npos) return std::nullopt;
  const std::string_view payload = line.substr(space + 1);
  char hex[16];
  if (line.substr(0, space) != checksum_hex(payload, hex)) return std::nullopt;

  // Fields are separated by single spaces, as every writer emits them.
  reason = "unparseable record";
  std::string_view rest = payload;
  const auto number = [&rest](auto& value) { return parse_number(take_field(rest, ' '), value); };
  const std::string_view kind = take_field(rest, ' ');
  Record record;
  bool ok = false;
  if (kind == "admit") {
    record.kind = Record::Kind::kAdmit;
    ok = number(record.id) && number(record.task.release) && number(record.task.deadline) &&
         number(record.task.work);
    record.rid = take_field(rest, ' ');  // optional trailing request id
  } else if (kind == "complete" || kind == "next") {
    record.kind = kind == "complete" ? Record::Kind::kComplete : Record::Kind::kNext;
    ok = number(record.id);
  } else if (kind == "dedup") {
    // Field order is `dedup <rid> <id>` — the rid comes before the id.
    record.kind = Record::Kind::kDedup;
    record.rid = take_field(rest, ' ');
    ok = !record.rid.empty() && number(record.id);
  }
  if (!ok) return std::nullopt;
  return record;
}

/// The replayed live set, id-sorted. A removal marks its entry instead of
/// erasing it, so it costs a binary search rather than a vector shift;
/// admits normally arrive in id order and append.
class LiveSet {
 public:
  void admit(TaskId id, const Task& task) {
    if (entries_.empty() || entries_.back().id < id) {
      entries_.push_back({id, task, true});
      return;
    }
    const auto it = find(id);
    if (it != entries_.end() && it->id == id) {
      *it = {id, task, true};
    } else {
      entries_.insert(it, {id, task, true});
    }
  }

  void remove(TaskId id) {
    const auto it = find(id);
    if (it != entries_.end() && it->id == id) it->live = false;
  }

  std::vector<std::pair<TaskId, Task>> take() const {
    std::vector<std::pair<TaskId, Task>> live;
    live.reserve(entries_.size());
    for (const Entry& entry : entries_) {
      if (entry.live) live.emplace_back(entry.id, entry.task);
    }
    return live;
  }

 private:
  struct Entry {
    TaskId id;
    Task task;
    bool live;
  };

  std::vector<Entry>::iterator find(TaskId id) {
    return std::lower_bound(entries_.begin(), entries_.end(), id,
                            [](const Entry& entry, TaskId key) { return entry.id < key; });
  }

  std::vector<Entry> entries_;
};

}  // namespace

bool storable_request_id(std::string_view rid) {
  return std::none_of(rid.begin(), rid.end(), [](char c) {
    const auto byte = static_cast<unsigned char>(c);
    return byte <= 0x20 || byte == 0x7f;
  });
}

AdmissionJournal::AdmissionJournal(std::string path) : path_(std::move(path)) {
  // The size at open seeds the byte offset; a new or empty file gets the
  // header, exactly once.
  std::error_code ec;
  const std::uintmax_t existing = std::filesystem::file_size(path_, ec);
  bytes_ = ec ? 0 : static_cast<std::uint64_t>(existing);
  out_.open(path_, std::ios::app | std::ios::binary);
  if (!out_.is_open()) {
    throw std::runtime_error("cannot open admission journal: " + path_);
  }
  if (bytes_ == 0) {
    out_ << kHeader << '\n';
    out_.flush();
    bytes_ = kHeader.size() + 1;
  }
}

void AdmissionJournal::append_line(std::string_view payload, const char* pre_point,
                                   const char* post_point) {
  std::string line;
  line.reserve(payload.size() + 18);
  append_record(line, payload);
  std::lock_guard lock(mutex_);
  faults::kill_point(pre_point);
  out_.write(line.data(), static_cast<std::streamsize>(line.size()));
  out_.flush();
  if (!out_) throw std::runtime_error("admission journal write failed: " + path_);
  ++appended_;
  bytes_ += line.size();
  faults::kill_point(post_point);
}

void AdmissionJournal::append_admit(TaskId id, const Task& task, std::string_view rid) {
  append_line(admit_payload(id, task, rid), "journal.admit.pre", "journal.admit.post");
}

void AdmissionJournal::append_complete(TaskId id) {
  append_line(id_payload("complete", id), "journal.complete.pre", "journal.complete.post");
}

std::uint64_t AdmissionJournal::appended() const {
  std::lock_guard lock(mutex_);
  return appended_;
}

std::uint64_t AdmissionJournal::size_bytes() const {
  std::lock_guard lock(mutex_);
  return bytes_;
}

JournalCompaction AdmissionJournal::compact(
    TaskId next_id, const std::vector<std::pair<TaskId, Task>>& live,
    const std::vector<std::pair<std::string, TaskId>>& dedup) {
  const auto by_task_id = [](const auto& a, const auto& b) { return a.first < b.first; };
  EASCHED_EXPECTS_MSG(std::is_sorted(live.begin(), live.end(), by_task_id),
                      "compaction needs the live admits in id order");
  std::lock_guard lock(mutex_);
  JournalCompaction result;
  result.bytes_before = bytes_;

  // rid of each live admit, found by one merge over both id-sorted lists;
  // rids a live admit carries inline need no standalone dedup record. When
  // two rids name one id, the last in `dedup` order rides inline.
  std::vector<std::pair<TaskId, std::size_t>> by_id;  // (id, index into dedup)
  by_id.reserve(dedup.size());
  for (std::size_t i = 0; i < dedup.size(); ++i) by_id.emplace_back(dedup[i].second, i);
  std::sort(by_id.begin(), by_id.end());
  std::vector<bool> inline_rid(dedup.size(), false);

  std::string text;
  text.reserve(64 * (live.size() + dedup.size() + 2));
  text += kHeader;
  text += '\n';
  // `next` first: even if everything else is compacted away, the id
  // counter can never regress and hand out an already-used id.
  if (next_id > 0) {
    append_record(text, id_payload("next", next_id));
    ++result.records;
  }
  auto rid_at = by_id.begin();
  for (const auto& [id, task] : live) {
    while (rid_at != by_id.end() && rid_at->first < id) ++rid_at;
    std::string_view rid;
    for (; rid_at != by_id.end() && rid_at->first == id; ++rid_at) {
      rid = dedup[rid_at->second].first;
    }
    if (!rid.empty()) inline_rid[std::prev(rid_at)->second] = true;
    append_record(text, admit_payload(id, task, rid));
    ++result.records;
  }
  for (std::size_t i = 0; i < dedup.size(); ++i) {
    if (inline_rid[i]) continue;
    std::string payload = "dedup ";
    payload += dedup[i].first;
    payload += ' ';
    append_number(payload, dedup[i].second);
    append_record(text, payload);
    ++result.records;
  }

  const std::string temp_path = path_ + ".compact";
  {
    std::ofstream temp(temp_path, std::ios::trunc | std::ios::binary);
    if (!temp.is_open()) {
      throw std::runtime_error("cannot open compaction temp file: " + temp_path);
    }
    temp.write(text.data(), static_cast<std::streamsize>(text.size()));
    temp.flush();
    if (!temp) throw std::runtime_error("compaction write failed: " + temp_path);
  }

  out_.close();
  if (std::rename(temp_path.c_str(), path_.c_str()) != 0) {
    // Restore the append handle on the (still intact) original before failing.
    out_.open(path_, std::ios::app | std::ios::binary);
    throw std::runtime_error("compaction rename failed: " + path_);
  }
  out_.open(path_, std::ios::app | std::ios::binary);
  if (!out_.is_open()) {
    throw std::runtime_error("cannot reopen compacted journal: " + path_);
  }
  bytes_ = text.size();
  result.bytes_after = bytes_;
  return result;
}

JournalRecovery AdmissionJournal::recover(const std::string& path) {
  JournalRecovery recovery;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return recovery;  // no journal yet: empty state
  std::ostringstream contents;
  contents << in.rdbuf();
  const std::string text = std::move(contents).str();
  if (text.empty()) return recovery;

  std::string_view rest = text;
  if (take_field(rest, '\n') != kHeader) {
    throw std::runtime_error("not an easched-admission-journal v1 file: " + path);
  }

  // One pass. Bad lines are held back until their position classifies
  // them: a valid record after them makes them mid-file corruption
  // (skipped, surfaced in `corruptions`); with none after, they are the
  // torn tail of a mid-append crash (silently dropped).
  LiveSet live;
  std::vector<JournalCorruption> unclassified;
  std::uint64_t offset = kHeader.size() + 1;
  recovery.valid_bytes = offset;
  std::size_t line_number = 1;
  while (!rest.empty()) {
    const std::string_view line = take_field(rest, '\n');
    ++line_number;
    const char* reason = nullptr;
    const std::optional<Record> record = parse_record(line, reason);
    const std::uint64_t line_offset = offset;
    offset += line.size() + 1;
    if (!record) {
      unclassified.push_back({line_number, line_offset, reason});
      continue;
    }
    recovery.valid_bytes = offset;
    std::move(unclassified.begin(), unclassified.end(),
              std::back_inserter(recovery.corruptions));
    unclassified.clear();
    switch (record->kind) {
      case Record::Kind::kAdmit:
        live.admit(record->id, record->task);
        recovery.next_id = std::max(recovery.next_id, record->id + 1);
        if (!record->rid.empty()) recovery.request_ids.emplace_back(record->rid, record->id);
        break;
      case Record::Kind::kComplete:
        live.remove(record->id);
        recovery.removed_ids.push_back(record->id);
        break;
      case Record::Kind::kNext:
        recovery.next_id = std::max(recovery.next_id, record->id);
        break;
      case Record::Kind::kDedup:
        recovery.request_ids.emplace_back(record->rid, record->id);
        recovery.next_id = std::max(recovery.next_id, record->id + 1);
        break;
    }
    ++recovery.records;
  }
  recovery.dropped_lines = unclassified.size();

  recovery.committed = live.take();
  auto& removed = recovery.removed_ids;
  std::sort(removed.begin(), removed.end());
  removed.erase(std::unique(removed.begin(), removed.end()), removed.end());
  return recovery;
}

void AdmissionJournal::trim_to_replayed(const std::string& path,
                                        const JournalRecovery& recovery) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec || size == recovery.valid_bytes) return;
  if (size > recovery.valid_bytes) {
    std::filesystem::resize_file(path, recovery.valid_bytes);
    return;
  }
  // Only the final newline is missing: replay already committed the record
  // before it, so it stays, terminated, and a retry of its rid dedups.
  EASCHED_ASSERT(size + 1 == recovery.valid_bytes);
  std::ofstream out(path, std::ios::app | std::ios::binary);
  out << '\n';
  out.flush();
  if (!out) throw std::runtime_error("cannot terminate the journal's last record: " + path);
}

}  // namespace easched
