#include "easched/service/snapshot.hpp"

#include <cstdio>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "easched/common/charconv.hpp"
#include "easched/common/csv.hpp"
#include "easched/sched/schedule.hpp"
#include "easched/sched/schedule_io.hpp"

namespace easched {

namespace {

constexpr std::string_view kHeader = "# easched-service-snapshot v1";
constexpr std::string_view kTasksMarker = "--- tasks ---";
constexpr std::string_view kPlanMarker = "--- plan ---";
/// Header row of the embedded task-trace CSV (`trace_io`).
constexpr std::string_view kTaskHeader = "release,deadline,work";

std::string_view trimmed(std::string_view text) {
  const auto begin = text.find_first_not_of(" \t\r");
  if (begin == std::string_view::npos) return {};
  const auto end = text.find_last_not_of(" \t\r");
  return text.substr(begin, end - begin + 1);
}

/// Parse `text` as a number of the snapshot header field `what`.
template <typename T>
T header_number(std::string_view text, const char* what) {
  T value{};
  if (!parse_number(trimmed(text), value)) {
    throw std::runtime_error(std::string("malformed '# ") + what + "' line in snapshot");
  }
  return value;
}

/// Parse the tasks section off the front of `rest`, up to the plan marker
/// or the end: the task-trace CSV `release,deadline,work` ('#' comment and
/// blank lines skipped), one task per row.
std::vector<Task> parse_tasks(std::string_view& rest) {
  std::vector<Task> tasks;
  bool saw_header = false;
  while (!rest.empty()) {
    const std::string_view line = trimmed(take_field(rest, '\n'));
    if (line == kPlanMarker) break;
    if (line.empty() || line.front() == '#') continue;
    if (!saw_header) {
      if (line != kTaskHeader) throw std::runtime_error("snapshot task table has a bad header");
      saw_header = true;
      continue;
    }
    std::string_view row = line;
    Task task;
    const bool parsed = parse_number(trimmed(take_field(row, ',')), task.release) &&
                        parse_number(trimmed(take_field(row, ',')), task.deadline) &&
                        parse_number(trimmed(take_field(row, ',')), task.work) && row.empty();
    if (!parsed || !task.well_formed()) {
      throw std::runtime_error("malformed task row in snapshot: " + std::string(line));
    }
    tasks.push_back(task);
  }
  if (!saw_header) throw std::runtime_error("snapshot task table has no header row");
  return tasks;
}

}  // namespace

std::string snapshot_to_text(const ServiceSnapshot& snapshot) {
  std::string out;
  out.reserve(256 + 64 * snapshot.committed.size());
  out += kHeader;
  out += "\n# cores=";
  append_number(out, snapshot.cores);
  out += "\n# next_id=";
  append_number(out, snapshot.next_id);
  out += "\n# ids=";
  for (std::size_t i = 0; i < snapshot.committed.size(); ++i) {
    if (i > 0) out += ',';
    append_number(out, snapshot.committed[i].first);
  }
  out += '\n';
  out += kTasksMarker;
  out += '\n';
  out += kTaskHeader;
  out += '\n';
  for (const auto& [id, task] : snapshot.committed) {
    append_number(out, task.release);
    out += ',';
    append_number(out, task.deadline);
    out += ',';
    append_number(out, task.work);
    out += '\n';
  }
  // An empty plan table keeps the document valid for readers that require
  // the section.
  out += kPlanMarker;
  out += '\n';
  out += schedule_to_csv(Schedule(snapshot.cores));
  return out;
}

ServiceSnapshot snapshot_from_text(const std::string& text) {
  std::string_view rest = text;
  if (trimmed(take_field(rest, '\n')) != kHeader) {
    throw std::runtime_error("not an easched-service-snapshot v1 document");
  }

  ServiceSnapshot snapshot;
  std::vector<TaskId> ids;
  bool saw_ids = false;
  bool saw_tasks = false;

  // Header comments until the tasks marker. Unknown lines (`# energy=` of
  // documents that stored a plan, `# counter=` of older writers) are
  // skipped.
  while (!rest.empty()) {
    const std::string_view t = trimmed(take_field(rest, '\n'));
    if (t == kTasksMarker) {
      saw_tasks = true;
      break;
    }
    if (t.starts_with("# cores=")) {
      snapshot.cores = header_number<int>(t.substr(8), "cores=");
    } else if (t.starts_with("# next_id=")) {
      snapshot.next_id = header_number<TaskId>(t.substr(10), "next_id=");
    } else if (t.starts_with("# ids=")) {
      saw_ids = true;
      std::string_view list = t.substr(6);
      while (!list.empty()) {
        const std::string_view token = take_field(list, ',');
        if (!token.empty()) ids.push_back(header_number<TaskId>(token, "ids="));
      }
    }
  }
  if (!saw_ids) throw std::runtime_error("snapshot missing the '# ids=' header line");
  if (!saw_tasks) throw std::runtime_error("snapshot missing the tasks section");

  // Tasks section until the plan marker; any plan section is skipped.
  const std::vector<Task> tasks = parse_tasks(rest);
  if (tasks.size() != ids.size()) {
    throw std::runtime_error("snapshot id count does not match task count");
  }
  snapshot.committed.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (ids[i] >= snapshot.next_id) {
      throw std::runtime_error("snapshot contains an id at or above next_id");
    }
    snapshot.committed.emplace_back(ids[i], tasks[i]);
  }
  return snapshot;
}

void write_snapshot(const std::string& path, const ServiceSnapshot& snapshot) {
  // A crash mid-write leaves the old snapshot or the new one, never a torn one.
  const std::string temp_path = path + ".tmp";
  write_file(temp_path, snapshot_to_text(snapshot));
  if (std::rename(temp_path.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("snapshot rename failed: " + path);
  }
}

ServiceSnapshot read_snapshot(const std::string& path) {
  return snapshot_from_text(read_file(path));
}

}  // namespace easched
