#pragma once

/// \file snapshot.hpp
/// \brief An export of a service's state: committed set, ids and id
///        counter, round-trippable.
///
/// The journal (`journal.hpp`) is what a service recovers from; the
/// snapshot is an export of the same state in one readable document: the
/// service ids, `next_id` and the committed tasks (exact: every number is
/// written in its shortest round-trip form). The plan is derived state and
/// is not stored. A `ServiceShard` writes one at every bring-up, which
/// tools read for the recovered id counter; nothing restores from it.
///
/// The format is one text document embedding the task-trace CSV
/// (`trace_io`). For older readers the writer still ends it with a
/// `--- plan ---` section holding an empty schedule table; the reader skips
/// any plan section and unknown `# ` header lines (`# energy=` and
/// `# counter=` of older writers), so those documents still load.

#include <string>
#include <utility>
#include <vector>

#include "easched/tasksys/task.hpp"

namespace easched {

/// A `SchedulerService`'s committed state.
struct ServiceSnapshot {
  int cores = 1;
  /// Next id the service will assign (ids already handed out stay unique).
  TaskId next_id = 0;
  /// Committed tasks with their service ids, in id order.
  std::vector<std::pair<TaskId, Task>> committed;
};

/// Serialize to the `easched-service-snapshot v1` text format.
std::string snapshot_to_text(const ServiceSnapshot& snapshot);

/// Parse a snapshot document. Throws `std::runtime_error` on malformed
/// input (bad header, id/task count mismatch, malformed task rows).
ServiceSnapshot snapshot_from_text(const std::string& text);

/// File-based convenience wrappers. `write_snapshot` writes a temp file in
/// the same directory and renames it over `path`.
void write_snapshot(const std::string& path, const ServiceSnapshot& snapshot);
ServiceSnapshot read_snapshot(const std::string& path);

}  // namespace easched
