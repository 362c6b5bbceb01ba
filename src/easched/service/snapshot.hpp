#pragma once

/// \file snapshot.hpp
/// \brief Durable service state: committed set, ids, id counter and metric
///        counters, round-trippable.
///
/// A restarted service must resume mid-horizon: the tasks it already
/// admitted are commitments, and ids handed to clients must stay valid
/// across the restart. The snapshot holds exactly that — the service ids,
/// `next_id`, the committed tasks (exact: every number is written in its
/// shortest round-trip form) and the metric counters. The plan is derived
/// state and is not stored: on restart the journal (`journal.hpp`) is
/// replayed once over the snapshot, and the first request that needs the
/// plan re-derives it through the ordinary plan cache and delta planner.
///
/// The format is one text document embedding the task-trace CSV
/// (`trace_io`). For older readers the writer still ends it with a
/// `--- plan ---` section holding an empty schedule table; the reader skips
/// any plan section and `# energy=` line it finds, so documents written
/// with a stored plan still load.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "easched/tasksys/task.hpp"

namespace easched {

/// Everything a `SchedulerService` needs to resume.
struct ServiceSnapshot {
  int cores = 1;
  /// Next id the service will assign (ids already handed out stay unique).
  TaskId next_id = 0;
  /// Committed tasks with their service ids, in id order.
  std::vector<std::pair<TaskId, Task>> committed;
  /// Metric counters at snapshot time. A service restored from the snapshot
  /// re-seeds its registry with them, so monotone totals (admits,
  /// rejections, journal replays, ...) survive recovery instead of
  /// restarting from zero. Optional in the text format — documents written
  /// before counters existed parse to an empty map.
  std::map<std::string, std::uint64_t> counters;
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
