#pragma once

/// \file request_queue.hpp
/// \brief The service's admission intake: sequence numbering, bounded
///        per-call capacity with laxity-aware load shedding, and the
///        request fault hooks.
///
/// `SchedulerService` passes each admission call's items through the
/// intake under its state lock, then decides the survivors on the calling
/// thread. The intake never holds requests between calls.
///
/// Ordering contract: sequence numbers are assigned in item order, and the
/// service decides the surviving requests in sequence order. Batched
/// admission stays deterministic: a call yields the same accept/reject set
/// as applying its requests one at a time.
///
/// **Overload contract** (capacity > 0): at most `capacity` items of one
/// call go on to admission. When the call overflows, the *lowest-laxity*
/// item is rejected first — under pressure the tightest tasks are the ones
/// least likely to survive admission anyway, so shedding them preserves the
/// most admittable work. If an item has more laxity than the tightest
/// survivor so far, that survivor is shed (answered
/// `AdmissionErrorKind::kOverload`) and the item takes its place;
/// otherwise the item itself is rejected. Every overload rejection is a
/// *decided* request: clients always get an answer, just not always an
/// admission run.
///
/// Fault hooks: when a `FaultInjector` is installed, the intake consults
/// the `request_drop` site per item (the item is answered as dropped —
/// simulating a lost message, but keeping the client answered) and the
/// `request_dup` site (a second copy of the item follows it under its own
/// sequence — simulating a client retry after a lost acknowledgement).

#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "easched/sched/admission.hpp"
#include "easched/sched/fallback.hpp"
#include "easched/tasksys/task.hpp"

namespace easched {

/// Why a request errored without a normal admission evaluation (or with an
/// abnormal one). `kNone` covers both admits and ordinary model-based
/// rejections (infeasible, malformed, over the frequency ceiling).
enum class AdmissionErrorKind {
  kNone,         ///< decided by admission proper
  kOverload,     ///< shed or rejected by the bounded intake (or brownout level 3)
  kDropped,      ///< fault injection dropped the request
  kPlanning,     ///< every rung of the fallback chain failed
  kContract,     ///< a contract violation surfaced during admission
  kInternal,     ///< any other exception during admission
  kUnavailable,  ///< the routed shard is down (crashed, restart pending) — retry
  kInvalid,      ///< the request itself is unusable (a rid the journal cannot store)
};

/// Stable display name ("none", "overload", ...), also the metric suffix of
/// `admission_errors_by_kind_<name>`.
std::string_view admission_error_kind_name(AdmissionErrorKind kind);

/// What the service tells a client about one submission.
struct ServiceDecision {
  AdmissionDecision admission;
  /// Service-assigned id of the admitted task (−1 when rejected). Ids are
  /// stable across completions: they name the task in `complete`/`cancel`
  /// and in snapshots.
  TaskId id = -1;
  /// Arrival sequence number of the request.
  std::uint64_t sequence = 0;
  /// Index of the batch that processed the request (0-based; 0 for
  /// requests decided at the intake, which never reach a batch).
  std::uint64_t batch = 0;
  /// Error category when the decision did not come from a normal admission
  /// evaluation (see `AdmissionErrorKind`).
  AdmissionErrorKind error_kind = AdmissionErrorKind::kNone;
  /// Which fallback-chain rung produced the plan backing an admit
  /// (`PlanRung::kNone` for rejections and errors).
  PlanRung plan_rung = PlanRung::kNone;
  /// True when the decision is a replay of an earlier acked admit with the
  /// same request id (idempotent re-admission): `id` is the original task's
  /// id and nothing was re-committed or re-journaled.
  bool deduplicated = false;
  /// With `deduplicated`: the original task has since left the committed
  /// set (completed or cancelled, in this incarnation or an earlier one),
  /// so the replayed ack names finished work, not a live commitment.
  bool retired = false;
  /// Brownout ladder level of the deciding service at decision time
  /// (`brownout.hpp`); clients stretch their retry backoff as it rises.
  int brownout_level = 0;
};

/// One item of an admission call.
struct ServiceRequest {
  Task task;
  /// Client request id for idempotent re-admission (empty = none). Rides
  /// inside the journal's admit record, so a retried acked admit dedups to
  /// its original task id across a crash/restart.
  std::string rid;
};

/// One request the intake passed on to admission.
struct PendingRequest {
  /// `slot` of a duplicate injected by the `request_dup` fault: its
  /// decision answers nobody.
  static constexpr std::size_t kNoSlot = std::numeric_limits<std::size_t>::max();

  std::uint64_t sequence = 0;
  Task task;
  std::string rid;
  /// Index of the call item this request answers, or `kNoSlot`.
  std::size_t slot = kNoSlot;
  /// Intake time; the service turns it into the request's queue-wait span
  /// and latency observation.
  std::chrono::steady_clock::time_point enqueued_at{};
};

/// The admission intake. Not thread-safe: its owner serializes calls (the
/// service holds its state lock).
class RequestQueue {
 public:
  /// `capacity == 0` leaves calls unbounded; otherwise at most `capacity`
  /// items of one call go on to admission.
  explicit RequestQueue(std::size_t capacity = 0);

  /// Take in one call's `items` in order: number them, apply the fault
  /// hooks and the overload contract above. An item decided here (dropped,
  /// shed or rejected) gets its answer in `decided[i]`; `decided` is
  /// resized to `items.size()` and its other entries are left empty.
  /// Returns the requests to admit, in sequence order.
  std::vector<PendingRequest> intake(const std::vector<ServiceRequest>& items,
                                     std::vector<std::optional<ServiceDecision>>& decided);

  std::size_t capacity() const { return capacity_; }

  /// \name Overload / fault statistics
  /// @{

  /// Survivors rejected to make room for a laxer item.
  std::uint64_t shed() const { return shed_; }
  /// Items rejected because the call was already at capacity.
  std::uint64_t overload_rejected() const { return overload_rejected_; }
  /// Items dropped by fault injection.
  std::uint64_t fault_dropped() const { return fault_dropped_; }
  /// Duplicate copies injected by fault injection.
  std::uint64_t fault_duplicated() const { return fault_duplicated_; }
  /// @}

 private:
  std::size_t capacity_;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t overload_rejected_ = 0;
  std::uint64_t fault_dropped_ = 0;
  std::uint64_t fault_duplicated_ = 0;
};

}  // namespace easched
