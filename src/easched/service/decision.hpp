#pragma once

/// \file decision.hpp
/// \brief What one admission request carries in and what the service
///        answers: `ServiceRequest`, `ServiceDecision` and the error kinds.
///
/// Every admission path — `SchedulerService::submit_batch`, a shard's batch
/// round, the supervisor's routed batch and both wire admit ops — speaks
/// these types, so a single admit is a batch of one at every layer.

#include <cstdint>
#include <string>
#include <string_view>

#include "easched/sched/admission.hpp"
#include "easched/sched/fallback.hpp"
#include "easched/tasksys/task.hpp"

namespace easched {

/// Why a request errored without a normal admission evaluation (or with an
/// abnormal one). `kNone` covers both admits and ordinary model-based
/// rejections (infeasible, malformed, over the frequency ceiling).
enum class AdmissionErrorKind {
  kNone,         ///< decided by admission proper
  kOverload,     ///< shed by the brownout ladder at level 3
  kDropped,      ///< fault injection dropped the request
  kPlanning,     ///< every rung of the fallback chain failed
  kContract,     ///< a contract violation surfaced during admission
  kInternal,     ///< any other exception during admission
  kUnavailable,  ///< the routed shard is down (crashed, restart pending) — retry
  kInvalid,      ///< the request itself is unusable (a rid the journal cannot store)
};

/// Stable display name ("none", "overload", ...), also the metric suffix of
/// `admission_errors_by_kind_<name>`.
constexpr std::string_view admission_error_kind_name(AdmissionErrorKind kind) {
  switch (kind) {
    case AdmissionErrorKind::kNone:
      return "none";
    case AdmissionErrorKind::kOverload:
      return "overload";
    case AdmissionErrorKind::kDropped:
      return "dropped";
    case AdmissionErrorKind::kPlanning:
      return "planning";
    case AdmissionErrorKind::kContract:
      return "contract";
    case AdmissionErrorKind::kInternal:
      return "internal";
    case AdmissionErrorKind::kUnavailable:
      return "unavailable";
    case AdmissionErrorKind::kInvalid:
      return "invalid";
  }
  return "unknown";
}

/// What the service tells a client about one submission.
struct ServiceDecision {
  AdmissionDecision admission;
  /// Service-assigned id of the admitted task (−1 when rejected). Ids are
  /// stable across completions: they name the task in `complete`/`cancel`
  /// and in the journal.
  TaskId id = -1;
  /// Arrival sequence number of the request.
  std::uint64_t sequence = 0;
  /// Index of the batch that processed the request (0-based; 0 for
  /// requests answered before any batch, such as an injected drop).
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

}  // namespace easched
