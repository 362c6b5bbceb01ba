#pragma once

/// \file request_queue.hpp
/// \brief Multi-producer request queue with time-windowed batch pop,
///        bounded depth, and laxity-aware load shedding.
///
/// Client threads push admission requests; the service's dispatcher pops
/// them in *batches*: once at least one request is waiting, the dispatcher
/// keeps collecting until either the batch window elapses or the batch size
/// cap is reached. Batching amortizes the expensive re-plan — one energy
/// baseline per batch instead of one per request — which is what lets the
/// service beat per-request admission on throughput.
///
/// Ordering contract: sequence numbers are assigned under the queue lock at
/// push time, so the order requests are dequeued (and therefore admitted)
/// is exactly arrival order. Batched admission stays deterministic: a batch
/// yields the same accept/reject set as applying its requests sequentially.
///
/// **Overload contract** (capacity > 0): `push` never blocks and never
/// throws for overload. When the queue is full, the *lowest-laxity* request
/// is rejected first — under pressure the tightest tasks are the ones least
/// likely to survive admission anyway, so shedding them preserves the most
/// admittable work. If the incoming request has more laxity than the
/// tightest queued one, that queued victim is rejected on the spot (its
/// future resolves immediately with `AdmissionErrorKind::kOverload`) and
/// the incoming request takes its place; otherwise the incoming request is
/// rejected. Every overload rejection is a *decided* request: clients
/// always get an answer, just not always an admission run.
///
/// Fault hooks: when a `FaultInjector` is installed, `push` consults the
/// `request_drop` site (the request is rejected as dropped — simulating a
/// lost message, but keeping the client's future answered) and the
/// `request_dup` site (a second copy of the request is enqueued with its
/// own sequence — simulating a client retry after a lost acknowledgement).

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
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
  kOverload,     ///< shed or rejected by the bounded queue (or brownout level 3)
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
  /// requests decided at the queue, which never reach a batch).
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

/// One queued submission: the candidate plus the promise the dispatcher
/// fulfills after admission.
struct PendingRequest {
  std::uint64_t sequence = 0;
  Task task;
  /// Client request id for idempotent re-admission (empty = none). Rides
  /// inside the journal's admit record, so a retried acked admit dedups to
  /// its original task id across a crash/restart.
  std::string rid;
  std::promise<ServiceDecision> promise;
  /// Push time, stamped under the queue lock; the dispatcher turns it into
  /// the request's queue-wait span and latency observation.
  std::chrono::steady_clock::time_point enqueued_at{};
};

/// FIFO queue of `PendingRequest` with windowed batch extraction, an
/// optional depth bound, and deterministic fault hooks.
class RequestQueue {
 public:
  /// `capacity == 0` leaves the queue unbounded (the pre-overload-handling
  /// behavior); otherwise at most `capacity` requests wait at once.
  explicit RequestQueue(std::size_t capacity = 0);

  /// Enqueue `task`, returning the future its decision will arrive on. The
  /// future may already be ready (overload or injected drop — see the
  /// overload contract above). A non-empty `rid` (no whitespace) names the
  /// request for idempotent re-admission. Throws `std::runtime_error` after
  /// `close()`.
  std::future<ServiceDecision> push(const Task& task, std::string rid = {});

  /// Block until at least one request is queued (or the queue is closed),
  /// then keep collecting until `window` elapses — measured from the first
  /// observed request — or `max_batch` requests are available. Returns the
  /// batch in arrival order; empty only when closed and drained.
  std::vector<PendingRequest> pop_batch(std::chrono::microseconds window,
                                        std::size_t max_batch);

  /// Collect everything currently queued (up to `max_batch`) without
  /// blocking. Used by manually pumped services and tests.
  std::vector<PendingRequest> pop_all(std::size_t max_batch);

  /// Stop accepting pushes; pop_batch still drains queued requests.
  void close();

  bool closed() const;
  std::size_t depth() const;
  std::size_t capacity() const { return capacity_; }
  /// Total requests ever pushed (== next sequence number; includes
  /// duplicates injected by the `request_dup` fault).
  std::uint64_t pushed() const;

  /// \name Overload / fault statistics
  /// @{

  /// Requests answered at the queue without reaching a batch (sheds,
  /// overload rejects, injected drops). `pushed() - rejected_early()` is
  /// the number of requests a dispatcher batch will eventually decide.
  std::uint64_t rejected_early() const;
  /// Queued victims rejected to make room for a laxer arrival.
  std::uint64_t shed() const;
  /// Incoming requests rejected because the queue was full.
  std::uint64_t overload_rejected() const;
  /// Requests dropped by fault injection.
  std::uint64_t fault_dropped() const;
  /// Duplicate copies enqueued by fault injection.
  std::uint64_t fault_duplicated() const;
  /// @}

 private:
  std::vector<PendingRequest> take_locked(std::size_t max_batch);

  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<PendingRequest> items_;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t overload_rejected_ = 0;
  std::uint64_t fault_dropped_ = 0;
  std::uint64_t fault_duplicated_ = 0;
  bool closed_ = false;
};

}  // namespace easched
