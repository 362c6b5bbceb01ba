#include "easched/service/request_queue.hpp"

#include <algorithm>
#include <utility>

#include "easched/faults/fault_injection.hpp"

namespace easched {

namespace {

/// Slack of a request at unit reference frequency: window minus work. The
/// shedding policy rejects the smallest value first.
double laxity(const Task& task) { return task.window() - task.work; }

/// An intake-level rejection of the request numbered `sequence`.
ServiceDecision rejected(std::uint64_t sequence, AdmissionErrorKind kind, std::string reason) {
  ServiceDecision decision;
  decision.sequence = sequence;
  decision.error_kind = kind;
  decision.admission.admitted = false;
  decision.admission.rejection_reason = std::move(reason);
  return decision;
}

}  // namespace

std::string_view admission_error_kind_name(AdmissionErrorKind kind) {
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

RequestQueue::RequestQueue(std::size_t capacity) : capacity_(capacity) {}

std::vector<PendingRequest> RequestQueue::intake(
    const std::vector<ServiceRequest>& items,
    std::vector<std::optional<ServiceDecision>>& decided) {
  decided.assign(items.size(), std::nullopt);
  std::vector<PendingRequest> pending;
  pending.reserve(items.size());
  const auto now = std::chrono::steady_clock::now();
  for (std::size_t slot = 0; slot < items.size(); ++slot) {
    PendingRequest req;
    req.sequence = next_sequence_++;
    req.task = items[slot].task;
    req.rid = items[slot].rid;
    req.slot = slot;
    req.enqueued_at = now;

    // Injected message loss: the request is decided right here (the client
    // still gets an answer — only the admission run is lost).
    if (faults::fire(FaultSite::kRequestDrop)) {
      ++fault_dropped_;
      decided[slot] =
          rejected(req.sequence, AdmissionErrorKind::kDropped, "request dropped (injected fault)");
      continue;
    }

    if (capacity_ > 0 && pending.size() >= capacity_) {
      // Full: reject the lowest-laxity request first. Scan for the tightest
      // survivor; on a laxity tie the later arrival loses, so an item only
      // displaces a *strictly* tighter one.
      auto victim = pending.begin();
      for (auto it = std::next(pending.begin()); it != pending.end(); ++it) {
        if (laxity(it->task) < laxity(victim->task)) victim = it;
      }
      if (laxity(req.task) > laxity(victim->task)) {
        ++shed_;
        if (victim->slot != PendingRequest::kNoSlot) {
          decided[victim->slot] = rejected(victim->sequence, AdmissionErrorKind::kOverload,
                                           "shed under overload (queue full, lowest laxity)");
        }
        pending.erase(victim);
      } else {
        ++overload_rejected_;
        decided[slot] = rejected(req.sequence, AdmissionErrorKind::kOverload,
                                 "rejected under overload (queue full, lowest laxity)");
        continue;
      }
    }

    pending.push_back(std::move(req));

    // Injected retry-after-lost-ack: a second copy follows under its own
    // sequence; its decision answers nobody.
    if (faults::fire(FaultSite::kRequestDup)) {
      PendingRequest dup = pending.back();
      dup.sequence = next_sequence_++;
      dup.slot = PendingRequest::kNoSlot;
      ++fault_duplicated_;
      pending.push_back(std::move(dup));
    }
  }
  return pending;
}

}  // namespace easched
