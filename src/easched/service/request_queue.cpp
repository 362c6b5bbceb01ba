#include "easched/service/request_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "easched/faults/fault_injection.hpp"

namespace easched {

namespace {

/// Slack of a request at unit reference frequency: window minus work. The
/// shedding policy rejects the smallest value first.
double laxity(const Task& task) { return task.window() - task.work; }

/// Resolve a request on the spot with a queue-level rejection.
void reject_now(PendingRequest&& request, AdmissionErrorKind kind, std::string reason) {
  ServiceDecision decision;
  decision.sequence = request.sequence;
  decision.error_kind = kind;
  decision.admission.admitted = false;
  decision.admission.rejection_reason = std::move(reason);
  request.promise.set_value(std::move(decision));
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

std::future<ServiceDecision> RequestQueue::push(const Task& task, std::string rid) {
  std::future<ServiceDecision> fut;
  bool enqueued = false;
  {
    std::lock_guard lock(mutex_);
    if (closed_) throw std::runtime_error("push() on a closed RequestQueue");

    PendingRequest req;
    req.sequence = next_sequence_++;
    req.task = task;
    req.rid = std::move(rid);
    req.enqueued_at = std::chrono::steady_clock::now();
    fut = req.promise.get_future();

    // Injected message loss: the request is decided right here (the client
    // still gets an answer — only the admission run is lost).
    if (faults::fire(FaultSite::kRequestDrop)) {
      ++fault_dropped_;
      reject_now(std::move(req), AdmissionErrorKind::kDropped,
                 "request dropped (injected fault)");
      return fut;
    }

    if (capacity_ > 0 && items_.size() >= capacity_) {
      // Full: reject the lowest-laxity request first. Scan for the tightest
      // queued entry; on a laxity tie the later arrival loses, so an
      // incoming request only displaces a *strictly* tighter one.
      auto victim = items_.begin();
      for (auto it = std::next(items_.begin()); it != items_.end(); ++it) {
        if (laxity(it->task) < laxity(victim->task)) victim = it;
      }
      if (laxity(req.task) > laxity(victim->task)) {
        ++shed_;
        reject_now(std::move(*victim), AdmissionErrorKind::kOverload,
                   "shed under overload (queue full, lowest laxity)");
        items_.erase(victim);
      } else {
        ++overload_rejected_;
        reject_now(std::move(req), AdmissionErrorKind::kOverload,
                   "rejected under overload (queue full, lowest laxity)");
        return fut;
      }
    }

    items_.push_back(std::move(req));
    enqueued = true;

    // Injected retry-after-lost-ack: a second copy joins the queue under
    // its own sequence; nobody waits on its future.
    if (faults::fire(FaultSite::kRequestDup)) {
      PendingRequest dup;
      dup.sequence = next_sequence_++;
      dup.task = task;
      dup.rid = items_.back().rid;  // a retry carries the same request id
      dup.enqueued_at = std::chrono::steady_clock::now();
      ++fault_duplicated_;
      items_.push_back(std::move(dup));
    }
  }
  if (enqueued) cv_.notify_one();
  return fut;
}

std::vector<PendingRequest> RequestQueue::take_locked(std::size_t max_batch) {
  std::vector<PendingRequest> batch;
  const std::size_t n = std::min(items_.size(), max_batch);
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    batch.push_back(std::move(items_.front()));
    items_.pop_front();
  }
  return batch;
}

std::vector<PendingRequest> RequestQueue::pop_batch(std::chrono::microseconds window,
                                                    std::size_t max_batch) {
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [this] { return closed_ || !items_.empty(); });
  if (items_.empty()) return {};  // closed and drained
  const auto deadline = std::chrono::steady_clock::now() + window;
  while (items_.size() < max_batch && !closed_) {
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) break;
  }
  return take_locked(max_batch);
}

std::vector<PendingRequest> RequestQueue::pop_all(std::size_t max_batch) {
  std::lock_guard lock(mutex_);
  return take_locked(max_batch);
}

void RequestQueue::close() {
  {
    std::lock_guard lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool RequestQueue::closed() const {
  std::lock_guard lock(mutex_);
  return closed_;
}

std::size_t RequestQueue::depth() const {
  std::lock_guard lock(mutex_);
  return items_.size();
}

std::uint64_t RequestQueue::pushed() const {
  std::lock_guard lock(mutex_);
  return next_sequence_;
}

std::uint64_t RequestQueue::rejected_early() const {
  std::lock_guard lock(mutex_);
  return shed_ + overload_rejected_ + fault_dropped_;
}

std::uint64_t RequestQueue::shed() const {
  std::lock_guard lock(mutex_);
  return shed_;
}

std::uint64_t RequestQueue::overload_rejected() const {
  std::lock_guard lock(mutex_);
  return overload_rejected_;
}

std::uint64_t RequestQueue::fault_dropped() const {
  std::lock_guard lock(mutex_);
  return fault_dropped_;
}

std::uint64_t RequestQueue::fault_duplicated() const {
  std::lock_guard lock(mutex_);
  return fault_duplicated_;
}

}  // namespace easched
