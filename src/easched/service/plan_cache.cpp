#include "easched/service/plan_cache.hpp"

#include <cmath>
#include <cstdio>

#include "easched/common/contracts.hpp"

namespace easched {

namespace {

void append_quantized(std::string& out, double x, double quantum) {
  const double scaled = x / quantum;
  if (std::abs(scaled) < 9.0e18) {
    out += std::to_string(std::llround(scaled));
  } else {
    // Beyond the exact llround range the rounding would saturate (every
    // huge coordinate collapsing onto one key), so distinct task sets
    // could share a signature and the cache would serve the wrong plan.
    // Key such coordinates by their exact value instead — hexfloat
    // round-trips doubles losslessly, and at these magnitudes one ulp
    // already exceeds any practical quantum, so quantizing is moot.
    char exact[40];
    std::snprintf(exact, sizeof(exact), "%a", x);
    out += exact;
  }
}

}  // namespace

void append_plan_signature(std::string& out, TaskId id, const Task& task, double quantum) {
  EASCHED_EXPECTS(quantum > 0.0);
  out += std::to_string(id);
  out += ':';
  append_quantized(out, task.release, quantum);
  out += ':';
  append_quantized(out, task.deadline, quantum);
  out += ':';
  append_quantized(out, task.work, quantum);
  out += ';';
}

std::string plan_signature(std::span<const std::pair<TaskId, Task>> live, double quantum) {
  EASCHED_EXPECTS(quantum > 0.0);
  std::string out;
  // ~2 digits per quantized coordinate magnitude decade; 24 per fragment is
  // a comfortable steady-state reserve for typical workloads.
  out.reserve(live.size() * 24);
  for (const auto& [id, task] : live) append_plan_signature(out, id, task, quantum);
  return out;
}

PlanCache::PlanCache(std::size_t capacity, std::size_t max_bytes)
    : capacity_(capacity), max_bytes_(max_bytes) {}

std::size_t PlanCache::plan_bytes(const std::string& signature, const CachedPlan& plan) {
  return plan.schedule.segments().size() * sizeof(Segment) + signature.size();
}

std::optional<CachedPlan> PlanCache::lookup(const std::string& signature,
                                            std::uint64_t* hit_age) {
  ++ops_;
  auto it = entries_.find(signature);
  if (it == entries_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  if (hit_age != nullptr) *hit_age = ops_ - it->second->written_op;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->plan;
}

void PlanCache::evict_coldest() {
  bytes_ -= lru_.back().bytes;
  entries_.erase(lru_.back().signature);
  lru_.pop_back();
  ++evictions_;
}

void PlanCache::insert(const std::string& signature, CachedPlan plan) {
  if (capacity_ == 0) return;
  ++ops_;
  const std::size_t size = plan_bytes(signature, plan);
  auto it = entries_.find(signature);
  if (size > max_bytes_) {
    // Served, not cached; an older plan for the signature goes with it.
    if (it != entries_.end()) {
      bytes_ -= it->second->bytes;
      lru_.erase(it->second);
      entries_.erase(it);
    }
    return;
  }
  if (it != entries_.end()) {
    bytes_ += size - it->second->bytes;
    it->second->plan = std::move(plan);
    it->second->written_op = ops_;
    it->second->bytes = size;
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Entry{signature, std::move(plan), ops_, size});
    entries_.emplace(signature, lru_.begin());
    bytes_ += size;
  }
  // The new entry is at the front and fits alone, so eviction stops before
  // reaching it.
  while (entries_.size() > capacity_ || bytes_ > max_bytes_) evict_coldest();
}

void PlanCache::clear() {
  lru_.clear();
  entries_.clear();
  bytes_ = 0;
}

double PlanCache::hit_rate() const {
  const std::uint64_t lookups = hits_ + misses_;
  return lookups == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(lookups);
}

}  // namespace easched
