#pragma once

/// \file cow.hpp
/// \brief Copy-on-write value storage: copies share one heap value until
///        one of them writes.

#include <atomic>
#include <cstddef>
#include <utility>

namespace easched {

/// Holds a `T` that copies share instead of duplicating. `read()` never
/// allocates; `write()` first gives this holder a private copy when any
/// other holder shares the value ("detach"), so a write is never visible
/// through another copy. The share count is atomic: copies of one value may
/// be read, copied and dropped from different threads at once. A single
/// holder follows the usual rule — no write concurrent with any other use
/// of that same holder. Default-constructed, it holds nothing and reads as
/// an empty `T{}`.
template <typename T>
class Cow {
 public:
  Cow() = default;
  explicit Cow(T value) : node_(new Node{std::move(value)}) {}
  Cow(const Cow& other) noexcept : node_(other.node_) {
    if (node_ != nullptr) node_->shares.fetch_add(1, std::memory_order_relaxed);
  }
  Cow(Cow&& other) noexcept : node_(std::exchange(other.node_, nullptr)) {}
  Cow& operator=(const Cow& other) noexcept {
    Cow(other).swap(*this);
    return *this;
  }
  Cow& operator=(Cow&& other) noexcept {
    Cow(std::move(other)).swap(*this);
    return *this;
  }
  ~Cow() { release(); }

  const T& read() const { return node_ != nullptr ? node_->value : empty(); }

  /// Mutable access to a value no other holder shares.
  T& write() {
    if (node_ == nullptr) {
      node_ = new Node{};
    } else if (node_->shares.load(std::memory_order_acquire) != 1) {
      // The acquire pairs with the release half of every other holder's
      // drop, so their reads of the old value happen before this write.
      Node* copy = new Node{node_->value};
      release();
      node_ = copy;
    }
    return node_->value;
  }

  void swap(Cow& other) noexcept { std::swap(node_, other.node_); }

 private:
  struct Node {
    T value;
    std::atomic<std::size_t> shares{1};
  };

  static const T& empty() {
    static const T value{};
    return value;
  }

  void release() {
    if (node_ != nullptr && node_->shares.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete node_;
    }
    node_ = nullptr;
  }

  Node* node_ = nullptr;
};

}  // namespace easched
