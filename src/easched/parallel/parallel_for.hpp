#pragma once

/// \file parallel_for.hpp
/// \brief Chunked parallel loop on top of `ThreadPool`, safe to nest.
///
/// The caller *participates*: chunks live in a shared claim queue and the
/// calling thread drains it alongside the pool workers. Two consequences:
///
///  * **No deadlock under nesting.** A job already running on a pool worker
///    may call `parallel_for` on the same pool; if every worker is busy the
///    caller simply executes all chunks itself. This is what lets the
///    scheduling kernel and the Monte-Carlo harness share one machine-wide
///    thread budget without reserving threads for each other or
///    oversubscribing the host.
///  * **No idle caller.** The submitting thread is always one of the
///    executors, so a pool of `k` workers yields up to `k + 1` lanes.
///
/// **Determinism contract.** Chunk layout and execution order are *not*
/// part of any function's observable behavior: bodies passed here must only
/// write pre-sized, disjoint output slots (element `i` of the loop touches
/// only slot `i`'s data), and every reduction over those slots must happen
/// serially, in index order, after the loop returns. Code that follows the
/// rule is bit-identical at any thread count — including fully serial —
/// which `tests/parallel_determinism_test.cpp` asserts for the whole
/// scheduling pipeline and the interior-point solver.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

#include "easched/common/contracts.hpp"
#include "easched/parallel/thread_pool.hpp"

namespace easched {

namespace detail {

/// Shared lifetime anchor for one parallel_for invocation. Pool jobs hold it
/// by `shared_ptr`, so a straggler job that wakes up after the loop returned
/// still finds valid memory; it sees `next >= chunk_count` and exits without
/// ever touching the (by then dead) loop body.
struct ParallelForState {
  std::atomic<std::size_t> next{0};  ///< next unclaimed chunk
  std::size_t chunk_count = 0;
  std::mutex mutex;
  std::condition_variable done_cv;
  std::size_t done = 0;  ///< guarded by mutex
  std::exception_ptr error;  ///< first body exception; guarded by mutex
};

}  // namespace detail

/// Run `body(i)` for every `i` in `[begin, end)`, fanning chunks out over
/// `pool` while the caller helps execute them (see the file comment). Blocks
/// until all iterations finish; the first exception thrown by any chunk is
/// rethrown on the caller after the remaining chunks complete.
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, Body&& body,
                  ThreadPool& pool = ThreadPool::global()) {
  EASCHED_EXPECTS(begin <= end);
  const std::size_t count = end - begin;
  if (count == 0) return;
  const std::size_t workers = pool.thread_count();
  if (count == 1 || workers <= 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  // Roughly 4 chunks per lane for load balance. Results never depend on the
  // chunk layout (see the determinism contract above).
  const std::size_t chunks = std::min(count, (workers + 1) * 4);
  const std::size_t chunk_size = (count + chunks - 1) / chunks;
  const std::size_t chunk_count = (count + chunk_size - 1) / chunk_size;

  auto state = std::make_shared<detail::ParallelForState>();
  state->chunk_count = chunk_count;

  const auto run_chunks = [state, begin, end, chunk_size, &body] {
    for (;;) {
      const std::size_t c = state->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= state->chunk_count) return;
      const std::size_t lo = begin + c * chunk_size;
      const std::size_t hi = std::min(end, lo + chunk_size);
      try {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      } catch (...) {
        std::lock_guard lock(state->mutex);
        if (!state->error) state->error = std::current_exception();
      }
      std::size_t finished;
      {
        std::lock_guard lock(state->mutex);
        finished = ++state->done;
      }
      if (finished == state->chunk_count) state->done_cv.notify_all();
    }
  };

  // One claimer job per worker (capped by the chunk count); each drains the
  // claim queue until empty. If the pool is saturated or stopping, the
  // caller's own pass below still completes every chunk.
  const std::size_t claimers = std::min(workers, chunk_count - 1);
  for (std::size_t c = 0; c < claimers; ++c) {
    try {
      pool.submit(run_chunks);
    } catch (...) {
      break;  // pool shutting down: caller-only execution below
    }
  }
  run_chunks();

  std::unique_lock lock(state->mutex);
  state->done_cv.wait(lock, [&] { return state->done == state->chunk_count; });
  if (state->error) std::rethrow_exception(state->error);
}

/// Map `fn(i)` over `[0, n)` in parallel, collecting results by index.
template <typename Fn>
auto parallel_map(std::size_t n, Fn&& fn, ThreadPool& pool = ThreadPool::global())
    -> std::vector<decltype(fn(std::size_t{0}))> {
  std::vector<decltype(fn(std::size_t{0}))> out(n);
  parallel_for(
      0, n, [&](std::size_t i) { out[i] = fn(i); }, pool);
  return out;
}

}  // namespace easched
