#pragma once

/// \file thread_pool.hpp
/// \brief Fixed-size worker pool used by the Monte-Carlo experiment harness.
///
/// The experiments in the paper average 100 independent simulation runs per
/// parameter point; runs are embarrassingly parallel, so the harness fans
/// them out over this pool. The pool is a plain FIFO of type-erased jobs —
/// work items here are milliseconds-long scheduler invocations, so work
/// stealing would add complexity without measurable benefit.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "easched/faults/fault_injection.hpp"
#include "easched/obs/trace.hpp"

namespace easched {

/// A fixed-size thread pool.
///
/// **Exception contract**: a job that throws never terminates a worker or
/// the process. The exception is captured into the shared state
/// of the future returned by `submit()` and rethrown from `future::get()`;
/// if the caller discards the future, the exception is silently dropped
/// with the shared state. Workers keep serving subsequent jobs either way.
class ThreadPool {
 public:
  /// Spawn `threads` workers (defaults to hardware concurrency, at least 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains outstanding work, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Enqueue a job; the returned future carries the job's result/exception
  /// (see the class-level exception contract).
  ///
  /// The fault hook runs *inside* the packaged task, so an injected delay
  /// or `InjectedFault` flows through the normal exception contract (into
  /// the job's future) and can never escape a worker. With no injector
  /// installed the hook is one atomic load.
  ///
  /// The submitter's tracing context (request id, current span) is captured
  /// here and re-installed on the worker for the job's duration, so spans a
  /// job opens carry the request id and nest under the submitting span even
  /// across the thread hop. Capture is two thread-local reads — free when
  /// tracing is off.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(
        [fn = std::forward<F>(f), request = obs::current_request(),
         parent = obs::current_parent_span()]() mutable -> R {
          obs::RequestScope request_scope(request);
          obs::ParentScope parent_scope(parent);
          faults::on_job();
          return fn();
        });
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lock(mutex_);
      if (stopping_) throw std::runtime_error("submit() on a stopping ThreadPool");
      jobs_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// The process-wide default pool (lazily constructed, sized to the host).
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> jobs_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace easched
