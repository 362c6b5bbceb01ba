#pragma once

/// \file front_end.hpp
/// \brief The async TCP front door of the supervised shard fleet.
///
/// `FrontEnd` binds a listening socket and serves the wire protocol of
/// `protocol.hpp` on top of the `EventLoop`:
///
///  * The **loop thread** owns all connection state. It accepts, reads
///    (tolerating torn and coalesced frames via each connection's
///    `FrameDecoder`), and flushes response bytes when sockets turn
///    writable. A framing violation (oversized length, wrong version)
///    closes the connection — there is no way to answer a stream that can
///    no longer be parsed.
///  * Decoded frames are handed to a small **worker pool** which executes
///    the ops against the `Supervisor` (admission plans can take
///    milliseconds; they must never block the I/O loop). Workers hand the
///    encoded response back to the loop thread via `EventLoop::post`, so
///    responses from concurrent workers interleave per connection without
///    locks on the socket path. Responses carry the request's correlation
///    id; pipelined clients match them out of order.
///  * A payload that parses as a frame but not as its op's message is
///    answered `Status::kBadRequest`; an unknown op byte is answered
///    `Status::kUnknownOp`. The connection stays usable either way.
///
/// **Idempotent retries.** Admit frames carry the client's rid; the
/// supervisor's journaled dedup map guarantees a retried admit (after a
/// shard crash, a dropped response, or a reconnect) replays its original
/// task id instead of double-committing. The front-end additionally records
/// every *acked* admit (rid → shard, id) so the owner can audit, after any
/// amount of kill/restart chaos, that no acknowledged admission was lost
/// (`audit_lost_acks`).
///
/// `Op::kShutdown` does not stop the server; it latches a flag the owner
/// polls (`wait_shutdown_requested`) so the process can drain, audit, and
/// exit cleanly — the network equivalent of SIGTERM.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "easched/net/event_loop.hpp"
#include "easched/net/protocol.hpp"
#include "easched/service/supervisor.hpp"

namespace easched::net {

/// Tunables of a `FrontEnd`.
struct FrontEndOptions {
  /// Address to bind (IPv4 dotted quad). Loopback by default.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via `port()`).
  std::uint16_t port = 0;
  /// Op-handler threads. Planning dominates op cost, so a few workers are
  /// enough to keep the loop thread doing pure I/O.
  std::size_t workers = 2;
  /// Per-connection admission rate limit in tasks per second — each admit
  /// (and each task of an admit batch) costs one token. Over-limit admits
  /// are *answered* `Status::kOverload` (retryable), never dropped. 0
  /// disables rate limiting.
  double rate_limit_per_s = 0.0;
  /// Token-bucket burst allowance (the bucket's capacity).
  double rate_limit_burst = 64.0;
  /// Outbox high watermark (bytes). A connection whose unsent responses
  /// exceed it stops being read (EPOLLIN dropped) until the outbox drains
  /// below half the watermark — a stalled reader cannot keep feeding the
  /// workers. 0 disables pausing.
  std::size_t outbox_watermark_bytes = 256 * 1024;
  /// Hard outbox cap (bytes): a connection that exceeds it is closed with a
  /// logged reason (counted in `outbox_overflows`). Backstop for the
  /// unbounded-growth hazard even when pausing is disabled. 0 disables.
  std::size_t outbox_max_bytes = 4u * 1024 * 1024;
  /// SO_SNDBUF for accepted sockets; 0 keeps the kernel default. Tests use
  /// a tiny buffer to exercise the watermark deterministically.
  int send_buffer_bytes = 0;
};

/// Monotone front-end counters (snapshot under one lock).
struct FrontEndStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t protocol_errors = 0;  ///< framing violations that closed a connection
  std::uint64_t frames_received = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t admits = 0;
  std::uint64_t quotes = 0;
  std::uint64_t completes = 0;
  std::uint64_t cancels = 0;
  std::uint64_t stats_reads = 0;
  std::uint64_t runtime_sims = 0;
  std::uint64_t bad_requests = 0;
  std::uint64_t unknown_ops = 0;
  std::uint64_t admit_batches = 0;     ///< kAdmitBatch frames served
  std::uint64_t admit_batch_items = 0; ///< tasks carried by those frames
  std::uint64_t rate_limited = 0;      ///< admits answered kOverload by the token bucket
  std::uint64_t writev_calls = 0;      ///< gather writes issued by the flusher
  std::uint64_t writev_frames = 0;     ///< frames fully flushed by those writes
  std::uint64_t outbox_pauses = 0;     ///< reads paused at the outbox high watermark
  std::uint64_t outbox_overflows = 0;  ///< connections closed at the outbox hard cap
};

/// The network front door. Thread-safe public surface; `start()`/`stop()`
/// bracket the serving lifetime.
class FrontEnd {
 public:
  FrontEnd(Supervisor& supervisor, FrontEndOptions options);
  ~FrontEnd();

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// Bind, listen, spawn the loop thread and the worker pool. Throws on
  /// socket errors (port in use, bad address).
  void start();

  /// Stop accepting, close every connection, join all threads. Idempotent;
  /// called by the destructor.
  void stop();

  /// The bound port (after `start()`; resolves ephemeral port 0).
  std::uint16_t port() const { return bound_port_; }

  /// True once a client sent `Op::kShutdown`.
  bool shutdown_requested() const { return shutdown_requested_.load(); }
  /// Wait (up to `timeout`) for a shutdown request. Returns
  /// `shutdown_requested()`.
  bool wait_shutdown_requested(std::chrono::milliseconds timeout);

  FrontEndStats stats() const;

  /// Number of acked admits recorded (rid-tagged, status ok).
  std::size_t acked_admits() const;

  /// Re-check every acked admit against its shard's committed set and
  /// return how many vanished. Tasks a client completed or cancelled over
  /// the wire are retired from the audit, and a dedup replay of a task
  /// that had already finished (`ServiceDecision::retired`, e.g. before a
  /// restart) is not recorded as an ack. Call after a recovery sweep
  /// brought every shard up; a non-zero answer means an acknowledged
  /// admission was lost across a crash — the one thing the journal + rid
  /// dedup must prevent.
  std::size_t audit_lost_acks() const;

 private:
  struct Connection {
    int fd = -1;
    FrameDecoder decoder;
    /// Encoded response frames not yet (fully) written, oldest first. Kept
    /// as whole frames so the flusher can gather many into one `writev`.
    std::deque<std::string> outbox;
    std::size_t outbox_bytes = 0;   ///< total unsent bytes across the deque
    std::size_t outbox_offset = 0;  ///< bytes of outbox.front() already sent
    std::uint32_t interest = 0;     ///< epoll events currently registered
    bool want_write = false;        ///< the last flush hit a full kernel buffer
    bool flush_armed = false;       ///< a coalescing flush task is posted
    bool read_paused = false;       ///< EPOLLIN dropped (outbox over watermark)
    bool closed = false;
    /// Token bucket. Charged from worker threads (a batch's cost is only
    /// known after decode), hence its own tiny mutex.
    std::mutex rate_mutex;
    double tokens = 0.0;
    bool bucket_primed = false;
    std::chrono::steady_clock::time_point last_refill;
  };

  struct WorkItem {
    std::shared_ptr<Connection> connection;
    Frame frame;
  };

  // Loop-thread handlers.
  void handle_accept(std::uint32_t events);
  void handle_connection_event(const std::shared_ptr<Connection>& connection,
                               std::uint32_t events);
  void flush_connection(const std::shared_ptr<Connection>& connection);
  void close_connection(const std::shared_ptr<Connection>& connection);
  /// Recompute and (if changed) re-register the connection's epoll mask
  /// from `read_paused` / `want_write`.
  void update_interest(const std::shared_ptr<Connection>& connection);

  // Worker side.
  void worker_loop();
  /// Execute one request frame and return the fully-encoded response frame.
  std::string handle_frame(const std::shared_ptr<Connection>& connection, const Frame& frame);
  std::string handle_admit(const std::shared_ptr<Connection>& connection, const Frame& frame);
  std::string handle_admit_batch(const std::shared_ptr<Connection>& connection,
                                 const Frame& frame);
  /// The one admission path behind both admit ops: charge the rate limit,
  /// run the granted prefix of `items` as one `Supervisor::submit_batch`,
  /// record its acks, and answer every item in order (kOverload past the
  /// granted prefix). A single admit is a batch of one.
  std::vector<AdmitResponse> admit(const std::shared_ptr<Connection>& connection,
                                   std::vector<Supervisor::BatchItem> items,
                                   std::size_t pressure);
  /// Take up to `requested` tokens from the connection's bucket; returns
  /// how many were granted (the prefix of a batch that may proceed).
  std::size_t charge_admits(const std::shared_ptr<Connection>& connection,
                            std::size_t requested);
  std::string handle_quote(const Frame& frame);
  std::string handle_task_op(const Frame& frame, bool complete);
  std::string handle_stats(const Frame& frame);
  std::string handle_runtime_sim(const Frame& frame);
  std::string handle_shutdown(const Frame& frame);
  /// Queue `bytes` on `connection`'s outbox from a worker thread.
  void send_to(const std::shared_ptr<Connection>& connection, std::string bytes);

  Supervisor& supervisor_;
  FrontEndOptions options_;

  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  EventLoop loop_;
  std::thread loop_thread_;
  bool started_ = false;

  /// Live connections, keyed by fd. Loop thread only.
  std::unordered_map<int, std::shared_ptr<Connection>> connections_;

  // Work queue feeding the op handlers.
  std::mutex work_mutex_;
  std::condition_variable work_cv_;
  std::deque<WorkItem> work_;
  bool work_closed_ = false;
  std::vector<std::thread> workers_;

  std::atomic<bool> shutdown_requested_{false};
  std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;

  mutable std::mutex stats_mutex_;
  FrontEndStats stats_;

  /// rid → (shard, id) for every admit acked over the wire.
  mutable std::mutex acks_mutex_;
  std::unordered_map<std::string, std::pair<std::size_t, TaskId>> acked_;
  /// (shard, id) of every task completed or cancelled over the wire, as
  /// `retired_key`; the audit does not expect those to be committed.
  std::unordered_set<std::uint64_t> retired_;
  static std::uint64_t retired_key(std::size_t shard, TaskId id) {
    return (static_cast<std::uint64_t>(shard) << 32) | static_cast<std::uint32_t>(id);
  }
};

}  // namespace easched::net
