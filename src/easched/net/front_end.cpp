#include "easched/net/front_end.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <unordered_set>
#include <utility>

namespace easched::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

std::string encode_status_frame(Op op, std::uint64_t correlation, Status status,
                                std::string reason) {
  StatusResponse response;
  response.status = status;
  response.reason = std::move(reason);
  return encode_frame(op, /*response=*/true, correlation, encode_status_response(response));
}

constexpr int kListenBacklog = 128;

constexpr const char* kRateLimitReason =
    "rate limit exceeded (per-connection token bucket); retry with backoff";

/// Map a service decision onto the wire message.
AdmitResponse to_admit_response(const ServiceDecision& decision, const Task& task) {
  AdmitResponse response;
  response.status = admit_status(decision, task);
  response.admitted = decision.admission.admitted;
  response.id = decision.id;
  response.deduplicated = decision.deduplicated;
  response.brownout_level = decision.brownout_level;
  response.energy_before = decision.admission.energy_before;
  response.energy_after = decision.admission.energy_after;
  response.marginal_energy = decision.admission.marginal_energy;
  response.reason = decision.admission.rejection_reason;
  return response;
}

}  // namespace

FrontEnd::FrontEnd(Supervisor& supervisor, FrontEndOptions options)
    : supervisor_(supervisor), options_(std::move(options)) {}

FrontEnd::~FrontEnd() { stop(); }

void FrontEnd::start() {
  if (started_) return;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw_errno("socket");

  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("bad bind address: " + options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    throw_errno("bind");
  }
  if (::listen(listen_fd_, kListenBacklog) < 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    throw_errno("listen");
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) < 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    throw_errno("getsockname");
  }
  bound_port_ = ntohs(bound.sin_port);

  // Registered before the loop thread exists, which satisfies the loop's
  // "loop thread only" discipline for add().
  loop_.add(listen_fd_, EPOLLIN, [this](std::uint32_t events) { handle_accept(events); });

  const std::size_t workers = options_.workers > 0 ? options_.workers : 1;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  loop_thread_ = std::thread([this] { loop_.run(); });
  started_ = true;
}

void FrontEnd::stop() {
  if (!started_) return;
  started_ = false;

  // Workers first: once they are gone nothing new reaches the loop, so the
  // final close task below observes the complete connection set.
  {
    std::lock_guard lock(work_mutex_);
    work_closed_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
  workers_.clear();

  loop_.post([this] {
    for (auto& [fd, connection] : connections_) {
      connection->closed = true;
      loop_.remove(fd);
      ::close(fd);
    }
    connections_.clear();
    if (listen_fd_ >= 0) {
      loop_.remove(listen_fd_);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
  });
  loop_.stop();
  loop_thread_.join();
}

bool FrontEnd::wait_shutdown_requested(std::chrono::milliseconds timeout) {
  std::unique_lock lock(shutdown_mutex_);
  shutdown_cv_.wait_for(lock, timeout, [this] { return shutdown_requested_.load(); });
  return shutdown_requested_.load();
}

FrontEndStats FrontEnd::stats() const {
  std::lock_guard lock(stats_mutex_);
  return stats_;
}

std::size_t FrontEnd::acked_admits() const {
  std::lock_guard lock(acks_mutex_);
  return acked_.size();
}

std::size_t FrontEnd::audit_lost_acks() const {
  std::unordered_map<std::string, std::pair<std::size_t, TaskId>> acked;
  std::unordered_set<std::uint64_t> retired;
  {
    std::lock_guard lock(acks_mutex_);
    acked = acked_;
    retired = retired_;
  }
  std::unordered_map<std::size_t, std::unordered_set<TaskId>> committed;
  std::size_t lost = 0;
  for (const auto& [rid, where] : acked) {
    if (retired.count(retired_key(where.first, where.second)) != 0) continue;
    auto it = committed.find(where.first);
    if (it == committed.end()) {
      const std::vector<TaskId> ids = supervisor_.shard(where.first).committed_ids();
      it = committed.emplace(where.first, std::unordered_set<TaskId>(ids.begin(), ids.end()))
               .first;
    }
    if (it->second.count(where.second) == 0) ++lost;
  }
  return lost;
}

// ---------------------------------------------------------------------------
// Loop-thread side

void FrontEnd::handle_accept(std::uint32_t) {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept errors (ECONNABORTED, EMFILE) drop the attempt
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.send_buffer_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.send_buffer_bytes,
                   sizeof(options_.send_buffer_bytes));
    }

    auto connection = std::make_shared<Connection>();
    connection->fd = fd;
    connection->interest = EPOLLIN;
    connections_.emplace(fd, connection);
    loop_.add(fd, EPOLLIN, [this, connection](std::uint32_t events) {
      handle_connection_event(connection, events);
    });
    std::lock_guard lock(stats_mutex_);
    ++stats_.connections_accepted;
  }
}

void FrontEnd::handle_connection_event(const std::shared_ptr<Connection>& connection,
                                       std::uint32_t events) {
  if (connection->closed) return;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    close_connection(connection);
    return;
  }
  if ((events & EPOLLOUT) != 0) flush_connection(connection);
  if (connection->closed || (events & EPOLLIN) == 0) return;

  std::array<char, 16384> chunk;
  while (true) {
    const ssize_t n = ::recv(connection->fd, chunk.data(), chunk.size(), 0);
    if (n > 0) {
      {
        std::lock_guard lock(stats_mutex_);
        stats_.bytes_received += static_cast<std::uint64_t>(n);
      }
      if (!connection->decoder.feed(
              std::string_view(chunk.data(), static_cast<std::size_t>(n)))) {
        // The stream can no longer be parsed; nothing sensible can be
        // answered on it. Frames decoded before the violation are dropped
        // with the connection — a hostile or corrupt peer gets no partial
        // service.
        {
          std::lock_guard lock(stats_mutex_);
          ++stats_.protocol_errors;
        }
        close_connection(connection);
        return;
      }
      std::vector<Frame> frames = std::move(connection->decoder.frames());
      connection->decoder.frames().clear();
      if (!frames.empty()) {
        {
          std::lock_guard lock(stats_mutex_);
          stats_.frames_received += frames.size();
        }
        std::lock_guard lock(work_mutex_);
        if (!work_closed_) {
          for (Frame& frame : frames) {
            work_.push_back(WorkItem{connection, std::move(frame)});
          }
          work_cv_.notify_all();
        }
      }
      continue;
    }
    if (n == 0) {  // peer closed
      close_connection(connection);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    close_connection(connection);
    return;
  }
}

void FrontEnd::flush_connection(const std::shared_ptr<Connection>& connection) {
  connection->flush_armed = false;
  std::uint64_t flushed_bytes = 0;
  std::uint64_t flushed_frames = 0;
  std::uint64_t gather_writes = 0;
  const auto record = [&] {
    if (gather_writes == 0) return;
    std::lock_guard lock(stats_mutex_);
    stats_.bytes_sent += flushed_bytes;
    stats_.writev_calls += gather_writes;
    stats_.writev_frames += flushed_frames;
  };

  while (connection->outbox_bytes > 0) {
    // Gather every pending frame (up to the iovec cap) into one writev —
    // responses queued since the last flush leave in a single syscall.
    std::array<iovec, 64> iov;
    std::size_t n_iov = 0;
    std::size_t offset = connection->outbox_offset;
    for (const std::string& frame_bytes : connection->outbox) {
      if (n_iov == iov.size()) break;
      iov[n_iov].iov_base = const_cast<char*>(frame_bytes.data()) + offset;
      iov[n_iov].iov_len = frame_bytes.size() - offset;
      ++n_iov;
      offset = 0;
    }
    msghdr msg{};
    msg.msg_iov = iov.data();
    msg.msg_iovlen = n_iov;
    const ssize_t n = ::sendmsg(connection->fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      ++gather_writes;
      flushed_bytes += static_cast<std::uint64_t>(n);
      std::size_t left = static_cast<std::size_t>(n);
      while (left > 0) {
        const std::size_t avail =
            connection->outbox.front().size() - connection->outbox_offset;
        if (left >= avail) {
          left -= avail;
          connection->outbox_bytes -= avail;
          connection->outbox_offset = 0;
          connection->outbox.pop_front();
          ++flushed_frames;
        } else {
          connection->outbox_offset += left;
          connection->outbox_bytes -= left;
          left = 0;
        }
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    record();
    close_connection(connection);
    return;
  }
  record();

  // EPOLLOUT stays armed only while the kernel buffer is actually full.
  connection->want_write = connection->outbox_bytes > 0;
  // Resume reads once a paused connection drained below half the watermark.
  if (connection->read_paused &&
      connection->outbox_bytes <= options_.outbox_watermark_bytes / 2) {
    connection->read_paused = false;
  }
  update_interest(connection);
}

void FrontEnd::update_interest(const std::shared_ptr<Connection>& connection) {
  if (connection->closed) return;
  const std::uint32_t mask =
      (connection->read_paused ? 0u : static_cast<std::uint32_t>(EPOLLIN)) |
      (connection->want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  if (mask == connection->interest) return;
  connection->interest = mask;
  loop_.set_events(connection->fd, mask);
}

void FrontEnd::close_connection(const std::shared_ptr<Connection>& connection) {
  if (connection->closed) return;
  connection->closed = true;
  loop_.remove(connection->fd);
  ::close(connection->fd);
  connections_.erase(connection->fd);
  std::lock_guard lock(stats_mutex_);
  ++stats_.connections_closed;
}

void FrontEnd::send_to(const std::shared_ptr<Connection>& connection, std::string bytes) {
  loop_.post([this, connection, bytes = std::move(bytes)]() mutable {
    if (connection->closed) return;
    connection->outbox_bytes += bytes.size();
    connection->outbox.push_back(std::move(bytes));
    {
      std::lock_guard lock(stats_mutex_);
      ++stats_.frames_sent;
    }
    if (options_.outbox_max_bytes > 0 &&
        connection->outbox_bytes > options_.outbox_max_bytes) {
      // A reader this far behind is hopeless; shed it instead of letting
      // its outbox swell server memory without bound.
      {
        std::lock_guard lock(stats_mutex_);
        ++stats_.outbox_overflows;
      }
      std::cerr << "easched-net: closing connection fd=" << connection->fd
                << ": outbox " << connection->outbox_bytes
                << " bytes exceeds the hard cap of " << options_.outbox_max_bytes
                << " (slow or stalled reader)\n";
      close_connection(connection);
      return;
    }
    if (!connection->read_paused && options_.outbox_watermark_bytes > 0 &&
        connection->outbox_bytes > options_.outbox_watermark_bytes) {
      // Stop reading a stalled reader: its requests stay in the kernel
      // receive buffer (and eventually push back on the client) instead of
      // turning into ever more buffered responses.
      connection->read_paused = true;
      {
        std::lock_guard lock(stats_mutex_);
        ++stats_.outbox_pauses;
      }
      update_interest(connection);
    }
    // One flush task per burst: appends posted before it runs ride along in
    // the same writev gather.
    if (!connection->flush_armed) {
      connection->flush_armed = true;
      loop_.post([this, connection] {
        if (!connection->closed) flush_connection(connection);
      });
    }
  });
}

// ---------------------------------------------------------------------------
// Worker side

void FrontEnd::worker_loop() {
  while (true) {
    WorkItem item;
    {
      std::unique_lock lock(work_mutex_);
      work_cv_.wait(lock, [this] { return work_closed_ || !work_.empty(); });
      if (work_.empty()) return;  // closed and drained
      item = std::move(work_.front());
      work_.pop_front();
    }
    send_to(item.connection, handle_frame(item.connection, item.frame));
  }
}

std::string FrontEnd::handle_frame(const std::shared_ptr<Connection>& connection,
                                   const Frame& frame) {
  const Op op = frame.request_op();
  try {
    if (frame.is_response()) {
      std::lock_guard lock(stats_mutex_);
      ++stats_.bad_requests;
      return encode_status_frame(op, frame.correlation, Status::kBadRequest,
                                 "server received a response frame");
    }
    switch (op) {
      case Op::kAdmit:
        return handle_admit(connection, frame);
      case Op::kAdmitBatch:
        return handle_admit_batch(connection, frame);
      case Op::kQuote:
        return handle_quote(frame);
      case Op::kComplete:
        return handle_task_op(frame, /*complete=*/true);
      case Op::kCancel:
        return handle_task_op(frame, /*complete=*/false);
      case Op::kStats:
        return handle_stats(frame);
      case Op::kRuntimeSim:
        return handle_runtime_sim(frame);
      case Op::kShutdown:
        return handle_shutdown(frame);
    }
    {
      std::lock_guard lock(stats_mutex_);
      ++stats_.unknown_ops;
    }
    return encode_status_frame(op, frame.correlation, Status::kUnknownOp, "unknown op");
  } catch (const std::exception& e) {
    return encode_status_frame(op, frame.correlation, Status::kInternalError, e.what());
  } catch (...) {
    return encode_status_frame(op, frame.correlation, Status::kInternalError,
                               "unknown exception");
  }
}

std::size_t FrontEnd::charge_admits(const std::shared_ptr<Connection>& connection,
                                    std::size_t requested) {
  if (options_.rate_limit_per_s <= 0.0 || requested == 0) return requested;
  std::lock_guard lock(connection->rate_mutex);
  const auto now = std::chrono::steady_clock::now();
  if (!connection->bucket_primed) {
    connection->bucket_primed = true;
    connection->tokens = options_.rate_limit_burst;
    connection->last_refill = now;
  }
  const double elapsed = std::chrono::duration<double>(now - connection->last_refill).count();
  connection->last_refill = now;
  connection->tokens = std::min(options_.rate_limit_burst,
                                connection->tokens + elapsed * options_.rate_limit_per_s);
  const auto affordable = static_cast<std::size_t>(connection->tokens);
  const std::size_t granted = std::min(requested, affordable);
  connection->tokens -= static_cast<double>(granted);
  return granted;
}

std::vector<AdmitResponse> FrontEnd::admit(const std::shared_ptr<Connection>& connection,
                                           std::vector<Supervisor::BatchItem> items,
                                           std::size_t pressure) {
  // The token bucket grants a prefix (arrival order); everything past it is
  // answered kOverload per item — partial failure, never a dropped frame.
  std::vector<AdmitResponse> responses(items.size());
  const std::size_t granted = charge_admits(connection, items.size());
  if (granted < items.size()) {
    {
      std::lock_guard lock(stats_mutex_);
      stats_.rate_limited += items.size() - granted;
    }
    for (std::size_t i = granted; i < items.size(); ++i) {
      responses[i].status = Status::kOverload;
      responses[i].reason = kRateLimitReason;
    }
    items.resize(granted);
  }

  const std::vector<ServiceDecision> decisions = supervisor_.submit_batch(items, pressure);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Supervisor::BatchItem& item = items[i];
    const ServiceDecision& decision = decisions[i];
    responses[i] = to_admit_response(decision, item.task);
    if (responses[i].status == Status::kOk && !item.rid.empty() && !decision.retired) {
      const std::size_t shard = supervisor_.route(item.tenant);
      std::lock_guard lock(acks_mutex_);
      acked_[item.rid] = {shard, decision.id};
    }
  }
  return responses;
}

std::string FrontEnd::handle_admit(const std::shared_ptr<Connection>& connection,
                                   const Frame& frame) {
  AdmitRequest request;
  if (!decode_admit_request(frame.payload, request)) {
    std::lock_guard lock(stats_mutex_);
    ++stats_.bad_requests;
    return encode_status_frame(Op::kAdmit, frame.correlation, Status::kBadRequest,
                               "malformed admit payload");
  }
  {
    std::lock_guard lock(stats_mutex_);
    ++stats_.admits;
  }
  std::vector<Supervisor::BatchItem> items;
  items.push_back({std::move(request.tenant), request.task, std::move(request.rid)});
  const std::vector<AdmitResponse> responses =
      admit(connection, std::move(items), request.pressure);
  return encode_frame(Op::kAdmit, /*response=*/true, frame.correlation,
                      encode_admit_response(responses.front()));
}

std::string FrontEnd::handle_admit_batch(const std::shared_ptr<Connection>& connection,
                                         const Frame& frame) {
  AdmitBatchRequest request;
  if (!decode_admit_batch_request(frame.payload, request)) {
    std::lock_guard lock(stats_mutex_);
    ++stats_.bad_requests;
    return encode_status_frame(Op::kAdmitBatch, frame.correlation, Status::kBadRequest,
                               "malformed admit-batch payload");
  }
  {
    std::lock_guard lock(stats_mutex_);
    ++stats_.admit_batches;
    stats_.admit_batch_items += request.items.size();
  }
  std::vector<Supervisor::BatchItem> items;
  items.reserve(request.items.size());
  for (AdmitBatchItem& item : request.items) {
    items.push_back({std::move(item.tenant), item.task, std::move(item.rid)});
  }
  AdmitBatchResponse response;
  response.status = Status::kOk;
  response.items = admit(connection, std::move(items), request.pressure);
  return encode_frame(Op::kAdmitBatch, /*response=*/true, frame.correlation,
                      encode_admit_batch_response(response));
}

std::string FrontEnd::handle_quote(const Frame& frame) {
  QuoteRequest request;
  if (!decode_quote_request(frame.payload, request)) {
    std::lock_guard lock(stats_mutex_);
    ++stats_.bad_requests;
    return encode_status_frame(Op::kQuote, frame.correlation, Status::kBadRequest,
                               "malformed quote payload");
  }
  {
    std::lock_guard lock(stats_mutex_);
    ++stats_.quotes;
  }
  QuoteResponse response;
  const std::optional<AdmissionDecision> decision =
      supervisor_.quote(request.tenant, request.task);
  if (!decision) {
    response.status = Status::kUnavailable;
    response.reason = "shard down (restart scheduled)";
  } else {
    response.admitted = decision->admitted;
    response.energy_before = decision->energy_before;
    response.energy_after = decision->energy_after;
    response.marginal_energy = decision->marginal_energy;
    response.reason = decision->rejection_reason;
    response.status = decision->admitted ? Status::kOk
                      : request.task.well_formed() ? Status::kRejectedInfeasible
                                                   : Status::kRejectedInvalid;
  }
  return encode_frame(Op::kQuote, /*response=*/true, frame.correlation,
                      encode_quote_response(response));
}

std::string FrontEnd::handle_task_op(const Frame& frame, bool complete) {
  const Op op = complete ? Op::kComplete : Op::kCancel;
  TaskOpRequest request;
  if (!decode_task_op_request(frame.payload, request)) {
    std::lock_guard lock(stats_mutex_);
    ++stats_.bad_requests;
    return encode_status_frame(op, frame.correlation, Status::kBadRequest,
                               "malformed task-op payload");
  }
  {
    std::lock_guard lock(stats_mutex_);
    ++(complete ? stats_.completes : stats_.cancels);
  }
  // Service ids are non-negative `TaskId`s; narrowing any other wire id
  // would alias a real task (2^32 names task 0), so it names none.
  if (request.id < 0 || request.id > std::numeric_limits<TaskId>::max()) {
    return encode_status_frame(op, frame.correlation, Status::kNotFound, "no such task");
  }
  const TaskId id = static_cast<TaskId>(request.id);
  const std::optional<bool> removed = complete ? supervisor_.complete(request.tenant, id)
                                               : supervisor_.cancel(request.tenant, id);
  if (!removed) {
    return encode_status_frame(op, frame.correlation, Status::kUnavailable,
                               "shard down (restart scheduled)");
  }
  if (!*removed) {
    return encode_status_frame(op, frame.correlation, Status::kNotFound, "no such task");
  }
  {
    // A task finished over the wire is no longer owed to anyone: the
    // audit skips its ack.
    std::lock_guard lock(acks_mutex_);
    retired_.insert(retired_key(supervisor_.route(request.tenant), id));
  }
  return encode_status_frame(op, frame.correlation, Status::kOk, {});
}

std::string FrontEnd::handle_stats(const Frame& frame) {
  if (!frame.payload.empty()) {
    std::lock_guard lock(stats_mutex_);
    ++stats_.bad_requests;
    return encode_status_frame(Op::kStats, frame.correlation, Status::kBadRequest,
                               "stats takes no payload");
  }
  {
    std::lock_guard lock(stats_mutex_);
    ++stats_.stats_reads;
  }
  const SupervisorStats fleet = supervisor_.stats();
  StatsResponse response;
  response.status = Status::kOk;
  response.shards = supervisor_.shard_count();
  response.shards_up = fleet.shards_up;
  response.requests_routed = fleet.requests_routed;
  response.crashes_contained = fleet.crashes_contained;
  response.restarts = fleet.restarts;
  response.unavailable_rejects = fleet.unavailable_rejects;
  response.brownout_sheds = fleet.brownout_sheds;
  response.committed_total = supervisor_.committed_total();
  response.max_brownout_level = fleet.max_brownout_level;
  return encode_frame(Op::kStats, /*response=*/true, frame.correlation,
                      encode_stats_response(response));
}

std::string FrontEnd::handle_runtime_sim(const Frame& frame) {
  RuntimeSimRequest request;
  if (!decode_runtime_sim_request(frame.payload, request) || request.policy > 2) {
    std::lock_guard lock(stats_mutex_);
    ++stats_.bad_requests;
    return encode_status_frame(Op::kRuntimeSim, frame.correlation, Status::kBadRequest,
                               "malformed runtime-sim payload");
  }
  {
    std::lock_guard lock(stats_mutex_);
    ++stats_.runtime_sims;
  }
  RuntimeOptions runtime_options;
  runtime_options.policy = static_cast<RuntimePolicy>(request.policy);
  runtime_options.dpm = request.dpm;
  runtime_options.migrate = request.migrate;
  runtime_options.acet.ratio = request.acet_ratio;
  runtime_options.acet.jitter = request.acet_jitter;
  runtime_options.acet.seed = request.acet_seed;

  RuntimeSimResponse response;
  const std::optional<RuntimeReport> report =
      supervisor_.simulate_runtime(request.tenant, runtime_options);
  if (!report) {
    response.status = Status::kUnavailable;
    response.reason = "shard down (restart scheduled)";
  } else {
    response.status = Status::kOk;
    response.realized_energy = report->energy.total();
    response.planned_energy = report->planned_energy;
    response.missed_deadlines = report->missed_deadlines();
    response.reclamations = report->reclamations;
    response.sleeps = report->sleeps;
  }
  return encode_frame(Op::kRuntimeSim, /*response=*/true, frame.correlation,
                      encode_runtime_sim_response(response));
}

std::string FrontEnd::handle_shutdown(const Frame& frame) {
  {
    std::lock_guard lock(shutdown_mutex_);
    shutdown_requested_.store(true);
  }
  shutdown_cv_.notify_all();
  return encode_status_frame(Op::kShutdown, frame.correlation, Status::kOk, {});
}

}  // namespace easched::net
