#pragma once

/// \file protocol.hpp
/// \brief The length-prefixed binary wire protocol of the network front-end.
///
/// Every message travels as one *frame*:
///
///     u32 LE   body length  (kMinBodyBytes <= length <= kMaxFrameBytes)
///     body:
///       u8     protocol version  (kProtocolVersion)
///       u8     op                (high bit set on responses)
///       u64 LE correlation id    (responses echo the request's id)
///       ...    op-specific payload
///
/// Integers are little-endian; doubles are their IEEE-754 bit pattern as a
/// little-endian u64; strings are a u32 length followed by raw bytes. The
/// frame length counts the body only (version byte onward), so a reader can
/// always allocate exactly once per frame.
///
/// **Torn and coalesced reads.** TCP gives a byte stream, not frames:
/// `FrameDecoder` is incremental — bytes may arrive one at a time, split
/// anywhere (including inside the length prefix), or with many frames
/// coalesced into one read, and the decoded frame sequence is identical.
///
/// **Max-frame guard.** A length above `kMaxFrameBytes` (or below the fixed
/// header size) marks the connection as poisoned before any allocation
/// happens — a garbage or hostile header can never make the server buffer
/// gigabytes. Version bytes are checked as soon as they arrive, for the
/// same reason.
///
/// **Correlation ids.** Requests carry a client-chosen id and responses
/// echo it, so one connection can pipeline many requests and match answers
/// out of order.
///
/// **Status taxonomy.** Every response payload begins with one `Status`
/// byte. Retryable conditions (`kUnavailable`, `kOverload`,
/// `kShedBrownout`) are distinct from terminal rejections
/// (`kRejectedInfeasible`, `kRejectedInvalid`) and server faults
/// (`kPlanningFailed`, `kInternalError`), so clients can implement the
/// retry contract without parsing reason strings — the bugfix over the
/// pre-protocol behavior where a degraded shard looked like a dropped
/// connection.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "easched/service/decision.hpp"
#include "easched/tasksys/task.hpp"

namespace easched::net {

/// Protocol version carried in every frame. Bump on any wire change.
inline constexpr std::uint8_t kProtocolVersion = 1;

/// Fixed body prefix: version (1) + op (1) + correlation id (8).
inline constexpr std::uint32_t kMinBodyBytes = 10;

/// Upper bound on one frame's body. Anything larger is a protocol error:
/// the decoder rejects the header before allocating.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

/// Request operations. Responses echo the op with `kResponseBit` set.
enum class Op : std::uint8_t {
  kAdmit = 1,       ///< admit a task for a tenant (idempotent via rid)
  kQuote = 2,       ///< non-binding admission check + energy quote
  kComplete = 3,    ///< remove a finished task
  kCancel = 4,      ///< remove a task that will not run
  kStats = 5,       ///< fleet-wide supervision statistics
  kRuntimeSim = 6,  ///< what-if online-runtime simulation of a shard's plan
  kShutdown = 7,    ///< ask the server to finish up and exit cleanly
  kAdmitBatch = 8,  ///< admit N tasks in one frame (per-task statuses)
};

/// High bit of the op byte marks a frame as a response.
inline constexpr std::uint8_t kResponseBit = 0x80;

/// First byte of every response payload.
enum class Status : std::uint8_t {
  kOk = 0,
  /// Model-based rejection: the task is well-formed but the platform cannot
  /// fit it (flow test / frequency ceiling). Not retryable.
  kRejectedInfeasible = 1,
  /// Validation failure: the task itself is malformed (non-finite fields,
  /// work <= 0, deadline <= release), or the rid is one the journal cannot
  /// store (a byte <= 0x20 or 0x7f). Not retryable.
  kRejectedInvalid = 2,
  /// The routed shard is down (crash containment) or the request was lost;
  /// retry with the same rid.
  kUnavailable = 3,
  /// Over the connection's admit rate limit; retry with backoff.
  kOverload = 4,
  /// Shed by the brownout ladder at level 3 (lowest-laxity drop); retry
  /// with stretched backoff.
  kShedBrownout = 5,
  /// Every rung of the fallback chain failed. Not retryable.
  kPlanningFailed = 6,
  /// Unexpected server-side exception.
  kInternalError = 7,
  /// The frame parsed but its payload did not (wrong fields, trailing
  /// bytes). Not retryable — fix the client.
  kBadRequest = 8,
  /// The op byte names no known operation.
  kUnknownOp = 9,
  /// complete/cancel for an id the shard does not hold.
  kNotFound = 10,
};

/// Stable display name ("ok", "unavailable", ...).
std::string_view status_name(Status status);

/// True for the statuses a client should retry (with the same rid).
bool is_retryable(Status status);

/// Map a service decision onto the wire taxonomy. `task` is the request's
/// own task (used for the invalid-vs-infeasible split).
Status admit_status(const ServiceDecision& decision, const Task& task);

// ---------------------------------------------------------------------------
// Primitive encoding

/// Append-only little-endian writer.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void str(std::string_view s);
  std::string take() { return std::move(buf_); }
  const std::string& data() const { return buf_; }

 private:
  std::string buf_;
};

/// Consuming little-endian reader. Any out-of-bounds read (or a string
/// length past the end) latches `ok() == false` and every later read
/// returns zero/empty — callers check once at the end.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  std::string str();

  bool ok() const { return ok_; }
  /// All bytes consumed and no read failed — trailing garbage is a decode
  /// failure, not silently ignored.
  bool done() const { return ok_ && pos_ == data_.size(); }

 private:
  bool take(std::size_t n);

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Frames

/// One decoded frame.
struct Frame {
  std::uint8_t version = kProtocolVersion;
  std::uint8_t op = 0;  ///< raw op byte (check kResponseBit)
  std::uint64_t correlation = 0;
  std::string payload;

  bool is_response() const { return (op & kResponseBit) != 0; }
  Op request_op() const { return static_cast<Op>(op & ~kResponseBit); }

  friend bool operator==(const Frame&, const Frame&) = default;
};

/// Serialize one frame (length prefix + body).
std::string encode_frame(Op op, bool response, std::uint64_t correlation,
                         std::string_view payload);

/// Incremental frame parser over an arbitrary chunking of the byte stream.
class FrameDecoder {
 public:
  /// Consume `data`. Completed frames are appended to `frames()`. Returns
  /// false — and latches `error()` — on a protocol violation (oversized or
  /// undersized length, wrong version); all further input is ignored.
  bool feed(std::string_view data);

  /// Frames completed so far, in arrival order. Callers drain this (e.g.
  /// `std::move` + `clear`) between feeds.
  std::vector<Frame>& frames() { return frames_; }

  bool failed() const { return !error_.empty(); }
  const std::string& error() const { return error_; }

  /// Bytes of an incomplete frame are buffered: true when a disconnect now
  /// would tear a frame mid-way (distinguishes a clean EOF from a torn one).
  bool mid_frame() const { return !error_.empty() ? false : buffer_.size() > 0; }

 private:
  bool fail(std::string message);

  std::string buffer_;           ///< unconsumed prefix of the stream
  std::vector<Frame> frames_;
  std::string error_;
  bool version_checked_ = false;  ///< version byte of the in-flight frame seen
  std::uint32_t body_length_ = 0;
  bool have_header_ = false;
};

// ---------------------------------------------------------------------------
// Messages

/// kAdmit request: tenant, rid (empty = not idempotent), task, pressure
/// hint for the shard's brownout ladder.
struct AdmitRequest {
  std::string tenant;
  std::string rid;
  Task task;
  std::uint32_t pressure = 0;

  friend bool operator==(const AdmitRequest&, const AdmitRequest&) = default;
};

/// kAdmit response.
struct AdmitResponse {
  Status status = Status::kInternalError;
  bool admitted = false;
  std::int64_t id = -1;
  bool deduplicated = false;
  std::int32_t brownout_level = 0;
  double energy_before = 0.0;
  double energy_after = 0.0;
  double marginal_energy = 0.0;
  std::string reason;

  friend bool operator==(const AdmitResponse&, const AdmitResponse&) = default;
};

/// One task of a kAdmitBatch request.
struct AdmitBatchItem {
  std::string tenant;
  std::string rid;
  Task task;

  friend bool operator==(const AdmitBatchItem&, const AdmitBatchItem&) = default;
};

/// kAdmitBatch request: N tasks in one frame. `pressure` is the shared
/// brownout-ladder hint (the server additionally folds in its own
/// concurrency estimate, exactly as for kAdmit).
struct AdmitBatchRequest {
  std::vector<AdmitBatchItem> items;
  std::uint32_t pressure = 0;

  friend bool operator==(const AdmitBatchRequest&, const AdmitBatchRequest&) = default;
};

/// kAdmitBatch response. `status` covers the frame itself (kOk even when
/// individual items failed — partial failure is per-item, a single
/// infeasible task never rejects the whole frame); `items` carries one
/// full AdmitResponse per request task, in request order.
struct AdmitBatchResponse {
  Status status = Status::kInternalError;
  std::vector<AdmitResponse> items;
  std::string reason;

  friend bool operator==(const AdmitBatchResponse&, const AdmitBatchResponse&) = default;
};

/// kQuote request.
struct QuoteRequest {
  std::string tenant;
  Task task;

  friend bool operator==(const QuoteRequest&, const QuoteRequest&) = default;
};

/// kQuote response.
struct QuoteResponse {
  Status status = Status::kInternalError;
  bool admitted = false;
  double energy_before = 0.0;
  double energy_after = 0.0;
  double marginal_energy = 0.0;
  std::string reason;

  friend bool operator==(const QuoteResponse&, const QuoteResponse&) = default;
};

/// kComplete / kCancel request.
struct TaskOpRequest {
  std::string tenant;
  std::int64_t id = -1;

  friend bool operator==(const TaskOpRequest&, const TaskOpRequest&) = default;
};

/// Generic status-only response (complete, cancel, shutdown, unknown op).
struct StatusResponse {
  Status status = Status::kInternalError;
  std::string reason;

  friend bool operator==(const StatusResponse&, const StatusResponse&) = default;
};

/// kStats response: fleet-wide supervision summary.
struct StatsResponse {
  Status status = Status::kInternalError;
  std::uint64_t shards = 0;
  std::uint64_t shards_up = 0;
  std::uint64_t requests_routed = 0;
  std::uint64_t crashes_contained = 0;
  std::uint64_t restarts = 0;
  std::uint64_t unavailable_rejects = 0;
  std::uint64_t brownout_sheds = 0;
  std::uint64_t committed_total = 0;
  std::int32_t max_brownout_level = 0;

  friend bool operator==(const StatsResponse&, const StatsResponse&) = default;
};

/// kRuntimeSim request: execute the routed shard's current plan through the
/// online runtime (policy 0 = static, 1 = cycle-conserving, 2 = look-ahead).
struct RuntimeSimRequest {
  std::string tenant;
  std::uint8_t policy = 0;
  bool dpm = false;
  bool migrate = false;
  double acet_ratio = 1.0;
  double acet_jitter = 0.0;
  std::uint64_t acet_seed = 1;

  friend bool operator==(const RuntimeSimRequest&, const RuntimeSimRequest&) = default;
};

/// kRuntimeSim response.
struct RuntimeSimResponse {
  Status status = Status::kInternalError;
  double realized_energy = 0.0;
  double planned_energy = 0.0;
  std::uint64_t missed_deadlines = 0;
  std::uint64_t reclamations = 0;
  std::uint64_t sleeps = 0;
  std::string reason;

  friend bool operator==(const RuntimeSimResponse&, const RuntimeSimResponse&) = default;
};

/// \name Payload codecs
/// Encoders produce the op payload (not the frame); decoders require the
/// payload to parse fully (trailing bytes fail).
/// @{
std::string encode_admit_request(const AdmitRequest& m);
bool decode_admit_request(std::string_view payload, AdmitRequest& out);
std::string encode_admit_response(const AdmitResponse& m);
bool decode_admit_response(std::string_view payload, AdmitResponse& out);

std::string encode_admit_batch_request(const AdmitBatchRequest& m);
bool decode_admit_batch_request(std::string_view payload, AdmitBatchRequest& out);
std::string encode_admit_batch_response(const AdmitBatchResponse& m);
bool decode_admit_batch_response(std::string_view payload, AdmitBatchResponse& out);

std::string encode_quote_request(const QuoteRequest& m);
bool decode_quote_request(std::string_view payload, QuoteRequest& out);
std::string encode_quote_response(const QuoteResponse& m);
bool decode_quote_response(std::string_view payload, QuoteResponse& out);

std::string encode_task_op_request(const TaskOpRequest& m);
bool decode_task_op_request(std::string_view payload, TaskOpRequest& out);
std::string encode_status_response(const StatusResponse& m);
bool decode_status_response(std::string_view payload, StatusResponse& out);

std::string encode_stats_response(const StatsResponse& m);
bool decode_stats_response(std::string_view payload, StatsResponse& out);

std::string encode_runtime_sim_request(const RuntimeSimRequest& m);
bool decode_runtime_sim_request(std::string_view payload, RuntimeSimRequest& out);
std::string encode_runtime_sim_response(const RuntimeSimResponse& m);
bool decode_runtime_sim_response(std::string_view payload, RuntimeSimResponse& out);
/// @}

}  // namespace easched::net
