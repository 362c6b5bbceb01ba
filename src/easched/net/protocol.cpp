#include "easched/net/protocol.hpp"

#include <bit>
#include <cstring>

namespace easched::net {

std::string_view status_name(Status status) {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kRejectedInfeasible: return "rejected_infeasible";
    case Status::kRejectedInvalid: return "rejected_invalid";
    case Status::kUnavailable: return "unavailable";
    case Status::kOverload: return "overload";
    case Status::kShedBrownout: return "shed_brownout";
    case Status::kPlanningFailed: return "planning_failed";
    case Status::kInternalError: return "internal_error";
    case Status::kBadRequest: return "bad_request";
    case Status::kUnknownOp: return "unknown_op";
    case Status::kNotFound: return "not_found";
  }
  return "unknown";
}

bool is_retryable(Status status) {
  return status == Status::kUnavailable || status == Status::kOverload ||
         status == Status::kShedBrownout;
}

Status admit_status(const ServiceDecision& decision, const Task& task) {
  switch (decision.error_kind) {
    case AdmissionErrorKind::kUnavailable:
      return Status::kUnavailable;
    case AdmissionErrorKind::kDropped:
      // An injected drop simulates a lost message; to the client it is the
      // same retryable condition as a down shard.
      return Status::kUnavailable;
    case AdmissionErrorKind::kOverload:
      // The service sheds only at brownout level 3; the front end's rate
      // limit answers `Status::kOverload` itself, without a decision.
      return Status::kShedBrownout;
    case AdmissionErrorKind::kPlanning:
      return Status::kPlanningFailed;
    case AdmissionErrorKind::kInvalid:
      return Status::kRejectedInvalid;
    case AdmissionErrorKind::kContract:
    case AdmissionErrorKind::kInternal:
      return Status::kInternalError;
    case AdmissionErrorKind::kNone:
      break;
  }
  if (decision.admission.admitted) return Status::kOk;
  return task.well_formed() ? Status::kRejectedInfeasible : Status::kRejectedInvalid;
}

// ---------------------------------------------------------------------------
// Primitives

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.append(s);
}

bool Reader::take(std::size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t Reader::u8() {
  if (!take(1)) return 0;
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint32_t Reader::u32() {
  if (!take(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(data_[pos_ + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  if (!take(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(data_[pos_ + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

double Reader::f64() { return std::bit_cast<double>(u64()); }

std::string Reader::str() {
  const std::uint32_t n = u32();
  if (!take(n)) return {};
  std::string s(data_.substr(pos_, n));
  pos_ += n;
  return s;
}

// ---------------------------------------------------------------------------
// Frames

std::string encode_frame(Op op, bool response, std::uint64_t correlation,
                         std::string_view payload) {
  Writer w;
  const std::uint32_t body = kMinBodyBytes + static_cast<std::uint32_t>(payload.size());
  w.u32(body);
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(static_cast<std::uint8_t>(op) |
                                 (response ? kResponseBit : 0)));
  w.u64(correlation);
  std::string out = w.take();
  out.append(payload);
  return out;
}

bool FrameDecoder::fail(std::string message) {
  error_ = std::move(message);
  buffer_.clear();
  return false;
}

bool FrameDecoder::feed(std::string_view data) {
  if (failed()) return false;
  buffer_.append(data);
  for (;;) {
    if (!have_header_) {
      if (buffer_.size() < 4) return true;
      Reader r(std::string_view(buffer_).substr(0, 4));
      body_length_ = r.u32();
      if (body_length_ < kMinBodyBytes) {
        return fail("frame body shorter than the fixed header (" +
                    std::to_string(body_length_) + " bytes)");
      }
      if (body_length_ > kMaxFrameBytes) {
        return fail("frame body exceeds the max-frame guard (" +
                    std::to_string(body_length_) + " bytes)");
      }
      have_header_ = true;
      version_checked_ = false;
    }
    // Check the version byte the moment it is visible, before waiting for
    // (or buffering) the rest of a possibly-bogus body.
    if (!version_checked_ && buffer_.size() >= 5) {
      const auto version = static_cast<std::uint8_t>(buffer_[4]);
      if (version != kProtocolVersion) {
        return fail("unsupported protocol version " + std::to_string(version));
      }
      version_checked_ = true;
    }
    if (buffer_.size() < 4u + body_length_) return true;

    Frame frame;
    Reader r(std::string_view(buffer_).substr(4, body_length_));
    frame.version = r.u8();
    frame.op = r.u8();
    frame.correlation = r.u64();
    frame.payload = buffer_.substr(4 + kMinBodyBytes, body_length_ - kMinBodyBytes);
    frames_.push_back(std::move(frame));
    buffer_.erase(0, 4u + body_length_);
    have_header_ = false;
  }
}

// ---------------------------------------------------------------------------
// Messages

namespace {

void put_task(Writer& w, const Task& t) {
  w.f64(t.release);
  w.f64(t.deadline);
  w.f64(t.work);
}

Task get_task(Reader& r) {
  Task t;
  t.release = r.f64();
  t.deadline = r.f64();
  t.work = r.f64();
  return t;
}

// Shared by the single-admit codec and the per-item layout of kAdmitBatch —
// one wire format, two framings.
void put_admit_response(Writer& w, const AdmitResponse& m) {
  w.u8(static_cast<std::uint8_t>(m.status));
  w.u8(m.admitted ? 1 : 0);
  w.i64(m.id);
  w.u8(m.deduplicated ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(m.brownout_level));
  w.f64(m.energy_before);
  w.f64(m.energy_after);
  w.f64(m.marginal_energy);
  w.str(m.reason);
}

AdmitResponse get_admit_response(Reader& r) {
  AdmitResponse m;
  m.status = static_cast<Status>(r.u8());
  m.admitted = r.u8() != 0;
  m.id = r.i64();
  m.deduplicated = r.u8() != 0;
  m.brownout_level = static_cast<std::int32_t>(r.u32());
  m.energy_before = r.f64();
  m.energy_after = r.f64();
  m.marginal_energy = r.f64();
  m.reason = r.str();
  return m;
}

// Smallest possible wire size of one batch item / one batch response item:
// an item count larger than payload/min is rejected before any reserve, so
// a forged count can never drive a large allocation.
constexpr std::size_t kMinBatchItemBytes = 4 + 4 + 3 * 8;           // tenant + rid + task
constexpr std::size_t kMinBatchResponseItemBytes = 1 + 1 + 8 + 1 + 4 + 3 * 8 + 4;

}  // namespace

std::string encode_admit_request(const AdmitRequest& m) {
  Writer w;
  w.str(m.tenant);
  w.str(m.rid);
  put_task(w, m.task);
  w.u32(m.pressure);
  return w.take();
}

bool decode_admit_request(std::string_view payload, AdmitRequest& out) {
  Reader r(payload);
  out.tenant = r.str();
  out.rid = r.str();
  out.task = get_task(r);
  out.pressure = r.u32();
  return r.done();
}

std::string encode_admit_response(const AdmitResponse& m) {
  Writer w;
  put_admit_response(w, m);
  return w.take();
}

bool decode_admit_response(std::string_view payload, AdmitResponse& out) {
  Reader r(payload);
  out = get_admit_response(r);
  return r.done();
}

std::string encode_admit_batch_request(const AdmitBatchRequest& m) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(m.items.size()));
  for (const AdmitBatchItem& item : m.items) {
    w.str(item.tenant);
    w.str(item.rid);
    put_task(w, item.task);
  }
  w.u32(m.pressure);
  return w.take();
}

bool decode_admit_batch_request(std::string_view payload, AdmitBatchRequest& out) {
  Reader r(payload);
  const std::uint32_t count = r.u32();
  if (count > payload.size() / kMinBatchItemBytes) return false;
  out.items.clear();
  out.items.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    AdmitBatchItem item;
    item.tenant = r.str();
    item.rid = r.str();
    item.task = get_task(r);
    out.items.push_back(std::move(item));
  }
  out.pressure = r.u32();
  return r.done();
}

std::string encode_admit_batch_response(const AdmitBatchResponse& m) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(m.status));
  w.str(m.reason);
  w.u32(static_cast<std::uint32_t>(m.items.size()));
  for (const AdmitResponse& item : m.items) put_admit_response(w, item);
  return w.take();
}

bool decode_admit_batch_response(std::string_view payload, AdmitBatchResponse& out) {
  Reader r(payload);
  out.status = static_cast<Status>(r.u8());
  out.reason = r.str();
  const std::uint32_t count = r.u32();
  if (count > payload.size() / kMinBatchResponseItemBytes) return false;
  out.items.clear();
  out.items.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) out.items.push_back(get_admit_response(r));
  return r.done();
}

std::string encode_quote_request(const QuoteRequest& m) {
  Writer w;
  w.str(m.tenant);
  put_task(w, m.task);
  return w.take();
}

bool decode_quote_request(std::string_view payload, QuoteRequest& out) {
  Reader r(payload);
  out.tenant = r.str();
  out.task = get_task(r);
  return r.done();
}

std::string encode_quote_response(const QuoteResponse& m) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(m.status));
  w.u8(m.admitted ? 1 : 0);
  w.f64(m.energy_before);
  w.f64(m.energy_after);
  w.f64(m.marginal_energy);
  w.str(m.reason);
  return w.take();
}

bool decode_quote_response(std::string_view payload, QuoteResponse& out) {
  Reader r(payload);
  out.status = static_cast<Status>(r.u8());
  out.admitted = r.u8() != 0;
  out.energy_before = r.f64();
  out.energy_after = r.f64();
  out.marginal_energy = r.f64();
  out.reason = r.str();
  return r.done();
}

std::string encode_task_op_request(const TaskOpRequest& m) {
  Writer w;
  w.str(m.tenant);
  w.i64(m.id);
  return w.take();
}

bool decode_task_op_request(std::string_view payload, TaskOpRequest& out) {
  Reader r(payload);
  out.tenant = r.str();
  out.id = r.i64();
  return r.done();
}

std::string encode_status_response(const StatusResponse& m) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(m.status));
  w.str(m.reason);
  return w.take();
}

bool decode_status_response(std::string_view payload, StatusResponse& out) {
  Reader r(payload);
  out.status = static_cast<Status>(r.u8());
  out.reason = r.str();
  return r.done();
}

std::string encode_stats_response(const StatsResponse& m) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(m.status));
  w.u64(m.shards);
  w.u64(m.shards_up);
  w.u64(m.requests_routed);
  w.u64(m.crashes_contained);
  w.u64(m.restarts);
  w.u64(m.unavailable_rejects);
  w.u64(m.brownout_sheds);
  w.u64(m.committed_total);
  w.u32(static_cast<std::uint32_t>(m.max_brownout_level));
  return w.take();
}

bool decode_stats_response(std::string_view payload, StatsResponse& out) {
  Reader r(payload);
  out.status = static_cast<Status>(r.u8());
  out.shards = r.u64();
  out.shards_up = r.u64();
  out.requests_routed = r.u64();
  out.crashes_contained = r.u64();
  out.restarts = r.u64();
  out.unavailable_rejects = r.u64();
  out.brownout_sheds = r.u64();
  out.committed_total = r.u64();
  out.max_brownout_level = static_cast<std::int32_t>(r.u32());
  return r.done();
}

std::string encode_runtime_sim_request(const RuntimeSimRequest& m) {
  Writer w;
  w.str(m.tenant);
  w.u8(m.policy);
  w.u8(m.dpm ? 1 : 0);
  w.u8(m.migrate ? 1 : 0);
  w.f64(m.acet_ratio);
  w.f64(m.acet_jitter);
  w.u64(m.acet_seed);
  return w.take();
}

bool decode_runtime_sim_request(std::string_view payload, RuntimeSimRequest& out) {
  Reader r(payload);
  out.tenant = r.str();
  out.policy = r.u8();
  out.dpm = r.u8() != 0;
  out.migrate = r.u8() != 0;
  out.acet_ratio = r.f64();
  out.acet_jitter = r.f64();
  out.acet_seed = r.u64();
  return r.done();
}

std::string encode_runtime_sim_response(const RuntimeSimResponse& m) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(m.status));
  w.f64(m.realized_energy);
  w.f64(m.planned_energy);
  w.u64(m.missed_deadlines);
  w.u64(m.reclamations);
  w.u64(m.sleeps);
  w.str(m.reason);
  return w.take();
}

bool decode_runtime_sim_response(std::string_view payload, RuntimeSimResponse& out) {
  Reader r(payload);
  out.status = static_cast<Status>(r.u8());
  out.realized_energy = r.f64();
  out.planned_energy = r.f64();
  out.missed_deadlines = r.u64();
  out.reclamations = r.u64();
  out.sleeps = r.u64();
  out.reason = r.str();
  return r.done();
}

}  // namespace easched::net
