// The wire protocol: framing under every chunking of the byte stream (torn
// reads at each byte boundary, coalesced frames, one-byte drip), the
// max-frame and version guards, mid-frame disconnect detection, payload
// codec round trips, and the decision→status taxonomy mapping.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "easched/net/protocol.hpp"

namespace easched::net {
namespace {

Frame make_frame(Op op, std::uint64_t correlation, std::string payload) {
  Frame frame;
  frame.op = static_cast<std::uint8_t>(op);
  frame.correlation = correlation;
  frame.payload = std::move(payload);
  return frame;
}

std::vector<Frame> reference_stream() {
  AdmitRequest admit;
  admit.tenant = "tenant-7";
  admit.rid = "rid-42";
  admit.task = Task{0.5, 12.0, 3.25};
  admit.pressure = 9;

  QuoteRequest quote;
  quote.tenant = "tenant-короткий";  // non-ASCII bytes travel verbatim
  quote.task = Task{0.0, 8.0, 1.0};

  TaskOpRequest cancel;
  cancel.tenant = "t";
  cancel.id = 1234567;

  return {
      make_frame(Op::kAdmit, 1, encode_admit_request(admit)),
      make_frame(Op::kQuote, 2, encode_quote_request(quote)),
      make_frame(Op::kStats, 3, {}),
      make_frame(Op::kCancel, 0xffffffffffffffffULL, encode_task_op_request(cancel)),
  };
}

std::string wire_bytes(const std::vector<Frame>& frames) {
  std::string bytes;
  for (const Frame& frame : frames) {
    bytes += encode_frame(frame.request_op(), frame.is_response(), frame.correlation,
                          frame.payload);
  }
  return bytes;
}

TEST(ProtocolFramingTest, TornReadsAtEveryByteBoundaryDecodeIdentically) {
  const std::vector<Frame> expected = reference_stream();
  const std::string bytes = wire_bytes(expected);

  // Split the stream at every single boundary: [0, k) then [k, end).
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    FrameDecoder decoder;
    ASSERT_TRUE(decoder.feed(std::string_view(bytes).substr(0, split)));
    ASSERT_TRUE(decoder.feed(std::string_view(bytes).substr(split)));
    ASSERT_EQ(decoder.frames().size(), expected.size()) << "split at " << split;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(decoder.frames()[i], expected[i]) << "split at " << split;
    }
    EXPECT_FALSE(decoder.mid_frame());
  }
}

TEST(ProtocolFramingTest, OneByteDripDecodesIdentically) {
  const std::vector<Frame> expected = reference_stream();
  const std::string bytes = wire_bytes(expected);

  FrameDecoder decoder;
  for (const char byte : bytes) {
    ASSERT_TRUE(decoder.feed(std::string_view(&byte, 1)));
  }
  ASSERT_EQ(decoder.frames().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(decoder.frames()[i], expected[i]);
  }
  EXPECT_FALSE(decoder.mid_frame());
}

TEST(ProtocolFramingTest, CoalescedFramesInOneFeedDecodeInOrder) {
  const std::vector<Frame> expected = reference_stream();
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.feed(wire_bytes(expected)));
  ASSERT_EQ(decoder.frames().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(decoder.frames()[i], expected[i]);
  }
}

TEST(ProtocolFramingTest, OversizedFrameIsRejectedBeforeItsBodyArrives) {
  Writer header;
  header.u32(kMaxFrameBytes + 1);  // length alone condemns the stream
  FrameDecoder decoder;
  EXPECT_FALSE(decoder.feed(header.data()));
  EXPECT_TRUE(decoder.failed());
  EXPECT_FALSE(decoder.error().empty());
  // A poisoned decoder ignores all further input.
  EXPECT_FALSE(decoder.feed("more bytes"));
  EXPECT_TRUE(decoder.frames().empty());
}

TEST(ProtocolFramingTest, UndersizedFrameIsRejected) {
  Writer header;
  header.u32(kMinBodyBytes - 1);  // cannot even hold version+op+correlation
  FrameDecoder decoder;
  EXPECT_FALSE(decoder.feed(header.data()));
  EXPECT_TRUE(decoder.failed());
}

TEST(ProtocolFramingTest, GarbageHeaderIsRejected) {
  FrameDecoder decoder;
  // 0xffffffff length: astronomically oversized.
  EXPECT_FALSE(decoder.feed(std::string("\xff\xff\xff\xff", 4)));
  EXPECT_TRUE(decoder.failed());
}

TEST(ProtocolFramingTest, WrongVersionIsRejectedAsSoonAsTheByteArrives) {
  Writer bad;
  bad.u32(kMinBodyBytes);
  bad.u8(kProtocolVersion + 1);
  FrameDecoder decoder;
  // Feed length + version only: rejection must not wait for the full body.
  EXPECT_FALSE(decoder.feed(bad.data()));
  EXPECT_TRUE(decoder.failed());
}

TEST(ProtocolFramingTest, MidFrameDisconnectIsDistinguishableFromCleanEof) {
  const std::string bytes = wire_bytes(reference_stream());

  FrameDecoder clean;
  ASSERT_TRUE(clean.feed(bytes));
  EXPECT_FALSE(clean.mid_frame());  // ends exactly on a frame boundary

  FrameDecoder torn;
  ASSERT_TRUE(torn.feed(std::string_view(bytes).substr(0, bytes.size() - 3)));
  EXPECT_TRUE(torn.mid_frame());  // a disconnect now tears the last frame

  FrameDecoder torn_in_header;
  ASSERT_TRUE(torn_in_header.feed(std::string_view(bytes).substr(0, 2)));
  EXPECT_TRUE(torn_in_header.mid_frame());  // even inside the length prefix
}

TEST(ProtocolCodecTest, AdmitRoundTripIsExact) {
  AdmitRequest request;
  request.tenant = "tenant-x";
  request.rid = "rid-1";
  request.task = Task{1.25, 9.75, 2.5};
  request.pressure = 3;
  AdmitRequest decoded_request;
  ASSERT_TRUE(decode_admit_request(encode_admit_request(request), decoded_request));
  EXPECT_EQ(decoded_request, request);

  AdmitResponse response;
  response.status = Status::kShedBrownout;
  response.admitted = false;
  response.id = 77;
  response.deduplicated = true;
  response.brownout_level = 3;
  response.energy_before = 12.5;
  response.energy_after = 14.125;
  response.marginal_energy = 1.625;
  response.reason = "brownout shed (level 3, lowest laxity)";
  AdmitResponse decoded_response;
  ASSERT_TRUE(decode_admit_response(encode_admit_response(response), decoded_response));
  EXPECT_EQ(decoded_response, response);
}

TEST(ProtocolCodecTest, AllOtherMessagesRoundTripExactly) {
  QuoteRequest quote_request{"t", Task{0, 10, 1}};
  QuoteRequest quote_request2;
  ASSERT_TRUE(decode_quote_request(encode_quote_request(quote_request), quote_request2));
  EXPECT_EQ(quote_request2, quote_request);

  QuoteResponse quote_response;
  quote_response.status = Status::kOk;
  quote_response.admitted = true;
  quote_response.energy_before = 1.0;
  quote_response.energy_after = 1.5;
  quote_response.marginal_energy = 0.5;
  QuoteResponse quote_response2;
  ASSERT_TRUE(decode_quote_response(encode_quote_response(quote_response), quote_response2));
  EXPECT_EQ(quote_response2, quote_response);

  TaskOpRequest task_op{"tenant", -1};
  TaskOpRequest task_op2;
  ASSERT_TRUE(decode_task_op_request(encode_task_op_request(task_op), task_op2));
  EXPECT_EQ(task_op2, task_op);

  StatusResponse status{Status::kNotFound, "no such task"};
  StatusResponse status2;
  ASSERT_TRUE(decode_status_response(encode_status_response(status), status2));
  EXPECT_EQ(status2, status);

  StatsResponse stats;
  stats.status = Status::kOk;
  stats.shards = 4;
  stats.shards_up = 3;
  stats.requests_routed = 1000;
  stats.crashes_contained = 2;
  stats.restarts = 2;
  stats.unavailable_rejects = 17;
  stats.brownout_sheds = 5;
  stats.committed_total = 420;
  stats.max_brownout_level = 2;
  StatsResponse stats2;
  ASSERT_TRUE(decode_stats_response(encode_stats_response(stats), stats2));
  EXPECT_EQ(stats2, stats);

  RuntimeSimRequest sim;
  sim.tenant = "t";
  sim.policy = 2;
  sim.dpm = true;
  sim.migrate = true;
  sim.acet_ratio = 0.6;
  sim.acet_jitter = 0.1;
  sim.acet_seed = 99;
  RuntimeSimRequest sim2;
  ASSERT_TRUE(decode_runtime_sim_request(encode_runtime_sim_request(sim), sim2));
  EXPECT_EQ(sim2, sim);

  RuntimeSimResponse sim_response;
  sim_response.status = Status::kOk;
  sim_response.realized_energy = 8.5;
  sim_response.planned_energy = 10.0;
  sim_response.missed_deadlines = 0;
  sim_response.reclamations = 3;
  sim_response.sleeps = 1;
  RuntimeSimResponse sim_response2;
  ASSERT_TRUE(
      decode_runtime_sim_response(encode_runtime_sim_response(sim_response), sim_response2));
  EXPECT_EQ(sim_response2, sim_response);
}

TEST(ProtocolCodecTest, TrailingBytesFailPayloadDecodes) {
  AdmitRequest request;
  request.tenant = "t";
  request.task = Task{0, 10, 1};
  std::string payload = encode_admit_request(request) + "x";
  AdmitRequest decoded;
  EXPECT_FALSE(decode_admit_request(payload, decoded));
}

TEST(ProtocolCodecTest, TruncatedPayloadFailsDecode) {
  AdmitRequest request;
  request.tenant = "tenant";
  request.rid = "rid";
  request.task = Task{0, 10, 1};
  const std::string payload = encode_admit_request(request);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    AdmitRequest decoded;
    EXPECT_FALSE(decode_admit_request(payload.substr(0, cut), decoded)) << "cut " << cut;
  }
}

TEST(ProtocolCodecTest, StringLengthPastPayloadEndFailsInsteadOfOverreading) {
  Writer forged;
  forged.u32(1000);  // claims a 1000-byte tenant string
  forged.u8('x');    // ...but only one byte follows
  AdmitRequest decoded;
  EXPECT_FALSE(decode_admit_request(forged.data(), decoded));
}

// ---------------------------------------------------------------------------
// Status taxonomy

ServiceDecision decision_with(AdmissionErrorKind kind, bool admitted = false,
                              std::string reason = {}) {
  ServiceDecision decision;
  decision.error_kind = kind;
  decision.admission.admitted = admitted;
  decision.admission.rejection_reason = std::move(reason);
  return decision;
}

TEST(ProtocolStatusTest, TaxonomyMapsEveryErrorKindDistinctly) {
  const Task good{0.0, 10.0, 1.0};

  EXPECT_EQ(admit_status(decision_with(AdmissionErrorKind::kNone, true), good), Status::kOk);
  EXPECT_EQ(admit_status(decision_with(AdmissionErrorKind::kUnavailable), good),
            Status::kUnavailable);
  EXPECT_EQ(admit_status(decision_with(AdmissionErrorKind::kDropped), good),
            Status::kUnavailable);
  EXPECT_EQ(admit_status(decision_with(AdmissionErrorKind::kPlanning), good),
            Status::kPlanningFailed);
  EXPECT_EQ(admit_status(decision_with(AdmissionErrorKind::kContract), good),
            Status::kInternalError);
  EXPECT_EQ(admit_status(decision_with(AdmissionErrorKind::kInternal), good),
            Status::kInternalError);
}

TEST(ProtocolStatusTest, ServiceOverloadIsABrownoutShed) {
  const Task good{0.0, 10.0, 1.0};
  // The brownout ladder's level-3 shed is the service's only kOverload; the
  // client stretches its backoff for it. The front end's rate limit answers
  // Status::kOverload without a service decision.
  EXPECT_EQ(admit_status(decision_with(AdmissionErrorKind::kOverload, false,
                                       "brownout shed (level 3, lowest laxity)"),
                         good),
            Status::kShedBrownout);
}

TEST(ProtocolStatusTest, InvalidAndInfeasibleRejectionsAreDistinguished) {
  ServiceDecision rejected = decision_with(AdmissionErrorKind::kNone, false, "rejected");

  const Task infeasible{0.0, 1.0, 100.0};  // well-formed, cannot fit
  EXPECT_EQ(admit_status(rejected, infeasible), Status::kRejectedInfeasible);

  const Task malformed{5.0, 1.0, 1.0};  // deadline before release
  EXPECT_EQ(admit_status(rejected, malformed), Status::kRejectedInvalid);
  const Task zero_work{0.0, 10.0, 0.0};
  EXPECT_EQ(admit_status(rejected, zero_work), Status::kRejectedInvalid);
}

TEST(ProtocolStatusTest, RetryableSetIsExactlyTheTransientStatuses) {
  EXPECT_TRUE(is_retryable(Status::kUnavailable));
  EXPECT_TRUE(is_retryable(Status::kOverload));
  EXPECT_TRUE(is_retryable(Status::kShedBrownout));

  EXPECT_FALSE(is_retryable(Status::kOk));
  EXPECT_FALSE(is_retryable(Status::kRejectedInfeasible));
  EXPECT_FALSE(is_retryable(Status::kRejectedInvalid));
  EXPECT_FALSE(is_retryable(Status::kPlanningFailed));
  EXPECT_FALSE(is_retryable(Status::kInternalError));
  EXPECT_FALSE(is_retryable(Status::kBadRequest));
  EXPECT_FALSE(is_retryable(Status::kUnknownOp));
  EXPECT_FALSE(is_retryable(Status::kNotFound));
}

TEST(ProtocolStatusTest, EveryStatusHasAStableName) {
  for (std::uint8_t s = 0; s <= static_cast<std::uint8_t>(Status::kNotFound); ++s) {
    EXPECT_FALSE(status_name(static_cast<Status>(s)).empty());
  }
}

}  // namespace
}  // namespace easched::net
