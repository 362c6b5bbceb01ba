// Batched + pipelined wire path (PR 10): kAdmitBatch framing and its
// partial-failure semantics, bit-identity of a batch of one with a single
// admit, the max-frame guard on both ends, torn reads at every byte
// boundary of a batch frame, intra-batch rid dedup, the batched+pipelined
// network-vs-in-process differential, and the backpressure contract —
// token-bucket overload answers and the outbox watermark / hard cap.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "easched/common/backoff.hpp"
#include "easched/common/math.hpp"
#include "easched/common/rng.hpp"
#include "easched/net/client.hpp"
#include "easched/net/front_end.hpp"
#include "easched/net/pipelined_client.hpp"
#include "easched/service/supervisor.hpp"

namespace easched::net {
namespace {

PowerModel test_power() { return PowerModel(3.0, 0.1); }

SupervisorOptions fleet_options(const std::string& name, std::size_t shards) {
  SupervisorOptions options;
  options.shards = shards;
  options.data_dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(options.data_dir);
  std::filesystem::create_directories(options.data_dir);
  options.service.cores = 2;
  options.service.f_max = kInf;
  return options;
}

/// A comfortably admissible task (slack ratio ~0.95).
Task easy_task(int i) {
  const double release = 0.1 * i;
  return Task{release, release + 15.0, 0.5 + 0.01 * i};
}

struct Server {
  Server(const std::string& name, std::size_t shards, FrontEndOptions options = {})
      : supervisor(test_power(), fleet_options(name, shards)) {
    front_end.emplace(supervisor, options);
    front_end->start();
  }

  BlockingClient connect() {
    BlockingClient client;
    client.connect("127.0.0.1", front_end->port());
    return client;
  }

  Supervisor supervisor;
  std::optional<FrontEnd> front_end;
};

/// Raw loopback socket with a pinned receive buffer — the stalled-reader
/// tests need the client side's kernel buffer small and under our control.
int raw_connect(std::uint16_t port, int rcvbuf_bytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf_bytes > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes, sizeof(rcvbuf_bytes));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0)
      << std::strerror(errno);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void send_all(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << std::strerror(errno);
    sent += static_cast<std::size_t>(n);
  }
}

/// An invalid task (deadline before release): rejected cheaply, but still
/// answered with a reasoned per-item response — ideal outbox ballast.
AdmitBatchRequest ballast_batch(std::size_t items) {
  AdmitBatchRequest request;
  request.items.resize(items);
  for (std::size_t i = 0; i < items; ++i) {
    request.items[i].tenant = "ballast";
    request.items[i].task = Task{5.0, 1.0, 1.0};
  }
  return request;
}

TEST(NetBatchTest, EmptyBatchIsAnsweredOk) {
  Server server("batch_empty", 1);
  BlockingClient client = server.connect();

  const AdmitBatchResponse response = client.admit_batch(AdmitBatchRequest{});
  EXPECT_EQ(response.status, Status::kOk);
  EXPECT_TRUE(response.items.empty());

  // The connection is still serviceable.
  AdmitRequest admit;
  admit.tenant = "t";
  admit.task = easy_task(0);
  EXPECT_EQ(client.admit(admit).status, Status::kOk);
  EXPECT_EQ(server.front_end->stats().admit_batches, 1u);
}

// A batch of one must be indistinguishable from a single admit — same ids,
// same dedup bits, bit-identical energies. Two identically-seeded fleets,
// one driven per frame, one driven through one-task batches.
TEST(NetBatchTest, BatchOfOneIsBitIdenticalToSingleAdmit) {
  Server single("batch1_single", 2);
  Server batched("batch1_batched", 2);
  BlockingClient single_client = single.connect();
  BlockingClient batched_client = batched.connect();

  Rng rng(Rng::seed_of("batch-of-one", 1));
  for (int i = 0; i < 24; ++i) {
    const std::string tenant = "tenant-" + std::to_string(i % 5);
    // A duplicate rid every 6th request keeps the dedup path in the loop.
    const std::string rid = "b1-" + std::to_string(i % 6 == 5 ? i - 1 : i);
    const double release = rng.uniform(0.0, 6.0);
    const Task task{release, release + rng.uniform(10.0, 20.0), rng.uniform(0.2, 1.5)};

    AdmitRequest admit;
    admit.tenant = tenant;
    admit.rid = rid;
    admit.task = task;
    const AdmitResponse via_single = single_client.admit(admit);

    AdmitBatchRequest batch;
    batch.items.resize(1);
    batch.items[0] = {tenant, rid, task};
    const AdmitBatchResponse via_batch = batched_client.admit_batch(batch);
    ASSERT_EQ(via_batch.status, Status::kOk);
    ASSERT_EQ(via_batch.items.size(), 1u);
    const AdmitResponse& item = via_batch.items[0];

    EXPECT_EQ(item.status, via_single.status) << "request " << i;
    EXPECT_EQ(item.admitted, via_single.admitted) << "request " << i;
    EXPECT_EQ(item.id, via_single.id) << "request " << i;
    EXPECT_EQ(item.deduplicated, via_single.deduplicated) << "request " << i;
    EXPECT_EQ(item.brownout_level, via_single.brownout_level) << "request " << i;
    EXPECT_EQ(item.energy_before, via_single.energy_before) << "request " << i;
    EXPECT_EQ(item.energy_after, via_single.energy_after) << "request " << i;
    EXPECT_EQ(item.marginal_energy, via_single.marginal_energy) << "request " << i;
    EXPECT_EQ(item.reason, via_single.reason) << "request " << i;
  }

  ASSERT_EQ(single.supervisor.committed_total(), batched.supervisor.committed_total());
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(single.supervisor.shard(k).committed_ids(),
              batched.supervisor.shard(k).committed_ids());
    EXPECT_EQ(single.supervisor.shard(k).current_energy(),
              batched.supervisor.shard(k).current_energy());
  }
}

TEST(NetBatchTest, OversizedBatchIsRejectedBeforeBuffering) {
  Server server("batch_oversize", 1);
  BlockingClient client = server.connect();

  // Client side: a batch that would encode past the 1 MiB frame guard
  // throws before a single byte is sent.
  AdmitBatchRequest huge;
  huge.items.resize(40000);
  for (std::size_t i = 0; i < huge.items.size(); ++i) {
    huge.items[i] = {"tenant-oversize", "rid-" + std::to_string(i), easy_task(0)};
  }
  EXPECT_THROW(client.admit_batch(huge), std::length_error);

  // Server side: a tiny payload whose count header claims 2^30 items must
  // fail decode (count × minimum item size exceeds the payload) and be
  // answered kBadRequest — no reserve, no buffering, connection intact.
  Writer lying;
  lying.u32(1u << 30);
  client.send_raw(encode_frame(Op::kAdmitBatch, /*response=*/false, 77, lying.data()));
  const Frame frame = client.read_frame();
  EXPECT_EQ(frame.correlation, 77u);
  StatusResponse status;
  ASSERT_TRUE(decode_status_response(frame.payload, status));
  EXPECT_EQ(status.status, Status::kBadRequest);

  // Both rejections left the connection serviceable.
  AdmitRequest admit;
  admit.tenant = "t";
  admit.task = easy_task(0);
  EXPECT_EQ(client.admit(admit).status, Status::kOk);
}

// Feed a batch frame split at EVERY byte boundary through a fresh decoder:
// no split may yield a frame early, corrupt the payload, or error.
TEST(NetBatchTest, TornReadsAtEveryByteBoundaryOfABatchFrame) {
  AdmitBatchRequest request;
  request.items.resize(3);
  for (std::size_t i = 0; i < 3; ++i) {
    request.items[i] = {"tenant-torn", "torn-rid-" + std::to_string(i),
                        easy_task(static_cast<int>(i))};
  }
  request.pressure = 7;
  const std::string wire = encode_frame(Op::kAdmitBatch, /*response=*/false, 99,
                                        encode_admit_batch_request(request));

  for (std::size_t split = 1; split < wire.size(); ++split) {
    FrameDecoder decoder;
    ASSERT_TRUE(decoder.feed(std::string_view(wire.data(), split))) << "split " << split;
    ASSERT_TRUE(decoder.frames().empty()) << "split " << split;
    ASSERT_TRUE(decoder.feed(std::string_view(wire.data() + split, wire.size() - split)))
        << "split " << split;
    ASSERT_EQ(decoder.frames().size(), 1u) << "split " << split;

    AdmitBatchRequest decoded;
    ASSERT_TRUE(decode_admit_batch_request(decoder.frames()[0].payload, decoded))
        << "split " << split;
    ASSERT_EQ(decoded.items.size(), 3u);
    ASSERT_EQ(decoded.pressure, 7u);
    for (std::size_t i = 0; i < 3; ++i) {
      ASSERT_EQ(decoded.items[i].tenant, request.items[i].tenant);
      ASSERT_EQ(decoded.items[i].rid, request.items[i].rid);
      ASSERT_EQ(decoded.items[i].task.release, request.items[i].task.release);
      ASSERT_EQ(decoded.items[i].task.deadline, request.items[i].task.deadline);
      ASSERT_EQ(decoded.items[i].task.work, request.items[i].task.work);
    }
  }

  // And over a real socket: drip the same frame one byte at a time.
  Server server("batch_torn", 1);
  BlockingClient client = server.connect();
  for (const char byte : wire) {
    client.send_raw(std::string_view(&byte, 1));
  }
  const Frame response = client.read_frame();
  EXPECT_EQ(response.correlation, 99u);
  AdmitBatchResponse decoded;
  ASSERT_TRUE(decode_admit_batch_response(response.payload, decoded));
  EXPECT_EQ(decoded.status, Status::kOk);
  EXPECT_EQ(decoded.items.size(), 3u);
}

TEST(NetBatchTest, DuplicateRidsWithinOneBatchDeduplicate) {
  Server server("batch_dup", 1);
  BlockingClient client = server.connect();

  AdmitBatchRequest batch;
  batch.items.resize(3);
  batch.items[0] = {"t", "dup-rid", easy_task(0)};
  batch.items[1] = {"t", "dup-rid", easy_task(1)};  // same rid, different task
  batch.items[2] = {"t", "other-rid", easy_task(2)};
  const AdmitBatchResponse response = client.admit_batch(batch);
  ASSERT_EQ(response.status, Status::kOk);
  ASSERT_EQ(response.items.size(), 3u);

  EXPECT_EQ(response.items[0].status, Status::kOk);
  EXPECT_FALSE(response.items[0].deduplicated);
  EXPECT_EQ(response.items[1].status, Status::kOk);
  EXPECT_TRUE(response.items[1].deduplicated);
  EXPECT_EQ(response.items[1].id, response.items[0].id);
  EXPECT_FALSE(response.items[2].deduplicated);

  // Only two tasks were committed; the duplicate replayed the first.
  EXPECT_EQ(server.supervisor.committed_total(), 2u);
}

// The differential: the same seeded stream batched + pipelined over the
// wire and batched directly into a twin supervisor must produce identical
// decisions — ids, dedup bits, and exact energies. One op worker keeps
// frame processing in arrival order while many frames are in flight.
TEST(NetBatchTest, SeededBatchedPipelinedDifferentialMatchesInProcess) {
  constexpr std::size_t kBatches = 12;
  constexpr std::size_t kPerBatch = 5;
  constexpr std::uint64_t kSeed = 2026;

  FrontEndOptions options;
  options.workers = 1;
  Server server("batch_diff_wire", 2, options);
  Supervisor direct(test_power(), fleet_options("batch_diff_direct", 2));

  PipelinedClient client(/*max_in_flight=*/8);
  client.connect("127.0.0.1", server.front_end->port());

  // Plan the whole stream first so both sides see byte-identical inputs.
  Rng rng(kSeed);
  std::vector<AdmitBatchRequest> stream(kBatches);
  for (std::size_t b = 0; b < kBatches; ++b) {
    stream[b].items.resize(kPerBatch);
    for (std::size_t j = 0; j < kPerBatch; ++j) {
      const std::size_t i = b * kPerBatch + j;
      const double release = rng.uniform(0.0, 6.0);
      stream[b].items[j] = {"tenant-" + std::to_string(i % 7),
                            "bdiff-" + std::to_string(i % 50 == 49 ? i - 1 : i),
                            Task{release, release + rng.uniform(10.0, 20.0),
                                 rng.uniform(0.2, 1.5)}};
    }
  }

  // Fire every frame before reading a single response: genuinely pipelined.
  std::vector<std::future<AdmitBatchResponse>> futures;
  futures.reserve(kBatches);
  for (const AdmitBatchRequest& request : stream) {
    futures.push_back(client.admit_batch(request));
  }

  for (std::size_t b = 0; b < kBatches; ++b) {
    const AdmitBatchResponse wire = futures[b].get();
    ASSERT_EQ(wire.status, Status::kOk) << "batch " << b;
    ASSERT_EQ(wire.items.size(), kPerBatch) << "batch " << b;

    std::vector<Supervisor::BatchItem> batch;
    for (const AdmitBatchItem& item : stream[b].items) {
      batch.push_back({item.tenant, item.task, item.rid});
    }
    const std::vector<ServiceDecision> in_process = direct.submit_batch(batch);
    ASSERT_EQ(in_process.size(), kPerBatch);

    for (std::size_t j = 0; j < kPerBatch; ++j) {
      const AdmitResponse& w = wire.items[j];
      const ServiceDecision& d = in_process[j];
      ASSERT_EQ(w.status, admit_status(d, stream[b].items[j].task))
          << "batch " << b << " item " << j;
      EXPECT_EQ(w.admitted, d.admission.admitted) << "batch " << b << " item " << j;
      EXPECT_EQ(w.id, d.id) << "batch " << b << " item " << j;
      EXPECT_EQ(w.deduplicated, d.deduplicated) << "batch " << b << " item " << j;
      EXPECT_EQ(w.energy_before, d.admission.energy_before)
          << "batch " << b << " item " << j;
      EXPECT_EQ(w.energy_after, d.admission.energy_after)
          << "batch " << b << " item " << j;
      EXPECT_EQ(w.marginal_energy, d.admission.marginal_energy)
          << "batch " << b << " item " << j;
    }
  }
  client.close();

  ASSERT_EQ(server.supervisor.committed_total(), direct.committed_total());
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(server.supervisor.shard(k).committed_ids(), direct.shard(k).committed_ids());
    EXPECT_EQ(server.supervisor.shard(k).current_energy(),
              direct.shard(k).current_energy());
  }
}

// The token bucket answers over-limit admits with a retryable kOverload —
// the connection is never dropped, and a batch gets a partial grant: its
// arrival-order prefix proceeds, the tail is rate-limited per item.
TEST(NetBatchTest, OverRateAdmitsAreAnsweredOverloadNotDropped) {
  FrontEndOptions options;
  options.rate_limit_per_s = 50.0;
  options.rate_limit_burst = 4.0;
  Server server("batch_rate", 1, options);
  BlockingClient client = server.connect();

  // One batch of 8 against a burst of 4: items 0..3 granted, 4..7 overload.
  AdmitBatchRequest batch;
  batch.items.resize(8);
  for (int i = 0; i < 8; ++i) {
    batch.items[static_cast<std::size_t>(i)] = {"t", "rate-" + std::to_string(i),
                                                easy_task(i)};
  }
  const AdmitBatchResponse response = client.admit_batch(batch);
  ASSERT_EQ(response.status, Status::kOk);
  ASSERT_EQ(response.items.size(), 8u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(response.items[static_cast<std::size_t>(i)].status, Status::kOk) << i;
  }
  for (int i = 4; i < 8; ++i) {
    const AdmitResponse& item = response.items[static_cast<std::size_t>(i)];
    EXPECT_EQ(item.status, Status::kOverload) << i;
    EXPECT_TRUE(is_retryable(item.status)) << i;
    EXPECT_FALSE(item.reason.empty()) << i;
  }
  EXPECT_GE(server.front_end->stats().rate_limited, 4u);

  // The connection stays usable, and a backoff retry with the SAME rid
  // succeeds once the bucket refills — without double-committing.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  AdmitRequest retry;
  retry.tenant = "t";
  retry.rid = "rate-4";
  retry.task = easy_task(4);
  AdmitResponse retried;
  for (int attempt = 0; attempt < 32; ++attempt) {
    retried = client.admit(retry);
    if (retried.status == Status::kOk) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_EQ(retried.status, Status::kOk);
  EXPECT_FALSE(retried.deduplicated);  // the overloaded item was never committed
  EXPECT_EQ(server.supervisor.committed_total(), 5u);
}

// A stalled reader is paused at the outbox watermark (reads stop, so the
// workers stop being fed) and resumes once the client drains — every
// response still arrives, nothing is dropped, the connection survives.
TEST(NetBatchTest, StalledReaderIsBoundedByOutboxWatermark) {
  FrontEndOptions options;
  options.send_buffer_bytes = 4096;  // tiny kernel buffer: outbox fills fast
  options.outbox_watermark_bytes = 16 * 1024;
  options.outbox_max_bytes = 64 * 1024 * 1024;  // cap out of the way
  Server server("batch_watermark", 1, options);

  const int fd = raw_connect(server.front_end->port(), 4096);
  constexpr std::size_t kFrames = 48;
  constexpr std::size_t kItems = 64;
  const std::string payload = encode_admit_batch_request(ballast_batch(kItems));

  // Reader stalls, then drains everything.
  std::atomic<std::size_t> responses{0};
  std::thread reader([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    FrameDecoder decoder;
    std::vector<char> chunk(16384);
    while (responses.load() < kFrames) {
      const ssize_t n = ::recv(fd, chunk.data(), chunk.size(), 0);
      if (n <= 0) break;
      ASSERT_TRUE(decoder.feed(std::string_view(chunk.data(), static_cast<std::size_t>(n))));
      for (const Frame& frame : decoder.frames()) {
        AdmitBatchResponse response;
        ASSERT_TRUE(decode_admit_batch_response(frame.payload, response));
        ASSERT_EQ(response.items.size(), kItems);
        responses.fetch_add(1);
      }
      decoder.frames().clear();
    }
  });

  for (std::size_t i = 0; i < kFrames; ++i) {
    send_all(fd, encode_frame(Op::kAdmitBatch, /*response=*/false, i + 1, payload));
  }
  reader.join();
  EXPECT_EQ(responses.load(), kFrames);
  // The final flush records its counters just after the last sendmsg; give
  // the loop thread a beat to finish accounting.
  for (int spin = 0; spin < 200 && server.front_end->stats().writev_frames < kFrames;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const FrontEndStats stats = server.front_end->stats();
  EXPECT_GE(stats.outbox_pauses, 1u);
  EXPECT_EQ(stats.outbox_overflows, 0u);
  EXPECT_EQ(stats.writev_frames, kFrames);
  // (With a 4 KiB SO_SNDBUF most gathers are partial-frame sends, so the
  // frames-per-call coalescing ratio is not meaningful here — the full
  // flush accounting above is the invariant this test pins.)
  EXPECT_GE(stats.writev_calls, 1u);
  ::close(fd);
}

// A reader that never drains hits the hard cap: the connection is closed
// with a counted reason instead of growing the outbox without bound.
TEST(NetBatchTest, NeverDrainingReaderIsClosedAtOutboxHardCap) {
  FrontEndOptions options;
  options.send_buffer_bytes = 4096;
  options.outbox_watermark_bytes = 0;  // pausing disabled: the cap must act
  options.outbox_max_bytes = 32 * 1024;
  Server server("batch_overflow", 1, options);

  const int fd = raw_connect(server.front_end->port(), 4096);
  const std::string payload = encode_admit_batch_request(ballast_batch(64));

  // Keep offering work without ever reading; stop once the server gives up
  // on us (send fails) or the overflow is counted.
  for (std::size_t i = 0; i < 512; ++i) {
    const std::string frame =
        encode_frame(Op::kAdmitBatch, /*response=*/false, i + 1, payload);
    const ssize_t n = ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
    if (n < 0) break;
    if (server.front_end->stats().outbox_overflows > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (int spin = 0; spin < 500 && server.front_end->stats().outbox_overflows == 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server.front_end->stats().outbox_overflows, 1u);
  ::close(fd);

  // The server itself is fine: a polite fresh connection still works.
  BlockingClient fresh = server.connect();
  AdmitRequest admit;
  admit.tenant = "t";
  admit.task = easy_task(0);
  EXPECT_EQ(fresh.admit(admit).status, Status::kOk);
}

// The shared decorrelated-jitter helper honors its contract: results stay
// in [base, cap], never exceed 3x the previous wait, and the walk is
// reproducible per seed.
TEST(NetBatchTest, DecorrelatedBackoffStaysWithinBounds) {
  const auto base = std::chrono::microseconds(200);
  const auto cap = std::chrono::microseconds(200 * 64);
  Rng rng(Rng::seed_of("backoff-bounds", 1));
  auto wait = base;
  for (int i = 0; i < 1000; ++i) {
    const auto previous = wait;
    wait = decorrelated_backoff(rng, base, previous, cap);
    ASSERT_GE(wait, base);
    ASSERT_LE(wait, cap);
    ASSERT_LE(wait.count(), std::max(base.count(), 3 * previous.count()));
  }

  Rng replay_a(Rng::seed_of("backoff-replay", 7));
  Rng replay_b(Rng::seed_of("backoff-replay", 7));
  auto wait_a = base;
  auto wait_b = base;
  for (int i = 0; i < 100; ++i) {
    wait_a = decorrelated_backoff(replay_a, base, wait_a, cap);
    wait_b = decorrelated_backoff(replay_b, base, wait_b, cap);
    ASSERT_EQ(wait_a, wait_b);
  }
}

}  // namespace
}  // namespace easched::net
