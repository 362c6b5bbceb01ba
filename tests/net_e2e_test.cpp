// End-to-end network lane over loopback: a FrontEnd serving a real
// supervised fleet, driven through BlockingClient. Covers the op surface,
// the client-visible error taxonomy (degraded shards answer with retryable
// statuses instead of dropped connections), torn/coalesced writes over a
// real socket, idempotent re-admission across reconnects and crashes, the
// network-vs-in-process differential, and the no-lost-acks audit under
// kill/restart chaos.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "easched/common/math.hpp"
#include "easched/common/rng.hpp"
#include "easched/faults/fault_injection.hpp"
#include "easched/faults/fault_plan.hpp"
#include "easched/net/client.hpp"
#include "easched/net/front_end.hpp"
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
  Server(const std::string& name, std::size_t shards, std::size_t workers = 2)
      : supervisor(test_power(), fleet_options(name, shards)) {
    FrontEndOptions options;
    options.workers = workers;
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

TEST(NetE2eTest, AdmitQuoteCompleteCancelStatsRoundTrip) {
  Server server("net_basic", 2);
  BlockingClient client = server.connect();

  AdmitRequest admit;
  admit.tenant = "tenant-1";
  admit.rid = "rid-1";
  admit.task = easy_task(0);
  const AdmitResponse admitted = client.admit(admit);
  ASSERT_EQ(admitted.status, Status::kOk);
  EXPECT_TRUE(admitted.admitted);
  EXPECT_GE(admitted.id, 0);
  EXPECT_FALSE(admitted.deduplicated);
  EXPECT_GT(admitted.energy_after, 0.0);

  QuoteRequest quote;
  quote.tenant = "tenant-1";
  quote.task = easy_task(1);
  const QuoteResponse quoted = client.quote(quote);
  ASSERT_EQ(quoted.status, Status::kOk);
  EXPECT_TRUE(quoted.admitted);
  EXPECT_GT(quoted.marginal_energy, 0.0);
  // A quote is non-binding: nothing was committed.
  EXPECT_EQ(server.supervisor.committed_total(), 1u);

  const StatsResponse stats = client.stats();
  ASSERT_EQ(stats.status, Status::kOk);
  EXPECT_EQ(stats.shards, 2u);
  EXPECT_EQ(stats.shards_up, 2u);
  EXPECT_EQ(stats.committed_total, 1u);
  EXPECT_GE(stats.requests_routed, 1u);

  TaskOpRequest complete;
  complete.tenant = "tenant-1";
  complete.id = admitted.id;
  EXPECT_EQ(client.complete_task(complete).status, Status::kOk);
  EXPECT_EQ(server.supervisor.committed_total(), 0u);

  // Completing it again: gone.
  EXPECT_EQ(client.complete_task(complete).status, Status::kNotFound);

  // Cancel an id that never existed.
  TaskOpRequest cancel;
  cancel.tenant = "tenant-1";
  cancel.id = 424242;
  EXPECT_EQ(client.cancel_task(cancel).status, Status::kNotFound);
}

TEST(NetE2eTest, ErrorTaxonomyIsVisibleOverTheWire) {
  Server server("net_taxonomy", 1);
  BlockingClient client = server.connect();

  // Malformed task → kRejectedInvalid, and the connection survives.
  AdmitRequest malformed;
  malformed.tenant = "t";
  malformed.task = Task{5.0, 1.0, 1.0};  // deadline before release
  EXPECT_EQ(client.admit(malformed).status, Status::kRejectedInvalid);

  // Infeasible-but-well-formed on a finite platform → kRejectedInfeasible.
  // (f_max is infinite here, so exercise the quote path's split instead.)
  QuoteRequest bad_quote;
  bad_quote.tenant = "t";
  bad_quote.task = Task{0.0, 10.0, -1.0};
  EXPECT_EQ(client.quote(bad_quote).status, Status::kRejectedInvalid);

  // Brownout level 3 sheds a low-laxity arrival as kShedBrownout — a
  // *retryable* status, not a dropped connection (the bugfix this lane
  // exists to pin).
  server.supervisor.force_brownout_level(3);
  AdmitRequest tight;
  tight.tenant = "t";
  tight.rid = "tight-1";
  tight.task = Task{0.0, 1.05, 1.0};  // slack ratio ~0.05 < shed_slack 0.5
  const AdmitResponse shed = client.admit(tight);
  EXPECT_EQ(shed.status, Status::kShedBrownout);
  EXPECT_TRUE(is_retryable(shed.status));
  EXPECT_EQ(shed.brownout_level, 3);
  server.supervisor.force_brownout_level(0);

  // A crashed shard answers kUnavailable (retryable), then the retry with
  // the SAME rid lands after recovery.
  FaultInjector injector(FaultPlan::parse("seed=1;kill:shard.submit@1;restart_after=2"));
  faults::FaultScope scope(injector);
  AdmitRequest admit;
  admit.tenant = "t";
  admit.rid = "rid-crash";
  admit.task = easy_task(0);
  const AdmitResponse crashed = client.admit(admit);
  EXPECT_EQ(crashed.status, Status::kUnavailable);
  EXPECT_TRUE(is_retryable(crashed.status));

  AdmitResponse recovered;
  for (int attempt = 0; attempt < 16; ++attempt) {
    recovered = client.admit(admit);
    if (recovered.status == Status::kOk) break;
  }
  ASSERT_EQ(recovered.status, Status::kOk);
  EXPECT_TRUE(recovered.admitted);

  // The same rid once more: deduplicated replay of the original id.
  const AdmitResponse replay = client.admit(admit);
  ASSERT_EQ(replay.status, Status::kOk);
  EXPECT_TRUE(replay.deduplicated);
  EXPECT_EQ(replay.id, recovered.id);
}

TEST(NetE2eTest, BadPayloadAndUnknownOpAnswerWithoutClosing) {
  Server server("net_badreq", 1);
  BlockingClient client = server.connect();

  // A structurally valid frame whose payload is not an admit request.
  client.send_raw(encode_frame(Op::kAdmit, false, 7, "garbage"));
  Frame response = client.read_frame();
  EXPECT_EQ(response.correlation, 7u);
  StatusResponse status;
  ASSERT_TRUE(decode_status_response(response.payload, status));
  EXPECT_EQ(status.status, Status::kBadRequest);

  // An op byte that names nothing.
  client.send_raw(encode_frame(static_cast<Op>(42), false, 8, {}));
  response = client.read_frame();
  EXPECT_EQ(response.correlation, 8u);
  ASSERT_TRUE(decode_status_response(response.payload, status));
  EXPECT_EQ(status.status, Status::kUnknownOp);

  // The connection is still serviceable after both.
  AdmitRequest admit;
  admit.tenant = "t";
  admit.task = easy_task(0);
  EXPECT_EQ(client.admit(admit).status, Status::kOk);
}

TEST(NetE2eTest, TornAndCoalescedWritesOverARealSocket) {
  Server server("net_torn", 1);
  BlockingClient client = server.connect();

  AdmitRequest admit;
  admit.tenant = "t";
  admit.rid = "torn-1";
  admit.task = easy_task(0);
  const std::string frame = encode_frame(Op::kAdmit, false, 1, encode_admit_request(admit));

  // Drip the frame one byte at a time; the server must reassemble it.
  for (const char byte : frame) {
    client.send_raw(std::string_view(&byte, 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  AdmitResponse decoded;
  Frame response = client.read_frame();
  ASSERT_TRUE(decode_admit_response(response.payload, decoded));
  EXPECT_EQ(decoded.status, Status::kOk);

  // Two pipelined requests coalesced into one send: two responses come
  // back, matched by correlation id.
  AdmitRequest a = admit;
  a.rid = "co-1";
  a.task = easy_task(1);
  AdmitRequest b = admit;
  b.rid = "co-2";
  b.task = easy_task(2);
  client.send_raw(encode_frame(Op::kAdmit, false, 21, encode_admit_request(a)) +
                  encode_frame(Op::kAdmit, false, 22, encode_admit_request(b)));
  std::vector<std::uint64_t> seen;
  for (int i = 0; i < 2; ++i) {
    response = client.read_frame();
    ASSERT_TRUE(decode_admit_response(response.payload, decoded));
    EXPECT_EQ(decoded.status, Status::kOk);
    seen.push_back(response.correlation);
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{21, 22}));
}

TEST(NetE2eTest, GarbageHeaderClosesTheConnection) {
  Server server("net_garbage", 1);
  BlockingClient client = server.connect();

  client.send_raw(std::string("\xff\xff\xff\xff", 4));
  EXPECT_THROW(client.read_frame(), std::runtime_error);

  // The server carries on; a fresh connection works.
  BlockingClient fresh = server.connect();
  AdmitRequest admit;
  admit.tenant = "t";
  admit.task = easy_task(0);
  EXPECT_EQ(fresh.admit(admit).status, Status::kOk);
  const FrontEndStats stats = server.front_end->stats();
  EXPECT_GE(stats.protocol_errors, 1u);
}

TEST(NetE2eTest, OversizedFrameIsRejectedNotBuffered) {
  Server server("net_oversize", 1);
  BlockingClient client = server.connect();

  Writer header;
  header.u32(kMaxFrameBytes + 1);
  client.send_raw(header.data());
  EXPECT_THROW(client.read_frame(), std::runtime_error);
}

TEST(NetE2eTest, DedupSurvivesReconnect) {
  Server server("net_reconnect", 2);

  AdmitRequest admit;
  admit.tenant = "tenant-9";
  admit.rid = "rid-stable";
  admit.task = easy_task(3);

  std::int64_t original_id = -1;
  {
    BlockingClient client = server.connect();
    const AdmitResponse first = client.admit(admit);
    ASSERT_EQ(first.status, Status::kOk);
    original_id = first.id;
  }  // connection dropped — the client never saw what happened next

  BlockingClient retry = server.connect();
  const AdmitResponse replay = retry.admit(admit);
  ASSERT_EQ(replay.status, Status::kOk);
  EXPECT_TRUE(replay.deduplicated);
  EXPECT_EQ(replay.id, original_id);
  EXPECT_EQ(server.supervisor.committed_total(), 1u);
}

TEST(NetE2eTest, RuntimeSimOverTheWire) {
  Server server("net_sim", 1);
  BlockingClient client = server.connect();

  for (int i = 0; i < 4; ++i) {
    AdmitRequest admit;
    admit.tenant = "t";
    admit.rid = "sim-" + std::to_string(i);
    admit.task = easy_task(i);
    ASSERT_EQ(client.admit(admit).status, Status::kOk);
  }

  RuntimeSimRequest sim;
  sim.tenant = "t";
  sim.policy = 1;  // cycle-conserving
  sim.acet_ratio = 0.5;
  sim.acet_seed = 7;
  const RuntimeSimResponse report = client.runtime_sim(sim);
  ASSERT_EQ(report.status, Status::kOk);
  EXPECT_GT(report.planned_energy, 0.0);
  EXPECT_GT(report.realized_energy, 0.0);
  EXPECT_EQ(report.missed_deadlines, 0u);

  RuntimeSimRequest bad = sim;
  bad.policy = 9;
  EXPECT_EQ(client.runtime_sim(bad).status, Status::kBadRequest);
}

TEST(NetE2eTest, ShutdownOpLatchesTheFlagWithoutKillingTheServer) {
  Server server("net_shutdown", 1);
  BlockingClient client = server.connect();

  EXPECT_FALSE(server.front_end->shutdown_requested());
  EXPECT_EQ(client.shutdown_server().status, Status::kOk);
  EXPECT_TRUE(server.front_end->wait_shutdown_requested(std::chrono::milliseconds(1000)));

  // Shutdown is a request, not a guillotine: in-flight clients still get
  // answers until the owner actually stops the front-end.
  AdmitRequest admit;
  admit.tenant = "t";
  admit.task = easy_task(0);
  EXPECT_EQ(client.admit(admit).status, Status::kOk);
}

// The differential: the same seeded request stream through the network
// front-end and through the supervisor directly must produce *identical*
// decisions — ids, admitted flags, dedup bits, and exact energies.
TEST(NetE2eTest, SeededLoopbackDifferentialMatchesInProcess) {
  constexpr int kRequests = 60;
  constexpr std::uint64_t kSeed = 4242;

  Server server("net_diff_wire", 2);
  Supervisor direct(test_power(), fleet_options("net_diff_direct", 2));
  BlockingClient client = server.connect();

  Rng wire_rng(kSeed);
  Rng direct_rng(kSeed);
  for (int i = 0; i < kRequests; ++i) {
    const std::string tenant = "tenant-" + std::to_string(i % 7);
    const std::string rid = "diff-" + std::to_string(i);

    const double release = wire_rng.uniform(0.0, 6.0);
    const Task task{release, release + wire_rng.uniform(10.0, 20.0),
                    wire_rng.uniform(0.2, 1.5)};
    // Keep the two streams in lockstep.
    const double release2 = direct_rng.uniform(0.0, 6.0);
    const Task task2{release2, release2 + direct_rng.uniform(10.0, 20.0),
                     direct_rng.uniform(0.2, 1.5)};
    ASSERT_EQ(task.release, task2.release);

    AdmitRequest admit;
    admit.tenant = tenant;
    admit.rid = rid;
    admit.task = task;
    const AdmitResponse wire = client.admit(admit);
    const ServiceDecision in_process = direct.submit(tenant, task2, rid);

    ASSERT_EQ(wire.status, admit_status(in_process, task2)) << "request " << i;
    EXPECT_EQ(wire.admitted, in_process.admission.admitted) << "request " << i;
    EXPECT_EQ(wire.id, in_process.id) << "request " << i;
    EXPECT_EQ(wire.deduplicated, in_process.deduplicated) << "request " << i;
    EXPECT_EQ(wire.energy_before, in_process.admission.energy_before) << "request " << i;
    EXPECT_EQ(wire.energy_after, in_process.admission.energy_after) << "request " << i;
    EXPECT_EQ(wire.marginal_energy, in_process.admission.marginal_energy) << "request " << i;
  }

  ASSERT_EQ(server.supervisor.committed_total(), direct.committed_total());
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(server.supervisor.shard(k).committed_ids(), direct.shard(k).committed_ids());
    EXPECT_EQ(server.supervisor.shard(k).current_energy(), direct.shard(k).current_energy());
  }
}

// No lost acks under kill/restart chaos, audited server-side: every admit
// the wire acked must still be committed once the fleet is fully up.
TEST(NetE2eTest, NoAckedAdmitIsLostUnderKillRestartChaos) {
  Server server("net_chaos", 2);
  FaultInjector injector(
      FaultPlan::parse("seed=5;kill:shard0.submit@20;restart_after=3;"
                       "kill:shard1.submit@35;restart_after=2"));
  faults::FaultScope scope(injector);

  BlockingClient client = server.connect();
  int acked = 0;
  for (int i = 0; i < 120; ++i) {
    AdmitRequest admit;
    admit.tenant = "tenant-" + std::to_string(i % 11);
    admit.rid = "chaos-" + std::to_string(i);
    admit.task = easy_task(i % 40);
    AdmitResponse response;
    for (int attempt = 0; attempt < 32; ++attempt) {
      response = client.admit(admit);
      if (!is_retryable(response.status)) break;
    }
    ASSERT_EQ(response.status, Status::kOk) << "request " << i << ": " << response.reason;
    ++acked;
  }

  // Recovery sweep: every shard up before the audit.
  for (int sweep = 0; sweep < 64; ++sweep) {
    server.supervisor.check_watchdogs();
    if (server.supervisor.stats().shards_up == 2) break;
  }
  ASSERT_EQ(server.supervisor.stats().shards_up, 2u);

  EXPECT_EQ(server.front_end->acked_admits(), static_cast<std::size_t>(acked));
  EXPECT_EQ(server.front_end->audit_lost_acks(), 0u);
  EXPECT_GE(server.supervisor.stats().crashes_contained, 1u);
}

TEST(NetE2eTest, RidsTheJournalCannotStoreAreRejectedInvalid) {
  // Same rule as in process, seen through the wire: single and batched
  // admits answer non-retryable kRejectedInvalid with a reason, nothing is
  // committed or journaled, and the earlier ack survives a restart.
  const SupervisorOptions options = fleet_options("net_bad_rid", 1);
  const std::string wal = options.data_dir + "/shard0.wal";
  AdmitRequest good;
  good.tenant = "t";
  good.rid = "good-rid";
  good.task = easy_task(0);
  std::int64_t acked = -1;
  for (const bool restarted : {false, true}) {
    SCOPED_TRACE(restarted ? "after restart" : "first incarnation");
    Supervisor supervisor(test_power(), options);
    FrontEnd front_end(supervisor, FrontEndOptions{});
    front_end.start();
    BlockingClient client;
    client.connect("127.0.0.1", front_end.port());

    const AdmitResponse ok = client.admit(good);
    ASSERT_EQ(ok.status, Status::kOk);
    EXPECT_EQ(ok.deduplicated, restarted);
    if (!restarted) acked = ok.id;
    EXPECT_EQ(ok.id, acked);

    const auto wal_bytes = std::filesystem::file_size(wal);
    for (const std::string rid : {"has space", "has\nnewline"}) {
      AdmitRequest bad = good;
      bad.rid = rid;
      bad.task = easy_task(1);
      const AdmitResponse single = client.admit(bad);
      EXPECT_EQ(single.status, Status::kRejectedInvalid);
      EXPECT_FALSE(is_retryable(single.status));
      EXPECT_FALSE(single.admitted);
      EXPECT_FALSE(single.reason.empty());

      AdmitBatchRequest batch;
      batch.items.push_back({"t", rid, easy_task(2)});
      const AdmitBatchResponse batched = client.admit_batch(batch);
      ASSERT_EQ(batched.status, Status::kOk);
      ASSERT_EQ(batched.items.size(), 1u);
      EXPECT_EQ(batched.items[0].status, Status::kRejectedInvalid);
      EXPECT_FALSE(batched.items[0].reason.empty());
    }
    EXPECT_EQ(supervisor.committed_total(), 1u);
    EXPECT_EQ(std::filesystem::file_size(wal), wal_bytes);  // nothing journaled
    EXPECT_EQ(front_end.audit_lost_acks(), 0u);
    client.close();
    front_end.stop();
  }
}

TEST(NetE2eTest, TaskOpIdsOutsideTheTaskIdRangeNameNoTask) {
  // The wire id is an int64; narrowing 2^32 to a TaskId would name task 0.
  Server server("net_task_op_range", 1);
  BlockingClient client = server.connect();
  AdmitRequest admit;
  admit.tenant = "t";
  admit.rid = "range-0";
  admit.task = easy_task(0);
  const AdmitResponse first = client.admit(admit);
  ASSERT_EQ(first.status, Status::kOk);
  ASSERT_EQ(first.id, 0);

  for (const std::int64_t id : {std::int64_t{1} << 32, (std::int64_t{1} << 32) + 1,
                                std::int64_t{-1}, std::numeric_limits<std::int64_t>::min()}) {
    TaskOpRequest op;
    op.tenant = "t";
    op.id = id;
    EXPECT_EQ(client.complete_task(op).status, Status::kNotFound) << id;
    EXPECT_EQ(client.cancel_task(op).status, Status::kNotFound) << id;
  }
  EXPECT_EQ(server.supervisor.shard(0).committed_ids(), (std::vector<TaskId>{0}));
}

TEST(NetE2eTest, AuditRetiresTasksCompletedOverTheWire) {
  Server server("net_audit_retire", 2);
  BlockingClient client = server.connect();
  std::vector<AdmitRequest> admits;
  std::vector<std::int64_t> ids;
  for (int i = 0; i < 3; ++i) {
    AdmitRequest admit;
    admit.tenant = "tenant-" + std::to_string(i);
    admit.rid = "retire-" + std::to_string(i);
    admit.task = easy_task(i);
    const AdmitResponse response = client.admit(admit);
    ASSERT_EQ(response.status, Status::kOk);
    admits.push_back(admit);
    ids.push_back(response.id);
  }
  TaskOpRequest complete;
  complete.tenant = admits[0].tenant;
  complete.id = ids[0];
  ASSERT_EQ(client.complete_task(complete).status, Status::kOk);
  TaskOpRequest cancel;
  cancel.tenant = admits[1].tenant;
  cancel.id = ids[1];
  ASSERT_EQ(client.cancel_task(cancel).status, Status::kOk);
  EXPECT_EQ(server.front_end->audit_lost_acks(), 0u);

  // A dedup replay of a retired rid re-records its ack; still not lost.
  const AdmitResponse replay = client.admit(admits[0]);
  ASSERT_EQ(replay.status, Status::kOk);
  EXPECT_TRUE(replay.deduplicated);
  EXPECT_EQ(server.front_end->audit_lost_acks(), 0u);

  // A task removed behind the wire's back is still a lost ack.
  ASSERT_EQ(server.supervisor.complete(admits[2].tenant, static_cast<TaskId>(ids[2])),
            std::optional<bool>(true));
  EXPECT_EQ(server.front_end->audit_lost_acks(), 1u);
}

TEST(NetE2eTest, DedupReplaysOfTasksFinishedBeforeARestartAreNotLostAcks) {
  // The first incarnation admits and completes a task; after a restart on
  // the same data dir, a client's dedup replay of that rid acks finished
  // work, which the new ledger must not expect to find committed.
  const SupervisorOptions options = fleet_options("net_audit_restart", 1);
  AdmitRequest admit;
  admit.tenant = "t";
  admit.rid = "finished-0";
  admit.task = easy_task(0);
  for (const bool restarted : {false, true}) {
    SCOPED_TRACE(restarted ? "after restart" : "first incarnation");
    Supervisor supervisor(test_power(), options);
    FrontEnd front_end(supervisor, FrontEndOptions{});
    front_end.start();
    BlockingClient client;
    client.connect("127.0.0.1", front_end.port());
    const AdmitResponse ack = client.admit(admit);
    ASSERT_EQ(ack.status, Status::kOk);
    EXPECT_EQ(ack.deduplicated, restarted);
    if (!restarted) {
      TaskOpRequest complete;
      complete.tenant = admit.tenant;
      complete.id = ack.id;
      ASSERT_EQ(client.complete_task(complete).status, Status::kOk);
    }
    EXPECT_EQ(supervisor.committed_total(), 0u);
    EXPECT_EQ(front_end.audit_lost_acks(), 0u);
    client.close();
    front_end.stop();
  }
}

}  // namespace
}  // namespace easched::net
