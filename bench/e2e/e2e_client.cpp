// e2e_client — the wire driver of the admission-service benchmark.
//
//   e2e_client --port P --workload dense_live --seed 1 --state S --phase warmup
//   e2e_client --port P --workload dense_live --seed 1 --state S --phase measure
//              --segment 1 --open-s 2.8 --closed-s 1.2
//   e2e_client --port P --workload dense_live --seed 1 --state S --phase audit
//
// run.py calls it once per phase, and SIGKILLs and restarts the server
// between the warmup and the first segment; the state file carries the
// stream position, every acked admit and the tasks still held from one
// invocation to the next.
//
//   warmup   the workload's op mix back to back over a fixed number of
//            arrivals, which fills the live set and replaces it once;
//   measure  one segment: the open-loop phase at the workload's fixed rate,
//            then the closed-loop phase on the same connections;
//   audit    re-submits a seeded sample of acked rids drawn from the warmup
//            and every segment, so from both sides of the restart; then, on
//            workloads that send no quotes, quotes fresh arrivals.
//
// Each invocation prints one JSON line. Open-loop requests are timed from
// their scheduled send time, so a stall also counts against every request
// queued behind it. Threads take the next due job from a shared schedule,
// so lateness only builds up when every connection is busy.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "easched/common/cli.hpp"
#include "easched/common/rng.hpp"
#include "easched/net/client.hpp"
#include "easched/net/pipelined_client.hpp"
#include "workload.hpp"

namespace {

using namespace easched;
using Clock = std::chrono::steady_clock;
using e2e::Arrival;
using e2e::Job;
using e2e::Shape;
using e2e::State;
using e2e::Workload;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

Clock::time_point at_offset(Clock::time_point start, double offset_s) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(offset_s));
}

/// An acked task a connection holds until it retires it.
struct Held {
  std::uint64_t index = 0;
  std::int64_t id = -1;
  std::string tenant;
};

/// Per-thread results of one phase.
struct Tally {
  std::vector<double> admit_s;  ///< admit latencies (open loop only)
  std::vector<double> quote_s;  ///< quote latencies (open loop only)
  std::uint64_t attempted = 0;  ///< requests sent (admits count per task)
  std::uint64_t failed = 0;     ///< requests answered with anything but success
  std::uint64_t admits = 0;     ///< acked admits
  std::uint64_t sent_arrivals = 0;
  std::uint64_t late = 0;       ///< arrivals sent more than kLateThreshold behind schedule
  double energy = 0.0;          ///< sum of acked marginal energies
  double work = 0.0;            ///< sum of acked tasks' work
  double last_send_s = 0.0;     ///< latest send, seconds from the phase start
  std::vector<std::pair<std::uint64_t, std::int64_t>> acks;  ///< (arrival, task id)
  std::string error;            ///< transport failure that ended the thread

  void merge(const Tally& other) {
    admit_s.insert(admit_s.end(), other.admit_s.begin(), other.admit_s.end());
    quote_s.insert(quote_s.end(), other.quote_s.begin(), other.quote_s.end());
    attempted += other.attempted;
    failed += other.failed;
    admits += other.admits;
    sent_arrivals += other.sent_arrivals;
    late += other.late;
    energy += other.energy;
    work += other.work;
    last_send_s = std::max(last_send_s, other.last_send_s);
    acks.insert(acks.end(), other.acks.begin(), other.acks.end());
    if (error.empty()) error = other.error;
  }
};

/// Hands jobs to the client threads: the precomputed open-loop schedule, or
/// the stream continued back to back (closed loop) until an arrival count or
/// a deadline.
class Dispatcher {
 public:
  /// Open loop over a fixed schedule.
  explicit Dispatcher(std::vector<Job> jobs) : open_(true), jobs_(std::move(jobs)) {}

  /// Closed loop from arrival `first`, up to `end` (exclusive; 0 = no
  /// limit) or until `deadline`.
  Dispatcher(const Workload& workload, std::uint64_t seed, std::uint64_t first,
             std::uint64_t end, std::optional<Clock::time_point> deadline)
      : open_(false),
        burst_(workload.shape == Shape::kBurstBatch),
        seed_(seed),
        phase_first_(first),
        next_arrival_(first),
        end_(end),
        deadline_(deadline) {}

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  bool open() const { return open_; }

  std::optional<Job> next() {
    std::lock_guard lock(mutex_);
    if (open_) {
      if (next_job_ >= jobs_.size()) return std::nullopt;
      return jobs_[next_job_++];
    }
    if (end_ != 0 && next_arrival_ >= end_) return std::nullopt;
    if (deadline_ && Clock::now() >= *deadline_) return std::nullopt;
    Job job;
    job.first = next_arrival_;
    job.count = burst_ ? e2e::clump_size(seed_, phase_first_, next_job_++) : 1;
    if (end_ != 0) job.count = std::min(job.count, end_ - next_arrival_);
    next_arrival_ += job.count;
    return job;
  }

  /// When the next open-loop job is due (offset of its last arrival from
  /// the phase start); nullopt once the schedule is handed out.
  std::optional<double> next_due_s() const {
    std::lock_guard lock(mutex_);
    if (!open_ || next_job_ >= jobs_.size()) return std::nullopt;
    return jobs_[next_job_].due_s.back();
  }

  /// First arrival not handed out (closed loop).
  std::uint64_t next_arrival() const {
    std::lock_guard lock(mutex_);
    return next_arrival_;
  }

 private:
  const bool open_;
  const bool burst_ = false;
  const std::uint64_t seed_ = 0;
  const std::uint64_t phase_first_ = 0;
  mutable std::mutex mutex_;
  std::vector<Job> jobs_;
  std::size_t next_job_ = 0;
  std::uint64_t next_arrival_ = 0;
  const std::uint64_t end_ = 0;
  const std::optional<Clock::time_point> deadline_;
};

bool admit_ok(const net::AdmitResponse& r) {
  return r.status == net::Status::kOk && r.admitted && !r.deduplicated && r.id >= 0 &&
         std::isfinite(r.marginal_energy);
}

/// One client thread's connections and the tasks it holds. Kept across the
/// open- and closed-loop phases.
class Connection {
 public:
  Connection(const Workload& workload, std::uint64_t seed, std::uint16_t port, std::size_t share)
      : workload_(workload), seed_(seed), share_(share) {
    blocking_.connect("127.0.0.1", port);
    if (workload.shape == Shape::kBurstBatch) {
      pipelined_ = std::make_unique<net::PipelinedClient>(e2e::kPipelineWindow);
      pipelined_->connect("127.0.0.1", port);
    }
  }

  std::deque<Held>& held() { return held_; }

  /// Count marginal energy only for arrivals from `index` on.
  void count_energy_from(std::uint64_t index) { energy_from_ = index; }

  /// Run one phase; transport failures end the thread with `tally.error`.
  void run(Dispatcher& dispatcher, Clock::time_point start, Tally& tally) {
    try {
      if (workload_.shape == Shape::kBurstBatch) {
        run_batches(dispatcher, start, tally);
      } else {
        run_singles(dispatcher, start, tally);
      }
    } catch (const std::exception& e) {
      tally.error = e.what();
    }
  }

 private:
  /// Wait for a job's send time, its last arrival's due time (open loop),
  /// and count late arrivals. Returns the instant each arrival's latency is
  /// measured from.
  std::vector<Clock::time_point> wait_due(const Job& job, bool open, Clock::time_point start,
                                          Tally& tally) {
    std::vector<Clock::time_point> due(job.count, Clock::time_point{});
    if (!open) {
      due.assign(job.count, Clock::now());
    } else {
      for (std::uint64_t j = 0; j < job.count; ++j) due[j] = at_offset(start, job.due_s[j]);
      if (Clock::now() < due.back()) std::this_thread::sleep_until(due.back());
      const auto now = Clock::now();
      if (now - due.back() > e2e::kLateThreshold) tally.late += job.count;
      tally.last_send_s = std::max(tally.last_send_s, seconds_between(start, now));
    }
    tally.sent_arrivals += job.count;
    return due;
  }

  /// Quote an arrival; returns the answer's arrival time.
  Clock::time_point quote(const Arrival& a, Clock::time_point from, bool open, Tally& tally) {
    ++tally.attempted;
    const net::QuoteResponse q = blocking_.quote({a.tenant, a.task});
    const auto now = Clock::now();
    if (q.status != net::Status::kOk || !q.admitted) ++tally.failed;
    if (open) tally.quote_s.push_back(seconds_between(from, now));
    return now;
  }

  void record_admit(const Arrival& a, const net::AdmitResponse& r, Clock::time_point from,
                    Clock::time_point now, bool open, Tally& tally) {
    if (!admit_ok(r)) {
      ++tally.failed;
      return;
    }
    ++tally.admits;
    if (a.index >= energy_from_) {
      tally.energy += r.marginal_energy;
      tally.work += a.task.work;
    }
    tally.acks.emplace_back(a.index, r.id);
    if (open) tally.admit_s.push_back(seconds_between(from, now));
    held_.push_back({a.index, r.id, a.tenant});
  }

  /// Complete the oldest held tasks until the thread holds at most `keep`.
  void retire(Tally& tally, std::size_t keep) {
    while (held_.size() > keep) {
      const Held& oldest = held_.front();
      ++tally.attempted;
      const net::StatusResponse r = blocking_.complete_task({oldest.tenant, oldest.id});
      if (r.status != net::Status::kOk) ++tally.failed;
      held_.pop_front();
    }
  }

  void run_singles(Dispatcher& dispatcher, Clock::time_point start, Tally& tally) {
    const bool open = dispatcher.open();
    while (const std::optional<Job> job = dispatcher.next()) {
      const Arrival a = e2e::make_arrival(workload_, seed_, job->first);
      Clock::time_point from = wait_due(*job, open, start, tally).front();
      if (a.quote) from = quote(a, from, open, tally);
      if (!a.admit) continue;
      ++tally.attempted;
      const net::AdmitResponse r = blocking_.admit({a.tenant, a.rid, a.task, 0});
      record_admit(a, r, from, Clock::now(), open, tally);
      retire(tally, share_);
    }
  }

  struct InFlight {
    std::vector<Arrival> arrivals;
    std::vector<Clock::time_point> due;
    std::future<net::AdmitBatchResponse> response;
  };

  void harvest(InFlight& frame, bool open, Tally& tally) {
    const net::AdmitBatchResponse response = frame.response.get();
    const auto now = Clock::now();
    if (response.status != net::Status::kOk ||
        response.items.size() != frame.arrivals.size()) {
      tally.failed += frame.arrivals.size();
      return;
    }
    for (std::size_t j = 0; j < frame.arrivals.size(); ++j) {
      record_admit(frame.arrivals[j], response.items[j], frame.due[j], now, open, tally);
    }
  }

  void run_batches(Dispatcher& dispatcher, Clock::time_point start, Tally& tally) {
    const bool open = dispatcher.open();
    std::deque<InFlight> in_flight;
    // Harvest every answer that is in by `until`, oldest frame first.
    const auto harvest_until = [&](Clock::time_point until) {
      while (!in_flight.empty() &&
             in_flight.front().response.wait_until(until) == std::future_status::ready) {
        harvest(in_flight.front(), open, tally);
        in_flight.pop_front();
      }
    };

    while (true) {
      if (open) {
        // Take answers as they come until the next clump is due. Once every
        // frame is answered, bulk-complete down to the target before taking
        // a clump, so that a clump falling due meanwhile goes to the other
        // thread. The completions never overlap an unanswered frame, so they
        // cannot inflate a measured latency; a send they delay counts as late.
        if (const auto due = dispatcher.next_due_s()) harvest_until(at_offset(start, *due));
        if (in_flight.empty()) retire(tally, share_);
      }
      const std::optional<Job> job = dispatcher.next();
      if (!job) break;
      if (open) harvest_until(at_offset(start, job->due_s.back()));
      InFlight frame;
      frame.due = wait_due(*job, open, start, tally);
      net::AdmitBatchRequest request;
      for (std::uint64_t j = 0; j < job->count; ++j) {
        frame.arrivals.push_back(e2e::make_arrival(workload_, seed_, job->first + j));
        const Arrival& a = frame.arrivals.back();
        request.items.push_back({a.tenant, a.rid, a.task});
      }
      tally.attempted += job->count;
      frame.response = pipelined_->admit_batch(request);
      in_flight.push_back(std::move(frame));
      harvest_until(Clock::now());
      if (!open) retire(tally, share_);
    }
    for (; !in_flight.empty(); in_flight.pop_front()) harvest(in_flight.front(), open, tally);
    retire(tally, share_);
  }

  const Workload& workload_;
  const std::uint64_t seed_;
  const std::size_t share_;
  std::uint64_t energy_from_ = 0;
  net::BlockingClient blocking_;
  std::unique_ptr<net::PipelinedClient> pipelined_;
  std::deque<Held> held_;
};

/// Run one phase on every connection; returns the merged tally and the
/// phase's wall time.
std::pair<Tally, double> run_phase(std::vector<std::unique_ptr<Connection>>& connections,
                                   Dispatcher& dispatcher) {
  std::vector<Tally> tallies(connections.size());
  const auto start = Clock::now();
  // The calling thread drives the first connection, so the process never
  // runs more threads than the workload has connection threads.
  std::vector<std::thread> threads;
  for (std::size_t t = 1; t < connections.size(); ++t) {
    threads.emplace_back([&, t] { connections[t]->run(dispatcher, start, tallies[t]); });
  }
  connections[0]->run(dispatcher, start, tallies[0]);
  for (std::thread& thread : threads) thread.join();
  const double wall = seconds_between(start, Clock::now());
  Tally total;
  for (const Tally& tally : tallies) total.merge(tally);
  return {std::move(total), wall};
}

std::vector<std::unique_ptr<Connection>> connect_all(const Workload& workload, std::uint64_t seed,
                                                     std::uint16_t port, const State& state) {
  std::vector<std::unique_ptr<Connection>> connections;
  const std::size_t share = workload.live_target / workload.threads;
  for (std::size_t t = 0; t < workload.threads; ++t) {
    connections.push_back(std::make_unique<Connection>(workload, seed, port, share));
  }
  // Deal the held tasks back out, oldest first.
  for (std::size_t i = 0; i < state.held.size(); ++i) {
    const auto& [index, id] = state.held[i];
    connections[i % connections.size()]->held().push_back(
        {index, id, e2e::make_arrival(workload, seed, index).tenant});
  }
  return connections;
}

/// Fold a phase's acks and the connections' held tasks into the state.
void update_state(State& state, const Tally& tally, int segment, std::uint64_t next,
                  const std::vector<std::unique_ptr<Connection>>& connections) {
  for (const auto& [index, id] : tally.acks) state.acks.push_back({index, id, segment});
  state.held.clear();
  for (const auto& connection : connections) {
    for (const Held& h : connection->held()) state.held.emplace_back(h.index, h.id);
  }
  std::sort(state.held.begin(), state.held.end());
  state.next = next;
}

/// The line every phase ends with; `probe_*` is a task at the current
/// release clock for run.py's restart probes.
e2e::JsonLine result_line(std::string_view phase, const State& state, const Tally& tally) {
  const double probe_release = static_cast<double>(state.next) * e2e::kClockStep + 2.5;
  e2e::JsonLine line;
  line.str("phase", phase)
      .str("build_type", E2E_BUILD_TYPE)
      .num("next_arrival", static_cast<double>(state.next))
      .num("probe_release", probe_release)
      .num("probe_deadline", probe_release + 15.0)
      .num("probe_work", 0.85)
      .num("attempted", static_cast<double>(tally.attempted))
      .num("failed", static_cast<double>(tally.failed))
      .str("error", tally.error);
  return line;
}

int run_warmup(const Workload& workload, std::uint64_t seed, std::uint16_t port,
               const std::string& state_path) {
  State state;
  auto connections = connect_all(workload, seed, port, state);
  const std::uint64_t end = e2e::warmup_arrivals(workload, seed);
  Dispatcher dispatcher(workload, seed, 0, end, std::nullopt);
  const auto [tally, wall] = run_phase(connections, dispatcher);
  update_state(state, tally, 0, end, connections);
  e2e::write_state(state_path, state);
  e2e::JsonLine line = result_line("warmup", state, tally);
  line.num("admits", static_cast<double>(tally.admits))
      .num("energy", tally.energy)
      .num("work", tally.work)
      .num("wall_s", wall);
  std::cout << line.text() << std::endl;
  return tally.error.empty() ? 0 : 1;
}

/// A restarted server seeds its plan cache with the snapshot's plan under
/// the signature of the set it recovered, which the journal may have moved
/// on from (see README.md), so the first admission on each shard after a
/// restart can report a stale energy baseline. Energy is counted from this
/// many arrivals into each segment (the first one follows run.py's restart),
/// by when both shards have been touched.
constexpr std::uint64_t kSettleArrivals = 32;

/// One measured segment: the open-loop phase at the workload's rate, then
/// the closed-loop phase on the same connections.
int run_measure(const Workload& workload, std::uint64_t seed, std::uint16_t port,
                const std::string& state_path, int segment, double open_s, double closed_s) {
  State state = e2e::read_state(state_path);
  // The schedule exists before any socket opens.
  std::vector<Job> schedule = e2e::open_schedule(workload, seed, state.next, open_s);
  const std::uint64_t closed_first = schedule.back().first + schedule.back().count;
  const std::uint64_t scheduled_arrivals = closed_first - state.next;
  const double scheduled_span = schedule.back().due_s.back();

  auto connections = connect_all(workload, seed, port, state);
  for (auto& connection : connections) connection->count_energy_from(state.next + kSettleArrivals);
  Dispatcher open_dispatcher(std::move(schedule));
  auto [open, open_wall] = run_phase(connections, open_dispatcher);
  Dispatcher closed_dispatcher(workload, seed, closed_first, 0,
                               Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                                  std::chrono::duration<double>(closed_s)));
  auto [closed, closed_wall] = run_phase(connections, closed_dispatcher);

  Tally measured = open;
  measured.merge(closed);
  update_state(state, measured, segment, closed_dispatcher.next_arrival(), connections);
  e2e::write_state(state_path, state);

  const double scheduled_rate = static_cast<double>(scheduled_arrivals) / scheduled_span;
  const double achieved_rate =
      static_cast<double>(open.sent_arrivals) / std::max(open.last_send_s, 1e-9);
  e2e::JsonLine line = result_line("measure", state, measured);
  line.num("admit_p50_ms", 1e3 * e2e::percentile(open.admit_s, 50))
      .num("admit_p90_ms", 1e3 * e2e::percentile(open.admit_s, 90))
      .num("admit_p99_ms", 1e3 * e2e::percentile(open.admit_s, 99))
      .num("quote_p50_ms", 1e3 * e2e::percentile(open.quote_s, 50))
      .num("quote_p90_ms", 1e3 * e2e::percentile(open.quote_s, 90))
      .num("tput_admits_s", static_cast<double>(closed.admits) / closed_wall)
      .num("energy", measured.energy)
      .num("work", measured.work)
      .num("open_admits", static_cast<double>(open.admits))
      .num("quotes", static_cast<double>(open.quote_s.size()))
      .num("scheduled", static_cast<double>(scheduled_arrivals))
      .num("late", static_cast<double>(open.late))
      .num("offered_rate_err", std::abs(achieved_rate / scheduled_rate - 1.0))
      .num("open_wall_s", open_wall)
      .num("closed_wall_s", closed_wall);
  std::cout << line.text() << std::endl;
  return measured.error.empty() ? 0 : 1;
}

/// Re-submit kAuditRids acked rids drawn evenly from the warmup and every
/// segment, so from both sides of the server restart. Each must come back
/// ok, deduplicated, with its original id. Workloads that send no quotes of
/// their own then quote kProbeQuotes fresh arrivals back to back (never
/// admitted), so that every workload reports the read path's latency.
int run_audit(const Workload& workload, std::uint64_t seed, std::uint16_t port,
              const std::string& state_path) {
  constexpr std::size_t count = e2e::kAuditRids;
  const State state = e2e::read_state(state_path);
  std::vector<std::vector<std::pair<std::uint64_t, std::int64_t>>> by_segment;
  for (const State::Ack& ack : state.acks) {
    const auto segment = static_cast<std::size_t>(std::max(0, ack.segment));
    if (by_segment.size() <= segment) by_segment.resize(segment + 1);
    by_segment[segment].emplace_back(ack.index, ack.id);
  }
  Rng rng(Rng::seed_of("e2e-audit", seed));
  std::vector<std::pair<std::uint64_t, std::int64_t>> sample;
  for (std::size_t k = 0; k < by_segment.size(); ++k) {
    auto& pool = by_segment[k];
    const std::size_t share =
        count / by_segment.size() + (k < count % by_segment.size() ? 1 : 0);
    const std::size_t take = std::min(pool.size(), share);
    for (std::size_t i = 0; i < take; ++i) {
      std::swap(pool[i], pool[i + rng.uniform_index(pool.size() - i)]);
      sample.push_back(pool[i]);
    }
  }
  if (sample.size() < count) {
    throw std::runtime_error("audit: only " + std::to_string(sample.size()) +
                             " acked rids to sample");
  }

  Tally tally;
  net::BlockingClient client;
  client.connect("127.0.0.1", port);
  for (const auto& [index, id] : sample) {
    const Arrival a = e2e::make_arrival(workload, seed, index);
    ++tally.attempted;
    const net::AdmitResponse r = client.admit({a.tenant, a.rid, a.task, 0});
    if (r.status != net::Status::kOk || !r.deduplicated || r.id != id) {
      std::cerr << "audit: rid " << a.rid << " acked id " << id << " replayed as "
                << net::status_name(r.status) << " id " << r.id << " dedup=" << r.deduplicated
                << "\n";
      ++tally.failed;
    }
  }
  const std::uint64_t audit_failed = tally.failed;
  if (workload.shape != Shape::kQuoteAdmit) {
    for (std::uint64_t k = 0; k < e2e::kProbeQuotes; ++k) {
      const Arrival a = e2e::make_arrival(workload, seed, state.next + k);
      ++tally.attempted;
      const auto sent = Clock::now();
      const net::QuoteResponse q = client.quote({a.tenant, a.task});
      tally.quote_s.push_back(seconds_between(sent, Clock::now()));
      if (q.status != net::Status::kOk || !q.admitted) ++tally.failed;
    }
  }
  e2e::JsonLine line = result_line("audit", state, tally);
  line.num("audit_checked", static_cast<double>(sample.size()))
      .num("audit_failed", static_cast<double>(audit_failed))
      .num("segments", static_cast<double>(by_segment.size()))
      .num("quote_p50_ms", 1e3 * e2e::percentile(tally.quote_s, 50))
      .num("quote_p90_ms", 1e3 * e2e::percentile(tally.quote_s, 90));
  std::cout << line.text() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser args("e2e_client", "wire driver of the admission-service benchmark");
  args.add_option("port", "0", "server port (required)");
  args.add_option("workload", "", "workload name (required)");
  args.add_option("seed", "1", "workload seed");
  args.add_option("phase", "", "warmup | measure | audit");
  args.add_option("state", "", "state file the phases hand on (required)");
  args.add_option("segment", "1", "measure: segment number (from 1; 0 is the warmup)");
  args.add_option("open-s", "3", "measure: open-loop phase length in seconds");
  args.add_option("closed-s", "1", "measure: closed-loop phase length in seconds");
  if (!args.parse(argc, argv)) {
    std::cerr << args.error() << "\n\n" << args.help();
    return 2;
  }
  const Workload* workload = e2e::find_workload(args.get("workload"));
  const auto port = static_cast<std::uint16_t>(args.get_int("port"));
  const std::string phase = args.get("phase");
  const std::string state = args.get("state");
  if (workload == nullptr || port == 0 || state.empty() ||
      (phase != "warmup" && phase != "measure" && phase != "audit")) {
    std::cerr << args.help();
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  try {
    if (phase == "warmup") return run_warmup(*workload, seed, port, state);
    if (phase == "audit") return run_audit(*workload, seed, port, state);
    return run_measure(*workload, seed, port, state, args.get_int("segment"),
                       args.get_double("open-s"), args.get_double("closed-s"));
  } catch (const std::exception& e) {
    std::cerr << "e2e_client: " << e.what() << "\n";
    return 1;
  }
}
