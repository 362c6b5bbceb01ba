#pragma once

// The seeded traffic model shared by `e2e_client` (the wire driver) and
// `e2e_layers` (the traced single-thread replay), so both see the identical
// op stream for a given (workload, seed).
//
// Every workload draws its tasks from one global release clock: arrival i is
// released at i * kClockStep + U[0,5), with a window of U[10,20) and work
// of U[0.2,1.5), each stratified (see kStrataBlock). The step keeps about 30 tasks overlapping per shard of a
// 2-shard fleet (mean window 15 over a fleet-wide step of 0.25), the
// constant-density regime in which `DeltaPlanner` splices locally. Clients
// complete their oldest acked task once they hold more than their share of
// the live target, so the committed set stays at a fixed size no matter how
// long a run lasts (sporadic arrivals with completions, as in MORA,
// arXiv:0906.0268).

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "easched/tasksys/task.hpp"

namespace e2e {

/// The fleet every workload runs against (`easched_cli serve` flags).
inline constexpr int kShards = 2;
inline constexpr int kCores = 4;
/// Fleet-wide release-clock step between consecutive arrivals.
inline constexpr double kClockStep = 0.25;
/// Arrivals are sampled in blocks of this many consecutive ones. A block
/// takes each of this many tenants (t0, t1, ...) once, and each of this
/// many equal slices of the offset, window and work ranges once, every draw
/// in its own seeded order; routing spreads the tenants over the shards by
/// consistent hash. With independent draws, the work a block sends to each
/// shard varies, and that local density sets the energy of the plans around
/// it: over 8192 dense_live arrivals, the energy per unit of work varied by
/// 0.50% (standard deviation over 24 seeds), and by 0.28% stratified.
inline constexpr std::size_t kStrataBlock = 64;
/// Gap between the arrivals of one burst_batch clump.
inline constexpr double kClumpGapS = 100e-6;
/// Largest clump of burst_batch. A clump of k arrivals is drawn with weight
/// k, so the mean clump is (2 kMaxClump + 1) / 3 = 11 arrivals: then a
/// typical frame's bulk completion removes more than `DeltaOptions::max_ops`
/// = 4 tasks from a shard, which sends its next plan down the from-scratch
/// path. (Uniform sizes, mean 8.5, get there on fewer than half the shard
/// plans.)
inline constexpr std::uint64_t kMaxClump = 16;
inline constexpr double kMeanClump = (2.0 * static_cast<double>(kMaxClump) + 1.0) / 3.0;
/// In-flight frame window of burst_batch's pipelined connections.
inline constexpr std::size_t kPipelineWindow = 4;
/// A request sent more than this behind its scheduled time counts as late.
inline constexpr auto kLateThreshold = std::chrono::milliseconds(1);
/// Acked rids the dedup audit re-submits.
inline constexpr std::size_t kAuditRids = 256;
/// Quotes of fresh arrivals sent after the measured phases on workloads whose
/// traffic carries none (e2e_client's audit phase, e2e_layers' twin).
inline constexpr std::uint64_t kProbeQuotes = 256;

enum class Shape {
  kPerFrame,    ///< one kAdmit frame per arrival, one kComplete per retirement
  kBurstBatch,  ///< clumps of arrivals as one kAdmitBatch frame, bulk completion
  kQuoteAdmit,  ///< every arrival quoted, half of them then admitted
};

struct Workload {
  std::string_view name;
  Shape shape;
  /// Committed tasks the clients hold across the fleet.
  std::size_t live_target;
  /// Client threads (each with its own connection(s)).
  std::size_t threads;
  /// Open-loop offered load in arrivals per second.
  double open_rate;
};

/// The benchmark's workloads, in `BENCHMARK.json` order.
const std::vector<Workload>& workloads();
/// Look a workload up by name; nullptr when unknown.
const Workload* find_workload(std::string_view name);

/// One arrival of the seeded stream. Pure function of (workload, seed, index).
struct Arrival {
  std::uint64_t index = 0;
  std::string tenant;
  std::string rid;
  easched::Task task;
  bool quote = false;  ///< quoted before the admission decision (quote_admit)
  bool admit = true;   ///< admitted (quote_admit's coin; it never depends on an answer)
};

Arrival make_arrival(const Workload& workload, std::uint64_t seed, std::uint64_t index);

/// Arrivals the warmup issues: enough for the admitted ones to fill the
/// live target and then replace it once (at least 512 admits).
std::uint64_t warmup_arrivals(const Workload& workload, std::uint64_t seed);

/// One unit of client work: a single arrival, or a burst_batch clump of
/// `count` consecutive arrivals sent as one frame.
struct Job {
  std::uint64_t first = 0;
  std::uint64_t count = 1;
  /// Offset from the phase start at which each arrival is due (open loop).
  std::vector<double> due_s;
};

/// Size of clump number `clump` of the burst_batch phase that starts at
/// arrival `phase_first` (in [1, kMaxClump], weighted by size).
std::uint64_t clump_size(std::uint64_t seed, std::uint64_t phase_first, std::uint64_t clump);

/// The open-loop schedule of a phase of `duration_s` starting at arrival
/// `first`: Poisson arrivals at the workload's rate (for burst_batch,
/// Poisson clump epochs at rate / mean clump size), rescaled so that the
/// last arrival falls at the end of the phase. Built before any socket
/// opens; the server's speed cannot change it.
std::vector<Job> open_schedule(const Workload& workload, std::uint64_t seed,
                               std::uint64_t first, double duration_s);

/// What the client phases hand on to each other (and e2e_layers reads):
/// the next arrival of the stream, every acked admit with the segment that
/// acked it (0 = warmup, then one per measured segment), and the tasks
/// the client still holds.
struct State {
  struct Ack {
    std::uint64_t index = 0;
    std::int64_t id = -1;
    int segment = 0;
  };
  std::uint64_t next = 0;
  std::vector<Ack> acks;
  std::vector<std::pair<std::uint64_t, std::int64_t>> held;  ///< (arrival, id), sorted
};

/// Text format: "next <arrival>", then one "<arrival> <id> <segment>
/// <held 0|1>" line per acked admit. Both throw on I/O errors.
void write_state(const std::string& path, const State& state);
State read_state(const std::string& path);

/// Exact nearest-rank percentile (p in (0, 100]) of unsorted samples; 0 for
/// an empty set.
double percentile(std::vector<double> samples, double p);

/// A flat JSON object printed on one line, numbers at full precision. The
/// binaries' result lines are read by run.py.
class JsonLine {
 public:
  JsonLine& num(std::string_view key, double value);
  JsonLine& str(std::string_view key, std::string_view value);
  std::string text() const { return "{" + body_ + "}"; }

 private:
  void key(std::string_view key);
  std::string body_;
};

}  // namespace e2e
