#include "workload.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <numeric>
#include <stdexcept>

#include "easched/common/rng.hpp"

namespace e2e {

const std::vector<Workload>& workloads() {
  // Open-loop rates sit at 25-40% of each workload's closed-loop admission
  // rate on a 4-core x86 host (see README.md), far enough below saturation
  // that the backlog stays bounded.
  static const std::vector<Workload> all = {
      {"churn_small", Shape::kPerFrame, 32, 4, 900.0},
      {"dense_live", Shape::kPerFrame, 2048, 4, 120.0},
      {"burst_batch", Shape::kBurstBatch, 512, 2, 350.0},
      {"quote_admit", Shape::kQuoteAdmit, 512, 4, 400.0},
  };
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& workload : workloads()) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

namespace {

/// Generator seed for one element of a seeded stream: each part is added and
/// run through SplitMix64 in turn, so distinct part lists give unrelated
/// seeds. `Rng::seed_of` would not do here: its combine step maps many
/// (seed, index) pairs onto the same value, so that seeds 41 and 42 drew
/// 4032 of their first 4096 arrivals from the same generator states, and
/// ten consecutive seeds gave only two or three different task mixes.
std::uint64_t stream_seed(std::string_view label, std::initializer_list<std::uint64_t> parts) {
  std::uint64_t h = easched::Rng::seed_of(label);
  for (const std::uint64_t part : parts) h = easched::Rng(h + part)();
  return h;
}

enum class Draw : std::uint64_t { kTenant, kOffset, kWindow, kWork };

/// Where arrival `index` falls in a seeded shuffle of its block of
/// kStrataBlock consecutive arrivals, one shuffle per kind of draw.
std::uint64_t stratum(std::uint64_t seed, std::uint64_t index, Draw draw) {
  std::array<std::uint64_t, kStrataBlock> order{};
  std::iota(order.begin(), order.end(), std::uint64_t{0});
  easched::Rng rng(
      stream_seed("e2e-stratum", {seed, index / kStrataBlock, static_cast<std::uint64_t>(draw)}));
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[static_cast<std::size_t>(rng.uniform_index(i + 1))]);
  }
  return order[index % kStrataBlock];
}

}  // namespace

Arrival make_arrival(const Workload& workload, std::uint64_t seed, std::uint64_t index) {
  easched::Rng rng(stream_seed("e2e-arrival", {seed, index}));
  // U[lo, hi) drawn within this arrival's slice of the range: the block's
  // arrivals take each of its kStrataBlock equal slices once.
  const auto draw = [&](Draw kind, double lo, double hi) {
    const double u = (static_cast<double>(stratum(seed, index, kind)) + rng.uniform()) /
                     static_cast<double>(kStrataBlock);
    return lo + (hi - lo) * u;
  };
  Arrival a;
  a.index = index;
  char text[96];
  std::snprintf(text, sizeof(text), "t%llu",
                static_cast<unsigned long long>(stratum(seed, index, Draw::kTenant)));
  a.tenant = text;
  std::snprintf(text, sizeof(text), "%.*s-%llu-%llu", static_cast<int>(workload.name.size()),
                workload.name.data(), static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(index));
  a.rid = text;
  const double release = static_cast<double>(index) * kClockStep + draw(Draw::kOffset, 0.0, 5.0);
  a.task = easched::Task{release, release + draw(Draw::kWindow, 10.0, 20.0),
                         draw(Draw::kWork, 0.2, 1.5)};
  // quote_admit quotes every arrival and admits it on a fair coin.
  a.quote = workload.shape == Shape::kQuoteAdmit;
  a.admit = !a.quote || rng.uniform() < 0.5;
  return a;
}

std::uint64_t warmup_arrivals(const Workload& workload, std::uint64_t seed) {
  const std::size_t admits = std::max<std::size_t>(2 * workload.live_target, 512);
  std::size_t admitted = 0;
  std::uint64_t index = 0;
  while (admitted < admits) {
    if (make_arrival(workload, seed, index).admit) ++admitted;
    ++index;
  }
  return index;
}

std::uint64_t clump_size(std::uint64_t seed, std::uint64_t phase_first, std::uint64_t clump) {
  easched::Rng rng(stream_seed("e2e-clump", {seed, phase_first, clump}));
  std::uint64_t u = rng.uniform_index(kMaxClump * (kMaxClump + 1) / 2);
  std::uint64_t size = 1;
  for (; u >= size; ++size) u -= size;
  return size;
}

std::vector<Job> open_schedule(const Workload& workload, std::uint64_t seed,
                               std::uint64_t first, double duration_s) {
  easched::Rng rng(stream_seed("e2e-open", {seed, first}));
  const bool burst = workload.shape == Shape::kBurstBatch;
  const double mean_clump = burst ? kMeanClump : 1.0;
  const auto epochs = static_cast<std::size_t>(
      std::max(1.0, std::round(workload.open_rate * duration_s / mean_clump)));

  std::vector<double> at;
  at.reserve(epochs);
  double t = 0.0;
  for (std::size_t i = 0; i < epochs; ++i) {
    t += -std::log(1.0 - rng.uniform());
    at.push_back(t);
  }
  // Rescale onto the phase; a clump's tail must also fit inside it.
  const double tail = burst ? kClumpGapS * static_cast<double>(kMaxClump - 1) : 0.0;
  const double scale = std::max(duration_s - tail, 1e-3) / at.back();

  std::vector<Job> jobs(epochs);
  std::uint64_t next = first;
  for (std::size_t k = 0; k < epochs; ++k) {
    Job& job = jobs[k];
    job.first = next;
    job.count = burst ? clump_size(seed, first, k) : 1;
    for (std::uint64_t j = 0; j < job.count; ++j) {
      job.due_s.push_back(at[k] * scale + kClumpGapS * static_cast<double>(j));
    }
    next += job.count;
  }
  return jobs;
}

void write_state(const std::string& path, const State& state) {
  std::ofstream out(path);
  out << "next " << state.next << "\n";
  for (const State::Ack& ack : state.acks) {
    const bool held =
        std::binary_search(state.held.begin(), state.held.end(), std::pair{ack.index, ack.id});
    out << ack.index << " " << ack.id << " " << ack.segment << " " << (held ? 1 : 0) << "\n";
  }
  if (!out) throw std::runtime_error("cannot write state file " + path);
}

State read_state(const std::string& path) {
  std::ifstream in(path);
  std::string tag;
  State state;
  if (!(in >> tag >> state.next) || tag != "next") {
    throw std::runtime_error("cannot read state file " + path);
  }
  State::Ack ack;
  int held = 0;
  while (in >> ack.index >> ack.id >> ack.segment >> held) {
    state.acks.push_back(ack);
    if (held != 0) state.held.emplace_back(ack.index, ack.id);
  }
  std::sort(state.held.begin(), state.held.end());
  return state;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

void JsonLine::key(std::string_view key) {
  if (!body_.empty()) body_ += ",";
  body_ += "\"";
  body_ += key;
  body_ += "\":";
}

JsonLine& JsonLine::num(std::string_view key, double value) {
  this->key(key);
  if (!std::isfinite(value)) {
    body_ += "null";
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  body_ += buf;
  return *this;
}

JsonLine& JsonLine::str(std::string_view key, std::string_view value) {
  this->key(key);
  body_ += "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') body_ += '\\';
    body_ += (c == '\n' ? ' ' : c);
  }
  body_ += "\"";
  return *this;
}

}  // namespace e2e
