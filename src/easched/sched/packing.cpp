#include "easched/sched/packing.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>

#include "easched/common/contracts.hpp"
#include "easched/common/math.hpp"
#include "easched/parallel/exec.hpp"
#include "easched/sched/pipeline.hpp"

namespace easched {

namespace {

/// Algorithm 1 core: validate the items and hand each produced segment to
/// `emit` in order. Every entry point shares this body, so the segment
/// sequence is identical whether it lands in a `Schedule`, a wave buffer
/// or the run fold. `Item` is any type with `task` / `time` / `frequency`
/// members (`PackItem`, `IntermediatePiece`) — the kernel packs its piece
/// lists without a conversion copy.
template <typename Item, typename Emit>
void pack_items(double begin, double end, int cores, std::span<const Item> items, Emit&& emit) {
  EASCHED_EXPECTS(end > begin);
  EASCHED_EXPECTS(cores > 0);
  const double length = end - begin;
  const double tol = 1e-9 * std::max(1.0, length);

  double total = 0.0;
  for (const Item& item : items) {
    EASCHED_EXPECTS(item.time >= 0.0);
    EASCHED_EXPECTS_MSG(leq_tol(item.time, length, tol),
                        "pack item exceeds subinterval length");
    total += item.time;
  }
  EASCHED_EXPECTS_MSG(leq_tol(total, static_cast<double>(cores) * length,
                              tol * static_cast<double>(cores)),
                      "pack items exceed subinterval capacity");

  CoreId core = 0;
  double cursor = begin;  // earliest free time on `core`
  for (const Item& item : items) {
    double remaining = std::min(item.time, length);
    if (remaining <= tol) continue;
    EASCHED_EXPECTS(item.frequency > 0.0);

    if (cursor + remaining > end + tol) {
      // Wrap-around: tail fills the current core to the subinterval end,
      // head restarts at `begin` on the next core. The head ends at
      // begin + (remaining − (end − cursor)) ≤ cursor, so the pieces are
      // disjoint in time.
      const double tail = end - cursor;
      const double head = remaining - tail;
      EASCHED_ASSERT(head <= cursor - begin + tol);
      // Rounding in `begin + head` may land one ulp past the tail's start,
      // momentarily putting the task on two cores; clamp to keep the pieces
      // exactly disjoint.
      const double head_end = std::min(begin + head, cursor);
      if (tail > tol) {
        emit(Segment{item.task, core, cursor, end, item.frequency});
      }
      ++core;
      EASCHED_ASSERT(core < cores || head <= tol);
      if (head > tol) {
        emit(Segment{item.task, core, begin, head_end, item.frequency});
        cursor = head_end;
      } else {
        cursor = begin;
      }
    } else {
      const double stop = std::min(end, cursor + remaining);
      emit(Segment{item.task, core, cursor, stop, item.frequency});
      cursor = stop;
      if (end - cursor <= tol) {
        ++core;
        cursor = begin;
      }
    }
  }
}

constexpr std::size_t kNoRun = std::numeric_limits<std::size_t>::max();

/// A run's target position while the fold orders its output. It travels in
/// the run's own (task, core) bytes, which the position's group gives back
/// afterwards, so ordering needs no index array beside the runs.
std::size_t slot_of(const Segment& s) {
  return static_cast<std::size_t>(static_cast<std::uint32_t>(s.task)) |
         static_cast<std::size_t>(static_cast<std::uint32_t>(s.core)) << 32;
}

void set_slot(Segment& s, std::size_t slot) {
  s.task = static_cast<TaskId>(static_cast<std::uint32_t>(slot));
  s.core = static_cast<CoreId>(static_cast<std::uint32_t>(slot >> 32));
}

/// Move every run in `[lo, hi)` to the position its slot names (the slots
/// there are a permutation of `[lo, hi)`), using no more than one leaf of
/// `scratch`. A large range takes a 256-way bucket pass on the slot's high
/// bits (American flag: bucket `b` owns a contiguous block of positions and
/// fills from its front, so the pass streams through 256 fronts) and
/// recurses into each bucket, which then holds exactly its own slots; a leaf
/// is scattered through the scratch and copied back. On a 4-vCPU VM this
/// orders the 32 million runs of an n = 10000 pack in 1.24-1.36 s, where
/// following cycles in 128 KB leaves took 1.66-1.74 s; one bucket pass with
/// 4 MB leaves took 1.0-1.1 s, but its scratch raised the plan's peak RSS.
void move_to_slots(Segment* runs, std::size_t lo, std::size_t hi, std::vector<Segment>& scratch) {
  constexpr std::size_t kLeaf = 4096;  // 128 KB of runs
  if (hi - lo <= kLeaf) {
    scratch.resize(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) scratch[slot_of(runs[i]) - lo] = runs[i];
    std::copy(scratch.begin(), scratch.end(), runs + lo);
    return;
  }
  const auto shift = static_cast<unsigned>(std::bit_width((hi - lo - 1) >> 8));
  const std::size_t buckets = ((hi - lo - 1) >> shift) + 1;
  std::array<std::size_t, 256> head{};
  for (std::size_t b = 0; b < buckets; ++b) head[b] = lo + (b << shift);
  const auto stop = [&](std::size_t b) { return std::min(hi, lo + ((b + 1) << shift)); };
  for (std::size_t b = 0; b < buckets; ++b) {
    while (head[b] < stop(b)) {
      const std::size_t to = (slot_of(runs[head[b]]) - lo) >> shift;
      if (to == b) {
        ++head[b];
      } else {
        std::swap(runs[head[b]], runs[head[to]++]);
        // Bucket `to` is next touched a few hundred swaps from now: fetch
        // ahead so each front stays a stream instead of a miss per swap.
        __builtin_prefetch(runs + std::min(head[to] + 4, hi - 1), 1);
      }
    }
  }
  for (std::size_t b = 0; b < buckets; ++b) {
    move_to_slots(runs, lo + (b << shift), stop(b), scratch);
  }
}

/// The fold's per-key tables and ordering scratch, one set per thread and
/// kept across calls: the next plan reuses them instead of faulting in
/// fresh pages. A buffer past `kKeptScratch` entries (a plan larger than a
/// service shard's) is returned after its fold, as `Schedule::validate`
/// returns its sort scratch.
struct FoldTables {
  std::vector<std::size_t> last;   ///< per key: index of its open run, or kNoRun
  std::vector<std::size_t> count;  ///< per key: its run count, then its slot cursor
  std::vector<Segment> scatter;    ///< ordering scratch: all runs, or one leaf
};

/// Largest buffer, in entries, a thread keeps after a fold (at most 2 MB).
constexpr std::size_t kKeptScratch = std::size_t{1} << 16;

/// Largest run count ordered by scattering through a second buffer (a copy
/// of at most 32 MB). The scatter is the faster order: on a 4-vCPU VM a
/// whole-horizon pack of 6k runs takes 128 us with it and 292 us moving the
/// runs in place with cycle-following leaves (22k runs: 533 vs 1279 us;
/// 88k runs: 3.2 vs 6.0 ms). Longer lists move in place: at n = 10000 the
/// packs hold ~32 million runs, and a second buffer that size raised the
/// planner's peak RSS from 3.5 to 4.5 GB.
constexpr std::size_t kScatterRuns = std::size_t{1} << 20;

/// Folds segments, fed in Algorithm 1 emission order, into merged runs: a
/// segment extends its (task, core) group's last run when
/// `detail::segments_merge` allows, and opens the group's next run
/// otherwise. Each group's segments arrive in ascending start order, so this
/// is `Schedule::coalesce`'s per-group sort-then-merge, run as they come.
class RunFold {
 public:
  RunFold(int cores, TaskId max_task, std::size_t capacity, double time_tol, double freq_tol)
      : stride_(static_cast<std::size_t>(cores) + 1),
        tables_(tables()),
        time_tol_(time_tol),
        freq_tol_(freq_tol) {
    EASCHED_EXPECTS(max_task >= 0);
    // Algorithm 1 emits cores in [0, cores] (the upper value only through
    // float-tolerance wrap edges), so `cores + 1` strides every key.
    const std::size_t keys = (static_cast<std::size_t>(max_task) + 1) * stride_;
    tables_.last.assign(keys, kNoRun);
    tables_.count.assign(keys, 0);
    runs_.reserve(capacity);
  }

  void operator()(const Segment& s) {
    const std::size_t key = key_of(s);
    std::size_t& last = tables_.last[key];
    if (last != kNoRun && detail::segments_merge(runs_[last], s, time_tol_, freq_tol_)) {
      runs_[last].end = s.end;
      return;
    }
    last = runs_.size();
    ++tables_.count[key];
    runs_.push_back(s);
  }

  /// The runs in ascending (task, core) order, each group's in emission
  /// (= start) order — `coalesce`'s output order.
  std::vector<Segment> take_ordered() {
    std::vector<std::size_t>& cursor = tables_.count;
    std::size_t offset = 0;
    for (std::size_t& c : cursor) offset += std::exchange(c, offset);
    if (runs_.size() <= kScatterRuns) {
      // A stable scatter through the scratch and a copy back: independent
      // stores, where moving runs in place waits on each load in turn.
      std::vector<Segment>& ordered = tables_.scatter;
      ordered.resize(runs_.size());
      for (const Segment& run : runs_) ordered[cursor[key_of(run)]++] = run;
      std::copy(ordered.begin(), ordered.end(), runs_.begin());
    } else {
      for (Segment& run : runs_) set_slot(run, cursor[key_of(run)]++);
      move_to_slots(runs_.data(), 0, runs_.size(), tables_.scatter);
      // Each cursor now ends its group: give the runs their keys back.
      std::size_t p = 0;
      for (std::size_t key = 0; key < cursor.size(); ++key) {
        for (; p < cursor[key]; ++p) {
          runs_[p].task = static_cast<TaskId>(key / stride_);
          runs_[p].core = static_cast<CoreId>(key % stride_);
        }
      }
    }
    release_past_cap(tables_.last);
    release_past_cap(tables_.count);
    release_past_cap(tables_.scatter);
    return std::move(runs_);
  }

 private:
  static FoldTables& tables() {
    thread_local FoldTables tables;
    return tables;
  }

  template <typename T>
  static void release_past_cap(std::vector<T>& buffer) {
    if (buffer.capacity() > kKeptScratch) {
      buffer.clear();
      buffer.shrink_to_fit();
    }
  }

  std::size_t key_of(const Segment& s) const {
    return static_cast<std::size_t>(s.task) * stride_ + static_cast<std::size_t>(s.core);
  }

  std::size_t stride_;
  FoldTables& tables_;
  double time_tol_;
  double freq_tol_;
  std::vector<Segment> runs_;
};

/// Overlap cells per pooled packing wave: a memory bound (about 2 MB of
/// staged segments), not a tuning knob. On a 4-vCPU VM, waves of 2^14,
/// 2^16 and 2^18 cells time the same within noise on a pooled n = 1000
/// pipeline.
constexpr std::size_t kWaveCells = std::size_t{1} << 16;

/// Most staged segments a thread keeps after a pooled pack (8 MB): a few
/// waves' worth, since each chunk buffer grows by doubling.
constexpr std::size_t kKeptWaveSegments = 4 * kWaveCells;

/// Fewest overlap cells a range needs to pack on the pool. On a 4-vCPU VM
/// the pooled pack wins on a pooled n = 1000 pipeline (2 threads: 129.0 vs
/// 146.4 ms, 4 threads: 121.8 vs 137.6 ms, CPU time; faster in 9 of 10
/// alternating pairs each), is level within noise on plans of 6k-88k runs,
/// and loses on a 1.7k-run plan (55-63 vs 31-47 us). A service-sized plan
/// packs on the calling thread.
constexpr std::size_t kPooledPackCells = std::size_t{1} << 18;

/// Pooled packing: subintervals go out in waves of about `kWaveCells`
/// overlap cells. Each wave splits into contiguous chunks that pack on the
/// pool into per-chunk buffers (kept per calling thread across calls, up to
/// `kKeptWaveSegments`), and the buffers then fold serially in subinterval
/// order — the fold sees the serial emission order exactly, and memory
/// stays bounded by one wave.
template <typename Item, typename Source>
void pack_waves(const SubintervalDecomposition& subs, int cores, std::size_t begin,
                std::size_t end, Source& source, const Exec& exec, RunFold& fold) {
  thread_local std::vector<std::vector<Segment>> kept;
  // Named through a reference: inside the pool jobs below, `kept` would be
  // each worker's own instance.
  std::vector<std::vector<Segment>>& buffers = kept;
  const std::size_t chunks = 4 * (exec.pool->thread_count() + 1);
  if (buffers.size() < chunks) buffers.resize(chunks);
  for (std::size_t wave_begin = begin; wave_begin < end;) {
    std::size_t wave_end = wave_begin;
    for (std::size_t cells = 0; wave_end < end && (wave_end == wave_begin || cells < kWaveCells);
         ++wave_end) {
      cells += subs[wave_end].overlapping.size();
    }
    const std::size_t width = wave_end - wave_begin;
    const std::size_t used = std::min(chunks, width);
    exec.loop(used, [&](std::size_t c) {
      std::vector<Segment>& buffer = buffers[c];
      buffer.clear();
      const auto emit = [&](const Segment& s) { buffer.push_back(s); };
      for (std::size_t j = wave_begin + width * c / used; j < wave_begin + width * (c + 1) / used;
           ++j) {
        const std::span<const Item> items = source(j);
        if (!items.empty()) pack_items(subs[j].begin, subs[j].end, cores, items, emit);
      }
    });
    for (std::size_t c = 0; c < used; ++c) {
      for (const Segment& s : buffers[c]) fold(s);
    }
    wave_begin = wave_end;
  }
  std::size_t kept_segments = 0;
  for (const std::vector<Segment>& buffer : buffers) kept_segments += buffer.capacity();
  if (kept_segments > kKeptWaveSegments) {
    buffers.clear();
    buffers.shrink_to_fit();
  }
}

/// The one fused pack + coalesce body behind both public overloads.
/// `capacity` bounds the segment count (one per item plus `cores` per
/// subinterval).
template <typename Item, typename Source>
Schedule pack_fold(const SubintervalDecomposition& subs, int cores, std::size_t begin,
                   std::size_t end, Source&& source, std::size_t capacity, TaskId max_task,
                   const Exec& exec, double time_tol, double freq_tol) {
  EASCHED_EXPECTS(begin <= end && end <= subs.size());
  RunFold fold(cores, max_task, capacity, time_tol, freq_tol);
  if (capacity >= kPooledPackCells && exec.parallel(end - begin)) {
    pack_waves<Item>(subs, cores, begin, end, source, exec, fold);
  } else {
    for (std::size_t j = begin; j < end; ++j) {
      const std::span<const Item> items = source(j);
      if (!items.empty()) pack_items(subs[j].begin, subs[j].end, cores, items, fold);
    }
  }
  return Schedule(cores, fold.take_ordered());
}

}  // namespace

void pack_subinterval(double begin, double end, int cores, std::span<const PackItem> items,
                      Schedule& schedule) {
  pack_items(begin, end, cores, items, [&](const Segment& s) { schedule.add(s); });
}

Schedule pack_subintervals(const SubintervalDecomposition& subs, int cores,
                           const std::vector<std::vector<PackItem>>& items, const Exec& exec) {
  EASCHED_EXPECTS(items.size() == subs.size());
  std::vector<Schedule> fragments(subs.size());
  exec.loop(subs.size(), [&](std::size_t j) {
    if (items[j].empty()) return;
    fragments[j].set_core_count(cores);
    fragments[j].reserve(items[j].size() + static_cast<std::size_t>(cores));
    pack_subinterval(subs[j].begin, subs[j].end, cores, items[j], fragments[j]);
  });

  std::size_t total = 0;
  for (const Schedule& fragment : fragments) total += fragment.segments().size();
  Schedule schedule(cores);
  schedule.reserve(total);
  for (const Schedule& fragment : fragments) {
    for (const Segment& segment : fragment.segments()) schedule.add(segment);
  }
  return schedule;
}

Schedule pack_subintervals_coalesced(
    const SubintervalDecomposition& subs, int cores, std::size_t begin, std::size_t end,
    const std::function<std::span<const PackItem>(std::size_t)>& source, TaskId max_task,
    const Exec& exec, double time_tol, double freq_tol) {
  EASCHED_EXPECTS(begin <= end && end <= subs.size());
  // Each item yields one segment, plus one per wrap (at most `cores`).
  std::size_t capacity = 0;
  for (std::size_t j = begin; j < end; ++j) {
    capacity += subs[j].overlapping.size() + static_cast<std::size_t>(cores);
  }
  return pack_fold<PackItem>(subs, cores, begin, end, source, capacity, max_task, exec, time_tol,
                             freq_tol);
}

Schedule pack_subintervals_coalesced(const SubintervalDecomposition& subs, int cores,
                                     std::span<const IntermediatePiece> pieces,
                                     const std::vector<std::size_t>& offsets, const Exec& exec,
                                     double time_tol, double freq_tol) {
  EASCHED_EXPECTS(offsets.size() == subs.size() + 1);
  EASCHED_EXPECTS(offsets.front() == 0);
  EASCHED_EXPECTS(offsets.back() == pieces.size());
  TaskId max_task = 0;
  for (const IntermediatePiece& piece : pieces) max_task = std::max(max_task, piece.task);
  const auto slice = [&](std::size_t j) {
    return pieces.subspan(offsets[j], offsets[j + 1] - offsets[j]);
  };
  return pack_fold<IntermediatePiece>(
      subs, cores, 0, subs.size(), slice,
      pieces.size() + subs.size() * static_cast<std::size_t>(cores), max_task, exec, time_tol,
      freq_tol);
}

}  // namespace easched
