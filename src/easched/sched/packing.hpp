#pragma once

/// \file packing.hpp
/// \brief Collision-free packing within one subinterval (Algorithm 1).
///
/// Given per-task execution times inside a subinterval `[t_j, t_{j+1}]`
/// (each ≤ the subinterval length, summing to ≤ m·length), Algorithm 1 lays
/// tasks out core by core, wrapping a task that crosses the subinterval end
/// onto the next core — McNaughton's classical wrap-around rule. The two
/// pieces of a wrapped task never overlap in time because its total time is
/// at most the subinterval length.

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "easched/sched/schedule.hpp"
#include "easched/tasksys/subintervals.hpp"
#include "easched/tasksys/task.hpp"

namespace easched {

struct Exec;
struct IntermediatePiece;

/// One packing request: run `task` for `time` inside the subinterval at
/// frequency `frequency`.
struct PackItem {
  TaskId task = 0;
  double time = 0.0;
  double frequency = 0.0;
};

/// Pack `items` into `[begin, end]` on `cores` cores (Algorithm 1).
///
/// Preconditions (checked): every `item.time ∈ [0, end−begin]` and
/// `Σ item.time ≤ cores · (end−begin)`, both up to a small relative
/// tolerance to absorb float noise from upstream allocators; violations
/// within tolerance are clamped. Items with zero time produce no segments.
/// Appends the produced segments to `schedule`.
void pack_subinterval(double begin, double end, int cores, std::span<const PackItem> items,
                      Schedule& schedule);

/// Pack every subinterval independently (`items[j]` into `subs[j]`) and
/// concatenate the per-subinterval segment runs in subinterval order.
///
/// Subintervals are disjoint in time, so their wrap-around packings never
/// interact; under a parallel `exec` each subinterval packs into its own
/// fragment and the ordered concatenation reproduces the exact segment
/// sequence the serial per-`j` loop emits — bit-identical at any pool size.
/// Empty item lists produce no segments. The result is not coalesced.
Schedule pack_subintervals(const SubintervalDecomposition& subs, int cores,
                           const std::vector<std::vector<PackItem>>& items, const Exec& exec);

/// Fused pack + coalesce of subintervals `[begin, end)`: returns exactly
/// what `pack_subintervals` over that range followed by
/// `Schedule::coalesce(time_tol, freq_tol)` would, segment for segment, in
/// one packing pass. Algorithm 1 fills each core left to right and the
/// subintervals ascend, so every (task, core) group's segments come out in
/// ascending start order; each is folded into its group's last run as it is
/// emitted (`detail::segments_merge`), and the merged runs are then put in
/// (task, core) order: by a scatter through a second buffer up to 2^20 runs
/// (32 MB), in place beyond. Memory is the output, two tables over the
/// (task, core) keys and that buffer; between packs a thread keeps at most
/// 2 MB of each (and up to 8 MB of pooled wave buffers): no item list, no
/// staging arena, no second packing pass. (This replaced two strategies: a
/// serial one that ran Algorithm 1 twice, counting each group and then
/// placing each segment, and a pooled one that packed into a
/// per-subinterval arena sized by a serial scan and scattered it into a raw
/// segment buffer; both then sorted and merged every group.) Under a parallel `exec`, a range of at least
/// 2^18 overlap cells packs in bounded waves on the pool into per-chunk
/// buffers that fold serially in subinterval order (a smaller one packs on
/// the calling thread), so the result is bit-identical at any pool size.
///
/// `source(j)` yields subinterval `j`'s items, once per `j`; under a
/// parallel exec it is called concurrently for different `j`, so it must
/// return thread-local or otherwise per-caller storage. A subinterval's
/// overlap row bounds its item count (the output is reserved from it).
/// `max_task` must bound every yielded task id — the key tables are sized
/// from it, so ids must be dense.
Schedule pack_subintervals_coalesced(
    const SubintervalDecomposition& subs, int cores, std::size_t begin, std::size_t end,
    const std::function<std::span<const PackItem>(std::size_t)>& source, TaskId max_task,
    const Exec& exec, double time_tol = 1e-9, double freq_tol = 1e-9);

/// The same fold over the whole horizon, fed by the kernel's intermediate
/// pieces directly — no conversion copy to `PackItem`. Subinterval `j`'s
/// pieces are `pieces[offsets[j], offsets[j+1])` (`offsets.size() ==
/// subs.size() + 1`, `offsets.back() == pieces.size()`); pieces with
/// non-positive time emit no segments.
Schedule pack_subintervals_coalesced(const SubintervalDecomposition& subs, int cores,
                                     std::span<const IntermediatePiece> pieces,
                                     const std::vector<std::size_t>& offsets, const Exec& exec,
                                     double time_tol = 1e-9, double freq_tol = 1e-9);

}  // namespace easched
