#pragma once

/// \file pipeline.hpp
/// \brief The paper's end-to-end subinterval schedulers: I1, F1, I2, F2.
///
/// Pipeline per allocation method (Section V-B/V-C):
///  1. compute the ideal unlimited-core case `S^O`;
///  2. allocate available execution times per subinterval (even or DER);
///  3. *intermediate* schedule (`S^{I}`): keep `S^O`'s per-subinterval work,
///     raising the frequency wherever the ration is shorter than the ideal
///     execution time;
///  4. *final* schedule (`S^{F}`): re-optimize one frequency per task against
///     its total available time `A_i` (equations (22)–(23)), then materialize
///     a collision-free `Schedule` via Algorithm 1.
///
/// Step 4 does not read step 3, so the plan a scheduler serves is steps 2
/// and 4 alone (`plan_final`); `schedule_with_method` adds step 3 for the
/// experiments that compare I1/I2 with F1/F2.

#include <vector>

#include "easched/power/power_model.hpp"
#include "easched/sched/allocation.hpp"
#include "easched/sched/ideal.hpp"
#include "easched/sched/schedule.hpp"
#include "easched/tasksys/subintervals.hpp"
#include "easched/tasksys/task_set.hpp"

namespace easched {

struct Exec;

/// One constant-frequency chunk of an intermediate schedule: task `task`
/// executes `time` seconds at `frequency` inside subinterval `subinterval`.
/// Kept explicitly so the discrete-frequency adapter can re-quantize chunks.
struct IntermediatePiece {
  TaskId task = 0;
  std::size_t subinterval = 0;
  double time = 0.0;
  double frequency = 0.0;

  double work() const { return time * frequency; }
};

/// The final frequency refinement (equations (22)–(23)) of one allocation:
/// per task, its total available time, one frequency, and the share of the
/// available time that frequency uses.
struct FinalRefinement {
  std::vector<double> total_available;  ///< `A_i = Σ_j avail(i, j)`.
  std::vector<double> frequency;        ///< `f_i = max(f*, C_i/A_i)`.
  std::vector<double> scale;            ///< `min(1, (C_i/f_i)/A_i)`.
  std::vector<double> task_energy;      ///< `C_i(γf_i^{α−1}+p0/f_i)`.
  double energy = 0.0;                  ///< `task_energy` summed in task order.
};

/// Refine `avail` for `tasks` into `out`, reusing its buffers. The per-task
/// slots fill independently over `exec` and the energy sums serially in
/// task order, so the result is bit-identical at any pool size.
void refine_final(const TaskSet& tasks, const PowerModel& power, const Availability& avail,
                  const Exec& exec, FinalRefinement& out);

/// Refine task `i` (`task`) alone: fill its slots of `out`, which must
/// already hold `avail.task_count()` of each. `refine_final` is this for
/// every task plus `fold_refined_energy`; the delta planner re-refines only
/// the tasks whose availability row changed.
void refine_task(const Task& task, std::size_t i, const PowerModel& power,
                 const Availability& avail, FinalRefinement& out);

/// Sum `out.task_energy` into `out.energy` in task order.
void fold_refined_energy(FinalRefinement& out);

/// Pack subintervals `[begin, end)` of a refined allocation with Algorithm 1
/// and coalesce: task `i`'s budget in subinterval `j` runs
/// `min(avail(i, j)·scale_i, |s_j|)` at `f_i`. Subintervals outside the range
/// yield no segments. The whole horizon gives the final schedule; a window
/// gives the delta planner's repack.
Schedule pack_final(const SubintervalDecomposition& subs, int cores, const Availability& avail,
                    const FinalRefinement& refinement, std::size_t begin, std::size_t end,
                    const Exec& exec);

/// The plan one allocation method serves: F1 (even) or F2 (DER).
struct FinalPlan {
  /// Available execution time per (task, subinterval), row-compressed to
  /// each task's live subinterval range.
  Availability availability;
  FinalRefinement refinement;
  Schedule schedule;  ///< materialized, collision-free.
};

/// Allocation → final refinement → final pack, with no intermediate
/// schedule: what the fallback chain's heuristic rungs and the delta planner
/// serve. Per-subinterval and per-task stages fan out over `exec`;
/// bit-identical at any pool size, and to `schedule_with_method`'s final
/// fields.
FinalPlan plan_final(const TaskSet& tasks, const SubintervalDecomposition& subs, int cores,
                     const PowerModel& power, const IdealCase& ideal, AllocationMethod method,
                     const Exec& exec);

/// Full output of one allocation method's pipeline.
struct MethodResult {
  AllocationMethod method = AllocationMethod::kEven;

  /// Available execution time per (task, subinterval), row-compressed to
  /// each task's live subinterval range.
  Availability availability;
  /// `A_i = Σ_j avail(i, j)`.
  std::vector<double> total_available;

  /// Intermediate scheduling (S^{I1} / S^{I2}).
  std::vector<IntermediatePiece> intermediate_pieces;
  double intermediate_energy = 0.0;
  Schedule intermediate_schedule;

  /// Final scheduling (S^{F1} / S^{F2}).
  std::vector<double> final_frequency;  ///< `f_i = max(f*, C_i/A_i)`.
  double final_energy = 0.0;            ///< analytic Σ C_i(γf^{α−1}+p0/f).
  Schedule final_schedule;              ///< materialized, collision-free.
};

/// Results for both methods plus the shared ideal case.
struct PipelineResult {
  double ideal_energy = 0.0;  ///< `E^O` (unlimited-core lower reference).
  MethodResult even;          ///< I1 / F1
  MethodResult der;           ///< I2 / F2
};

/// Run one allocation method end to end: `plan_final` plus the
/// intermediate pieces, energy and schedule.
MethodResult schedule_with_method(const TaskSet& tasks, const SubintervalDecomposition& subs,
                                  int cores, const PowerModel& power, const IdealCase& ideal,
                                  AllocationMethod method);

/// Same pipeline with the per-subinterval stages (allocation, intermediate
/// pieces, packing) and the per-task F2 re-optimization fanned out over
/// `exec`. Bit-identical to the serial overload at any pool size (the
/// determinism contract of `parallel/exec.hpp`).
MethodResult schedule_with_method(const TaskSet& tasks, const SubintervalDecomposition& subs,
                                  int cores, const PowerModel& power, const IdealCase& ideal,
                                  AllocationMethod method, const Exec& exec);

/// Run both methods, sharing the decomposition and ideal case.
PipelineResult run_pipeline(const TaskSet& tasks, int cores, const PowerModel& power);

/// Parallel overload: decomposition overlap scans and both methods run
/// under `exec`; output is bit-identical to the serial overload.
PipelineResult run_pipeline(const TaskSet& tasks, int cores, const PowerModel& power,
                            const Exec& exec);

/// Rebuild `result`'s final schedule with each subinterval's pieces ordered
/// by frequency (stable, ties by task id) before Algorithm-1 packing.
///
/// The paper notes the execution order within a subinterval "can be
/// arbitrary" and should be chosen "to avoid unnecessary preemptions and
/// migrations"; grouping equal frequencies makes abutting segments coalesce
/// and cuts per-core DVFS switches without changing any task's energy
/// (measured in `ablation_transitions`). Same energy, same validity — only
/// the layout differs.
Schedule materialize_final_sorted(const TaskSet& tasks, const SubintervalDecomposition& subs,
                                  int cores, const MethodResult& result);

/// Parallel overload of `materialize_final_sorted` (same output, any pool).
Schedule materialize_final_sorted(const TaskSet& tasks, const SubintervalDecomposition& subs,
                                  int cores, const MethodResult& result, const Exec& exec);

}  // namespace easched
