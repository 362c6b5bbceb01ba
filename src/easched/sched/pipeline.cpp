#include "easched/sched/pipeline.hpp"

#include <algorithm>
#include <utility>

#include "easched/common/contracts.hpp"
#include "easched/common/math.hpp"
#include "easched/obs/trace.hpp"
#include "easched/parallel/exec.hpp"
#include "easched/sched/packing.hpp"

namespace easched {

namespace {

/// Build the intermediate pieces: per (task, subinterval), the ideal work is
/// preserved; if the ration is shorter than the ideal execution time the
/// frequency rises to `o·f^O / avail` (Sections V-B1 / V-C1).
///
/// Subintervals are independent: each fills its own slot of `per_sub`, and
/// the ordered concatenation reproduces the serial (subinterval-major)
/// piece order exactly.
std::vector<IntermediatePiece> make_intermediate_pieces(
    const SubintervalDecomposition& subs, int cores, const IdealCase& ideal,
    const Availability& avail, const Exec& exec) {
  // Pass 1: exact surviving-piece count per subinterval (only o > 0 yields a
  // piece), so the flat subinterval-major list is allocated once and filled
  // in place — no per-subinterval growth, no concatenation copy. Both passes
  // write disjoint slots, so a parallel exec keeps the serial order exactly.
  std::vector<std::size_t> offsets(subs.size() + 1, 0);
  exec.loop(subs.size(), [&](std::size_t j) {
    const Subinterval& si = subs[j];
    std::size_t count = 0;
    for (const TaskId id : si.overlapping) {
      if (ideal.execution_time_in(id, si.begin, si.end) > 0.0) ++count;
    }
    offsets[j + 1] = count;
  });
  for (std::size_t j = 0; j < subs.size(); ++j) offsets[j + 1] += offsets[j];

  std::vector<IntermediatePiece> pieces(offsets.back());
  exec.loop(subs.size(), [&](std::size_t j) {
    const Subinterval& si = subs[j];
    const bool heavy = si.heavy(cores);
    std::size_t slot = offsets[j];
    for (const TaskId id : si.overlapping) {
      const auto i = static_cast<std::size_t>(id);
      const double o = ideal.execution_time_in(id, si.begin, si.end);
      if (!(o > 0.0)) continue;  // exact complement of the counting pass
      IntermediatePiece piece;
      piece.task = id;
      piece.subinterval = j;
      if (heavy) {
        const double a = avail(i, j);
        EASCHED_ASSERT(a > 0.0);  // DER > 0 whenever o > 0; even split > 0.
        if (o <= a) {
          piece.time = o;
          piece.frequency = ideal.frequency(id);
        } else {
          piece.time = a;
          piece.frequency = o * ideal.frequency(id) / a;
        }
      } else {
        piece.time = o;
        piece.frequency = ideal.frequency(id);
      }
      pieces[slot++] = piece;
    }
    EASCHED_ASSERT(slot == offsets[j + 1]);
  });
  return pieces;
}

/// Materialize pieces into a collision-free Schedule by packing each
/// subinterval with Algorithm 1 and coalescing in one fused pass.
Schedule materialize(const SubintervalDecomposition& subs, int cores,
                     const std::vector<IntermediatePiece>& pieces, const Exec& exec) {
  obs::Span span("kernel.pack");
  span.arg("pieces", static_cast<double>(pieces.size()));
  // The piece list is already subinterval-major, so the CSR offsets come
  // from one counting pass and the pieces feed the packer in place — no
  // conversion copy to `PackItem`, no ungrouped segment list.
  std::vector<std::size_t> offsets(subs.size() + 1, 0);
  std::size_t last = 0;
  for (const IntermediatePiece& p : pieces) {
    EASCHED_ASSERT(p.subinterval >= last && p.subinterval < subs.size());
    last = p.subinterval;
    ++offsets[p.subinterval + 1];
  }
  for (std::size_t j = 0; j < subs.size(); ++j) offsets[j + 1] += offsets[j];
  return pack_subintervals_coalesced(subs, cores, std::span<const IntermediatePiece>(pieces),
                                     offsets, exec);
}

double pieces_energy(const std::vector<IntermediatePiece>& pieces, const PowerModel& power,
                     const Exec& exec) {
  // Per-piece energies into disjoint slots (the pow-heavy part), then one
  // serial reduction in piece order; skipped pieces contribute an exact 0.
  // Blocked so the scratch stays cache-sized instead of mirroring the whole
  // O(P) piece list; block boundaries don't move any term of the serial
  // ascending-index sum, so the total is bit-identical at any block size.
  constexpr std::size_t kBlock = std::size_t{1} << 20;
  std::vector<double> energy(std::min(pieces.size(), kBlock));
  double total = 0.0;
  for (std::size_t base = 0; base < pieces.size(); base += kBlock) {
    const std::size_t count = std::min(kBlock, pieces.size() - base);
    exec.loop(count, [&](std::size_t k) {
      const IntermediatePiece& p = pieces[base + k];
      energy[k] = p.time <= 0.0 ? 0.0 : power.energy_for_duration(p.time, p.frequency);
    });
    for (std::size_t k = 0; k < count; ++k) total += energy[k];
  }
  return total;
}

}  // namespace

MethodResult schedule_with_method(const TaskSet& tasks, const SubintervalDecomposition& subs,
                                  int cores, const PowerModel& power, const IdealCase& ideal,
                                  AllocationMethod method) {
  return schedule_with_method(tasks, subs, cores, power, ideal, method, Exec::serial());
}

void refine_final(const TaskSet& tasks, const PowerModel& power, const Availability& avail,
                  const Exec& exec, FinalRefinement& out) {
  // Equations (22)-(23). Each task's total availability, frequency, and
  // energy land in per-task slots; the energy sum then reduces serially in
  // task order, matching the serial loop bit for bit. The used time
  // T_i = C_i/f distributes over the task's availability proportionally
  // (`scale`), so per-subinterval budgets and capacity stay respected.
  const std::size_t n = tasks.size();
  EASCHED_EXPECTS(avail.task_count() == n);
  out.total_available.resize(n);
  out.frequency.resize(n);
  out.scale.resize(n);
  out.task_energy.resize(n);
  exec.loop(n, [&](std::size_t i) {
    const double a_total = avail.row_sum(i);
    EASCHED_ASSERT(a_total > 0.0);  // every task covers at least one subinterval
    out.total_available[i] = a_total;
    const double f = power.optimal_frequency(tasks[i].work, a_total);
    out.frequency[i] = f;
    out.task_energy[i] = power.energy_for_work(tasks[i].work, f);
    const double used = tasks[i].work / f;
    EASCHED_ASSERT(leq_tol(used, a_total, 1e-9 * a_total));
    out.scale[i] = std::min(1.0, used / a_total);
  });
  out.energy = 0.0;
  for (std::size_t i = 0; i < n; ++i) out.energy += out.task_energy[i];
}

Schedule pack_final(const SubintervalDecomposition& subs, int cores, const Availability& avail,
                    const FinalRefinement& refinement, std::size_t begin, std::size_t end,
                    const Exec& exec) {
  EASCHED_EXPECTS(begin <= end && end <= subs.size());
  const std::size_t n = refinement.frequency.size();
  EASCHED_EXPECTS(n > 0 && refinement.scale.size() == n);
  // Final pieces, generated on demand per subinterval. Walking each
  // subinterval's overlap row visits the same (task, subinterval) cells as a
  // task-major piece loop would, and the ascending-TaskId rows yield each
  // slice's items in exactly the order that loop's stable subinterval
  // bucketing produced — the packed schedule is identical, without a
  // task-major piece list *or* the flat CSR item buffer (~0.8 GB at
  // n = 10000; regenerating a slice is a few row reads). The generator is a
  // pure function of the refinement arrays, so the packer may re-invoke it
  // per pass; the thread_local buffer keeps concurrent invocations (one per
  // pool worker) disjoint.
  const auto items_of = [&](std::size_t j) -> std::span<const PackItem> {
    if (j < begin || j >= end) return {};
    thread_local std::vector<PackItem> items;
    items.clear();
    const Subinterval& si = subs[j];
    for (const TaskId id : si.overlapping) {
      const auto i = static_cast<std::size_t>(id);
      const double budget = avail(i, j);
      if (budget <= 0.0) continue;
      const double time = std::min(budget * refinement.scale[i], si.length());
      if (!(time > 0.0)) continue;
      items.push_back({id, time, refinement.frequency[i]});
    }
    return items;
  };
  return pack_subintervals_coalesced(subs, cores, items_of, static_cast<TaskId>(n) - 1, exec);
}

FinalPlan plan_final(const TaskSet& tasks, const SubintervalDecomposition& subs, int cores,
                     const PowerModel& power, const IdealCase& ideal, AllocationMethod method,
                     const Exec& exec) {
  EASCHED_EXPECTS(!tasks.empty());
  EASCHED_EXPECTS(cores > 0);

  obs::Span method_span(method == AllocationMethod::kDer ? "kernel.method.der"
                                                         : "kernel.method.even");
  method_span.arg("tasks", static_cast<double>(tasks.size()));
  method_span.arg("subintervals", static_cast<double>(subs.size()));

  FinalPlan plan;
  {
    obs::Span span("kernel.allocation");
    plan.availability = allocate_available_time(tasks, subs, cores, ideal, method, exec);
  }
  {
    obs::Span span("kernel.f2_reopt");
    refine_final(tasks, power, plan.availability, exec, plan.refinement);
  }
  {
    obs::Span span("kernel.pack");
    plan.schedule =
        pack_final(subs, cores, plan.availability, plan.refinement, 0, subs.size(), exec);
    span.arg("segments", static_cast<double>(plan.schedule.segments().size()));
  }
  return plan;
}

MethodResult schedule_with_method(const TaskSet& tasks, const SubintervalDecomposition& subs,
                                  int cores, const PowerModel& power, const IdealCase& ideal,
                                  AllocationMethod method, const Exec& exec) {
  FinalPlan plan = plan_final(tasks, subs, cores, power, ideal, method, exec);

  MethodResult result;
  result.method = method;
  {
    obs::Span span("kernel.intermediate_pieces");
    result.intermediate_pieces =
        make_intermediate_pieces(subs, cores, ideal, plan.availability, exec);
    span.arg("pieces", static_cast<double>(result.intermediate_pieces.size()));
  }
  result.intermediate_energy = pieces_energy(result.intermediate_pieces, power, exec);
  result.intermediate_schedule = materialize(subs, cores, result.intermediate_pieces, exec);

  result.availability = std::move(plan.availability);
  result.total_available = std::move(plan.refinement.total_available);
  result.final_frequency = std::move(plan.refinement.frequency);
  result.final_energy = plan.refinement.energy;
  result.final_schedule = std::move(plan.schedule);
  return result;
}

Schedule materialize_final_sorted(const TaskSet& tasks, const SubintervalDecomposition& subs,
                                  int cores, const MethodResult& result) {
  return materialize_final_sorted(tasks, subs, cores, result, Exec::serial());
}

Schedule materialize_final_sorted(const TaskSet& tasks, const SubintervalDecomposition& subs,
                                  int cores, const MethodResult& result, const Exec& exec) {
  EASCHED_EXPECTS(result.final_frequency.size() == tasks.size());
  EASCHED_EXPECTS(result.total_available.size() == tasks.size());

  std::vector<std::vector<PackItem>> per_subinterval(subs.size());
  exec.loop(subs.size(), [&](std::size_t j) {
    std::vector<PackItem>& items = per_subinterval[j];
    // Only overlapping tasks can hold budget in subinterval j; the CSR row
    // is ascending TaskId, matching the dense all-tasks sweep order.
    for (const TaskId id : subs[j].overlapping) {
      const auto i = static_cast<std::size_t>(id);
      const double budget = result.availability(i, j);
      if (budget <= 0.0) continue;
      const double used = tasks[i].work / result.final_frequency[i];
      const double scale = std::min(1.0, used / result.total_available[i]);
      const double time = std::min(budget * scale, subs[j].length());
      if (time <= 1e-12) continue;
      items.push_back({id, time, result.final_frequency[i]});
    }
    // Stable frequency grouping: equal-frequency neighbors merge into one
    // segment after coalescing; descending order keeps the hottest tasks at
    // consistent positions across adjacent subintervals.
    std::stable_sort(items.begin(), items.end(), [](const PackItem& a, const PackItem& b) {
      if (a.frequency != b.frequency) return a.frequency > b.frequency;
      return a.task < b.task;
    });
  });
  Schedule schedule = pack_subintervals(subs, cores, per_subinterval, exec);
  schedule.coalesce();
  return schedule;
}

PipelineResult run_pipeline(const TaskSet& tasks, int cores, const PowerModel& power) {
  return run_pipeline(tasks, cores, power, Exec::serial());
}

PipelineResult run_pipeline(const TaskSet& tasks, int cores, const PowerModel& power,
                            const Exec& exec) {
  EASCHED_EXPECTS(!tasks.empty());
  obs::Span span("kernel.pipeline");
  span.arg("tasks", static_cast<double>(tasks.size()));
  span.arg("cores", static_cast<double>(cores));
  const SubintervalDecomposition subs(tasks, 1e-12, exec);
  const IdealCase ideal(tasks, power);

  PipelineResult result;
  result.ideal_energy = ideal.total_energy();
  result.even =
      schedule_with_method(tasks, subs, cores, power, ideal, AllocationMethod::kEven, exec);
  result.der =
      schedule_with_method(tasks, subs, cores, power, ideal, AllocationMethod::kDer, exec);
  return result;
}

}  // namespace easched
