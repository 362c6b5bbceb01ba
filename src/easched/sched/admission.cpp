#include "easched/sched/admission.hpp"

#include <cmath>
#include <vector>

#include "easched/common/contracts.hpp"
#include "easched/sched/feasibility.hpp"
#include "easched/sched/pipeline.hpp"

namespace easched {

AdmissionDecision admit_task(const TaskSet& committed, const Task& candidate, int cores,
                             const PowerModel& power, double f_max) {
  EASCHED_EXPECTS(cores > 0);
  EASCHED_EXPECTS(f_max > 0.0);

  AdmissionDecision decision;
  if (!committed.empty()) {
    decision.energy_before = run_pipeline(committed, cores, power).der.final_energy;
  }

  // Candidate sanity first: malformed requests are rejected, not thrown,
  // since they arrive from outside the trust boundary.
  if (!candidate.well_formed()) {
    decision.rejection_reason = "malformed task (need work > 0 and deadline > release)";
    return decision;
  }
  if (std::isfinite(f_max) && candidate.intensity() > f_max) {
    decision.rejection_reason = "task needs more than the frequency ceiling even running alone";
    return decision;
  }

  std::vector<Task> merged(committed.begin(), committed.end());
  merged.push_back(candidate);
  const TaskSet all(std::move(merged));

  if (std::isfinite(f_max)) {
    const FeasibilityReport report = check_feasibility(all, cores, f_max);
    if (!report.feasible) {
      decision.rejection_reason =
          report.violated_conditions.empty()
              ? "no migrating schedule fits at the frequency ceiling (flow test)"
              : report.violated_conditions.front();
      return decision;
    }
  }

  decision.admitted = true;
  decision.energy_after = run_pipeline(all, cores, power).der.final_energy;
  decision.marginal_energy = decision.energy_after - decision.energy_before;
  return decision;
}

}  // namespace easched
