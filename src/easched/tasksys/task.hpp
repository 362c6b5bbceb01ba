#pragma once

/// \file task.hpp
/// \brief The aperiodic task model of the paper (Section III-A).

#include <cmath>
#include <cstdint>

namespace easched {

/// Index type for tasks within a `TaskSet`.
using TaskId = std::int32_t;

/// Index type for processing cores.
using CoreId = std::int32_t;

/// An independent preemptive aperiodic task `τ_i = (R_i, D_i, C_i)`.
///
/// `work` is the execution requirement in cycles (at frequency `f`, executing
/// for time `t` completes `f·t` units of work). Time and frequency units are
/// arbitrary but must be consistent: with frequencies in MHz and time in
/// seconds, `work` is in megacycles.
struct Task {
  double release = 0.0;   ///< R_i: earliest time the task may execute.
  double deadline = 0.0;  ///< D_i: latest time the task must be finished.
  double work = 0.0;      ///< C_i: execution requirement (> 0).

  /// Laxity window length D_i − R_i.
  double window() const { return deadline - release; }

  /// The task's intensity C_i / (D_i − R_i): the minimum constant frequency
  /// at which it can finish if it may run whenever it is live.
  double intensity() const { return work / window(); }

  /// Finite fields, `work > 0` and `deadline > release`: the conditions a
  /// `TaskSet` requires of every member, as a test for input from outside.
  bool well_formed() const {
    return std::isfinite(release) && std::isfinite(deadline) && std::isfinite(work) &&
           work > 0.0 && deadline > release;
  }

  friend bool operator==(const Task&, const Task&) = default;
};

}  // namespace easched
