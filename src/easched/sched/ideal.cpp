#include "easched/sched/ideal.hpp"

#include "easched/common/contracts.hpp"

namespace easched {

IdealCase::IdealCase(const TaskSet& tasks, const PowerModel& power) {
  release_.reserve(tasks.size());
  frequency_.reserve(tasks.size());
  exec_end_.reserve(tasks.size());
  energy_.reserve(tasks.size());
  for (const Task& t : tasks) push_back(t, power);
}

void IdealCase::push_back(const Task& task, const PowerModel& power) {
  const double f = power.optimal_frequency(task.work, task.window());
  EASCHED_ENSURES(f > 0.0);
  release_.push_back(task.release);
  frequency_.push_back(f);
  exec_end_.push_back(task.release + task.work / f);
  const double e = power.energy_for_work(task.work, f);
  energy_.push_back(e);
  total_energy_ += e;
}

void IdealCase::erase(TaskId i) {
  EASCHED_EXPECTS(i >= 0 && static_cast<std::size_t>(i) < size());
  for (std::vector<double>* column : {&release_, &frequency_, &exec_end_, &energy_}) {
    column->erase(column->begin() + i);
  }
  total_energy_ = 0.0;
  for (const double e : energy_) total_energy_ += e;
}

}  // namespace easched
