// Crash-safety property: kill the service at every journal write boundary
// and assert recovery restores exactly the durable prefix — every
// acknowledged admit survives, nothing else is required to.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "easched/common/math.hpp"
#include "easched/faults/fault_injection.hpp"
#include "easched/service/service.hpp"

namespace easched {
namespace {

PowerModel test_power() { return PowerModel(3.0, 0.1); }

ServiceOptions journal_options(std::string path) {
  ServiceOptions options;
  options.cores = 2;
  options.f_max = kInf;
  options.journal_path = std::move(path);
  return options;
}

std::string fresh_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

Task nth_task(int i) {
  return Task{0.25 * i, 20.0 + i, 1.0 + 0.5 * i};
}

TEST(JournalRecoveryTest, KillAtEveryAdmitBoundaryRecoversAcknowledgedPrefix) {
  constexpr int kTasks = 5;
  for (const bool post : {false, true}) {
    const std::string point = post ? "journal.admit.post" : "journal.admit.pre";
    for (int k = 1; k <= kTasks; ++k) {
      SCOPED_TRACE(point + "@" + std::to_string(k));
      const std::string path =
          fresh_path("journal_recovery_" + std::to_string(post) + "_" + std::to_string(k) + ".log");
      FaultInjector injector(FaultPlan::parse("kill:" + point + "@" + std::to_string(k)));

      // Phase 1: admit one task per call until the armed kill fires. The
      // k-th admit append crashes mid-call; its client never gets an
      // acknowledgement (the crash leaves the call), exactly like a process
      // death.
      int crashed_at = -1;
      {
        faults::FaultScope scope(injector);
        SchedulerService service(test_power(), journal_options(path));
        for (int i = 0; i < kTasks; ++i) {
          try {
            const ServiceDecision decision = service.submit(nth_task(i));
            ASSERT_TRUE(decision.admission.admitted);
          } catch (const InjectedCrash&) {
            crashed_at = i;
            break;
          }
        }
      }
      ASSERT_EQ(crashed_at, k - 1);

      // Phase 2: recover over the same journal. Killing before the write
      // loses exactly the in-flight admit; killing after the flush keeps it
      // (durable but unacknowledged — the safe side of the race).
      const int durable = post ? k : k - 1;
      SchedulerService recovered(test_power(), journal_options(path));
      ASSERT_EQ(recovered.committed_count(), static_cast<std::size_t>(durable));
      const TaskSet tasks = recovered.committed_task_set();
      for (int i = 0; i < durable; ++i) {
        EXPECT_EQ(tasks[static_cast<std::size_t>(i)].release, nth_task(i).release);
        EXPECT_EQ(tasks[static_cast<std::size_t>(i)].deadline, nth_task(i).deadline);
        EXPECT_EQ(tasks[static_cast<std::size_t>(i)].work, nth_task(i).work);
      }

      // The id counter resumes past the durable prefix and the recovered
      // service keeps serving.
      const ServiceDecision next = recovered.submit(Task{0.0, 30.0, 1.0});
      EXPECT_TRUE(next.admission.admitted);
      EXPECT_EQ(next.id, durable);
      const TaskSet after = recovered.committed_task_set();
      EXPECT_TRUE(recovered.current_plan().validate(after, 1e-5, 1e-5).ok);
    }
  }
}

TEST(JournalRecoveryTest, KillAroundCompletionRecord) {
  for (const bool post : {false, true}) {
    SCOPED_TRACE(post ? "post" : "pre");
    const std::string path =
        fresh_path("journal_recovery_complete_" + std::to_string(post) + ".log");

    // Durable base: three clean admits.
    {
      SchedulerService service(test_power(), journal_options(path));
      for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(service.submit(nth_task(i)).admission.admitted);
      }
    }

    FaultInjector injector(
        FaultPlan::parse(std::string("kill:journal.complete.") + (post ? "post" : "pre") + "@1"));
    {
      faults::FaultScope scope(injector);
      SchedulerService service(test_power(), journal_options(path));
      ASSERT_EQ(service.committed_count(), 3u);
      EXPECT_THROW(service.complete(1), InjectedCrash);
    }

    // Before the write the removal is lost (the task is resurrected —
    // honoring a commitment is the safe failure mode); after the flush it
    // sticks.
    SchedulerService recovered(test_power(), journal_options(path));
    EXPECT_EQ(recovered.committed_count(), post ? 2u : 3u);
    const std::vector<TaskId> ids = recovered.committed_ids();
    if (post) {
      ASSERT_EQ(ids.size(), 2u);
      EXPECT_EQ(ids[0], 0);
      EXPECT_EQ(ids[1], 2);
    }
  }
}

}  // namespace
}  // namespace easched
