// The brownout degradation ladder: hysteresis, dwell, one-step transitions,
// forcing, and the level's effect on the service's planning chain and cache.

#include <gtest/gtest.h>

#include <vector>

#include "easched/common/math.hpp"
#include "easched/service/brownout.hpp"
#include "easched/service/service.hpp"

namespace easched {
namespace {

BrownoutOptions tight_options() {
  BrownoutOptions options;
  options.engage = {4, 8, 16};
  options.release = {1, 4, 8};
  options.dwell = 2;
  return options;
}

TEST(BrownoutTest, StartsAtLevelZeroAndStaysUnderLightPressure) {
  BrownoutLadder ladder(tight_options());
  EXPECT_EQ(ladder.level(), 0);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(ladder.observe(1), 0);
  EXPECT_EQ(ladder.transitions(), 0u);
}

TEST(BrownoutTest, EngageNeedsDwellConsecutiveObservations) {
  BrownoutLadder ladder(tight_options());
  EXPECT_EQ(ladder.observe(10), 0);  // streak 1 of 2
  EXPECT_EQ(ladder.observe(0), 0);   // broken: non-qualifying resets
  EXPECT_EQ(ladder.observe(10), 0);
  EXPECT_EQ(ladder.observe(10), 1);  // streak 2 of 2: engage
  EXPECT_EQ(ladder.transitions(), 1u);
}

TEST(BrownoutTest, SustainedOverloadClimbsOneStepAtATime) {
  BrownoutLadder ladder(tight_options());
  std::vector<int> levels;
  for (int i = 0; i < 8; ++i) levels.push_back(ladder.observe(100));
  // Never a jump: 0,1,1,2,2,3 with dwell 2, then pinned at the max.
  EXPECT_EQ(levels, (std::vector<int>{0, 1, 1, 2, 2, 3, 3, 3}));
  EXPECT_EQ(ladder.level(), kBrownoutMaxLevel);
}

TEST(BrownoutTest, HysteresisHoldsTheLevelBetweenWatermarks) {
  BrownoutLadder ladder(tight_options());
  ladder.force(1);
  // Pressure between release[0]=1 and engage[1]=8: neither streak grows,
  // so the ladder neither climbs nor releases — no flapping.
  for (int i = 0; i < 20; ++i) EXPECT_EQ(ladder.observe(3), 1);
  EXPECT_EQ(ladder.transitions(), 1u);  // only the force
}

TEST(BrownoutTest, ReleaseStepsDownWithDwell) {
  BrownoutLadder ladder(tight_options());
  ladder.force(2);
  EXPECT_EQ(ladder.observe(4), 2);  // at release[1]: streak 1
  EXPECT_EQ(ladder.observe(4), 1);  // streak 2: release one level
  EXPECT_EQ(ladder.observe(1), 1);
  EXPECT_EQ(ladder.observe(1), 0);
  EXPECT_EQ(ladder.observe(0), 0);  // floor
}

TEST(BrownoutTest, ForceClampsAndResetsStreaks) {
  BrownoutLadder ladder(tight_options());
  EXPECT_EQ(ladder.observe(100), 0);  // engage streak 1
  ladder.force(99);
  EXPECT_EQ(ladder.level(), kBrownoutMaxLevel);
  ladder.force(-5);
  EXPECT_EQ(ladder.level(), 0);
  // The pre-force streak must not leak into post-force observations.
  EXPECT_EQ(ladder.observe(100), 0);
  EXPECT_EQ(ladder.observe(100), 1);
}

TEST(BrownoutTest, DeterministicReplay) {
  // The same observation sequence produces the same transition trace — the
  // property the chaos differential test leans on.
  const std::vector<std::size_t> pressures = {0, 9, 9, 20, 20, 3, 5, 5, 1, 1, 40, 40, 40, 40, 0};
  std::vector<int> first, second;
  {
    BrownoutLadder ladder(tight_options());
    for (const std::size_t p : pressures) first.push_back(ladder.observe(p));
  }
  {
    BrownoutLadder ladder(tight_options());
    for (const std::size_t p : pressures) second.push_back(ladder.observe(p));
  }
  EXPECT_EQ(first, second);
}

// --- Level effects on the planning service --------------------------------

ServiceOptions service_options() {
  ServiceOptions options;
  options.cores = 2;
  options.f_max = kInf;
  return options;
}

TEST(BrownoutTest, LevelTwoPlansF1OnlyAndLevelZeroPlanIsRestored) {
  SchedulerService service(PowerModel(3.0, 0.1), service_options());
  const ServiceDecision full = service.submit(Task{0.0, 10.0, 2.0});
  ASSERT_TRUE(full.admission.admitted);
  EXPECT_EQ(full.plan_rung, PlanRung::kDer);  // default chain tops at F2

  service.set_brownout_level(2);
  const ServiceDecision degraded = service.submit(Task{1.0, 9.0, 1.5});
  ASSERT_TRUE(degraded.admission.admitted);
  EXPECT_EQ(degraded.plan_rung, PlanRung::kEven);  // F1-only under level 2
  EXPECT_EQ(degraded.brownout_level, 2);
  const double degraded_energy = service.current_energy();

  // Back at level 0 the same set plans through the full chain again — the
  // degraded plan was cached under a salted key and cannot be served here,
  // and the F2 plan for the same two tasks can only improve on F1's energy.
  service.set_brownout_level(0);
  const double restored_energy = service.current_energy();
  EXPECT_GT(service.metrics().counter("plans_by_rung_der"), 0u);
  EXPECT_GT(service.metrics().counter("plans_by_rung_even"), 0u);
  EXPECT_LE(restored_energy, degraded_energy + 1e-9);
  EXPECT_GE(service.metrics().counter("brownout_transitions_total"), 2u);
}

TEST(BrownoutTest, DegradedPlanNeverMasqueradesAsFullService) {
  // Plan the same committed set at level 2 and level 0: the level-0 read
  // must be a fresh (or level-0-cached) F2 plan, not the level-2 F1 plan.
  SchedulerService service(PowerModel(3.0, 0.1), service_options());
  ASSERT_TRUE(service.submit(Task{0.0, 10.0, 2.0}).admission.admitted);
  ASSERT_TRUE(service.submit(Task{0.5, 8.0, 1.0}).admission.admitted);

  const double full = service.current_energy();
  service.set_brownout_level(2);
  const double degraded = service.current_energy();
  service.set_brownout_level(0);
  const double full_again = service.current_energy();
  EXPECT_EQ(full, full_again);       // bit-identical: same chain, same cache key
  EXPECT_GE(degraded, full - 1e-9);  // F1 never beats F2 on energy
}

}  // namespace
}  // namespace easched
