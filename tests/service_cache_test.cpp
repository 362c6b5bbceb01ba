// PlanCache: signature stability under quantization, LRU eviction by entry
// count and by bytes, hit/miss accounting, structural invalidation via
// signature change, and the service's `plan_cache_bytes` gauge.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "easched/common/contracts.hpp"
#include "easched/service/plan_cache.hpp"
#include "easched/service/service.hpp"

namespace easched {
namespace {

std::vector<std::pair<TaskId, Task>> live_set() {
  return {{0, Task{0.0, 10.0, 8.0}}, {2, Task{2.0, 18.0, 14.0}}};
}

TEST(PlanSignatureTest, IdenticalSetsShareASignature) {
  const auto a = live_set();
  const auto b = live_set();
  EXPECT_EQ(plan_signature(a), plan_signature(b));
}

TEST(PlanSignatureTest, QuantizationAbsorbsFloatNoise) {
  auto a = live_set();
  auto b = live_set();
  b[0].second.work += 1e-9;  // below the default 1e-6 quantum
  EXPECT_EQ(plan_signature(a), plan_signature(b));
  b[0].second.work += 1e-3;  // above it
  EXPECT_NE(plan_signature(a), plan_signature(b));
}

TEST(PlanSignatureTest, IdsAndFieldsAllMatter) {
  auto base = live_set();
  auto other_id = live_set();
  other_id[1].first = 3;
  EXPECT_NE(plan_signature(base), plan_signature(other_id));
  auto other_deadline = live_set();
  other_deadline[1].second.deadline += 1.0;
  EXPECT_NE(plan_signature(base), plan_signature(other_deadline));
}

TEST(PlanSignatureTest, RejectsNonPositiveQuantum) {
  const auto set = live_set();
  EXPECT_THROW(plan_signature(set, 0.0), ContractViolation);
}

TEST(PlanCacheTest, MissThenHit) {
  PlanCache cache(4);
  EXPECT_FALSE(cache.lookup("sig"));
  CachedPlan plan;
  plan.energy = 42.0;
  cache.insert("sig", plan);
  const auto hit = cache.lookup("sig");
  ASSERT_TRUE(hit);
  EXPECT_DOUBLE_EQ(hit->energy, 42.0);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.5);
}

TEST(PlanCacheTest, LruEvictsTheColdestEntry) {
  PlanCache cache(2);
  cache.insert("a", CachedPlan{1.0, {}});
  cache.insert("b", CachedPlan{2.0, {}});
  ASSERT_TRUE(cache.lookup("a"));  // refresh "a"; "b" is now coldest
  cache.insert("c", CachedPlan{3.0, {}});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.lookup("a"));
  EXPECT_FALSE(cache.lookup("b"));
  EXPECT_TRUE(cache.lookup("c"));
}

TEST(PlanCacheTest, InsertOverwritesInPlace) {
  PlanCache cache(2);
  cache.insert("a", CachedPlan{1.0, {}});
  cache.insert("a", CachedPlan{9.0, {}});
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_DOUBLE_EQ(cache.lookup("a")->energy, 9.0);
}

TEST(PlanCacheTest, ZeroCapacityDisablesCaching) {
  PlanCache cache(0);
  cache.insert("a", CachedPlan{1.0, {}});
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup("a"));
}

/// A plan of `segments` one-unit segments.
CachedPlan plan_of(std::size_t segments, double energy = 1.0) {
  std::vector<Segment> segs;
  for (std::size_t k = 0; k < segments; ++k) {
    segs.push_back({0, 0, static_cast<double>(k), static_cast<double>(k) + 1.0, 1.0});
  }
  return CachedPlan{energy, Schedule(1, std::move(segs))};
}

TEST(PlanCacheTest, BytesCountSegmentsAndSignatures) {
  PlanCache cache(8);
  cache.insert("ab", plan_of(3));
  cache.insert("cde", plan_of(5));
  EXPECT_EQ(cache.bytes(), 8 * sizeof(Segment) + 5);
  cache.insert("ab", plan_of(1));  // an overwrite recounts the entry
  EXPECT_EQ(cache.bytes(), 6 * sizeof(Segment) + 5);
  EXPECT_EQ(PlanCache::plan_bytes("ab", plan_of(1)), sizeof(Segment) + 2);
  cache.clear();
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(PlanCacheTest, ByteCapEvictsTheColdestEntries) {
  const std::size_t plan = PlanCache::plan_bytes("a", plan_of(10));
  PlanCache cache(16, 3 * plan);
  cache.insert("a", plan_of(10, 1.0));
  cache.insert("b", plan_of(10, 2.0));
  cache.insert("c", plan_of(10, 3.0));
  EXPECT_EQ(cache.bytes(), 3 * plan);
  ASSERT_TRUE(cache.lookup("a"));  // refresh "a"; "b" is now coldest
  cache.insert("d", plan_of(10, 4.0));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.bytes(), 3 * plan);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.lookup("b"));
  // A plan twice the size pushes out the two coldest of the rest.
  cache.insert("e", plan_of(20, 5.0));
  EXPECT_EQ(cache.evictions(), 3u);
  EXPECT_LE(cache.bytes(), 3 * plan);
  EXPECT_TRUE(cache.lookup("e"));
  EXPECT_TRUE(cache.lookup("d"));
  EXPECT_FALSE(cache.lookup("a"));
  EXPECT_FALSE(cache.lookup("c"));
}

TEST(PlanCacheTest, PlanOverTheByteCapIsNotCached) {
  const std::size_t small = PlanCache::plan_bytes("a", plan_of(2));
  PlanCache cache(16, 4 * small);
  cache.insert("a", plan_of(2));
  cache.insert("big", plan_of(40));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.lookup("big"));
  EXPECT_TRUE(cache.lookup("a"));
  // Outgrowing the cap drops the entry's older, smaller plan too.
  cache.insert("a", plan_of(40));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_FALSE(cache.lookup("a"));
}

TEST(PlanCacheTest, ServiceExportsCachedBytes) {
  ServiceOptions options;
  options.cores = 2;
  SchedulerService service(PowerModel(3.0, 0.1), options);
  ASSERT_TRUE(service.submit(Task{0.0, 10.0, 8.0}).admission.admitted);
  ASSERT_TRUE(service.submit(Task{2.0, 18.0, 14.0}).admission.admitted);
  const Schedule plan = service.current_plan();
  ASSERT_FALSE(plan.segments().empty());
  // The committed set's plan is cached, among others.
  EXPECT_GE(service.metrics().gauge("plan_cache_bytes"),
            static_cast<double>(plan.segments().size() * sizeof(Segment)));

  options.cache_capacity = 0;
  SchedulerService uncached(PowerModel(3.0, 0.1), options);
  ASSERT_TRUE(uncached.submit(Task{0.0, 10.0, 8.0}).admission.admitted);
  EXPECT_EQ(uncached.metrics().gauge("plan_cache_bytes"), 0.0);
}

TEST(PlanSignatureTest, HugeCoordinatesDoNotCollide) {
  // Regression: `llround(x / quantum)` saturates once |x / quantum| leaves
  // the exact long-long range, so every huge coordinate used to collapse
  // onto the same quantized key. With work 1e13 and the default 1e-6
  // quantum, these two distinct sets collided — and the cache would then
  // serve set A's plan for set B.
  const std::vector<std::pair<TaskId, Task>> a = {{0, Task{0.0, 1.0, 1e13}}};
  const std::vector<std::pair<TaskId, Task>> b = {{0, Task{0.0, 1.0, 2e13}}};
  EXPECT_NE(plan_signature(a, 1e-6), plan_signature(b, 1e-6));
}

TEST(PlanSignatureTest, HugeCoordinateSignaturesAreStillDeterministic) {
  const std::vector<std::pair<TaskId, Task>> a = {{0, Task{0.0, 1.0, 1e13}}};
  const std::vector<std::pair<TaskId, Task>> same = {{0, Task{0.0, 1.0, 1e13}}};
  EXPECT_EQ(plan_signature(a, 1e-6), plan_signature(same, 1e-6));
}

TEST(PlanCacheTest, DistinctSetsBeyondTheQuantRangeNeverShareAPlan) {
  const std::vector<std::pair<TaskId, Task>> a = {{0, Task{0.0, 1.0, 1e13}}};
  const std::vector<std::pair<TaskId, Task>> b = {{0, Task{0.0, 1.0, 2e13}}};
  const std::string sig_a = plan_signature(a, 1e-6);
  const std::string sig_b = plan_signature(b, 1e-6);
  ASSERT_NE(sig_a, sig_b);
  PlanCache cache(4);
  cache.insert(sig_a, CachedPlan{1.0, {}});
  EXPECT_FALSE(cache.lookup(sig_b)) << "set B must not be served set A's plan";
}

TEST(PlanCacheTest, ClearKeepsLifetimeStats) {
  PlanCache cache(4);
  cache.insert("a", CachedPlan{1.0, {}});
  ASSERT_TRUE(cache.lookup("a"));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup("a"));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

}  // namespace
}  // namespace easched
