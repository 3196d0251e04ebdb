#include "ppc/plan_cache.h"

#include <gtest/gtest.h>

namespace ppc {
namespace {

std::unique_ptr<PlanNode> Plan(const std::string& table) {
  return MakeSeqScan(table, {});
}

TEST(PlanCacheTest, PutAndGet) {
  PlanCache cache(4);
  cache.Put(1, Plan("a"));
  std::shared_ptr<const PlanNode> plan = cache.Get(1);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->table, "a");
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(PlanCacheTest, MissReturnsNull) {
  PlanCache cache(4);
  EXPECT_EQ(cache.Get(42), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(PlanCacheTest, ContainsDoesNotCountUse) {
  PlanCache cache(4);
  cache.Put(1, Plan("a"));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(PlanCacheTest, PutRefreshesExisting) {
  PlanCache cache(2);
  cache.Put(1, Plan("a"));
  cache.Put(1, Plan("b"));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Get(1)->table, "b");
}

TEST(PlanCacheTest, CapacityEnforced) {
  PlanCache cache(3);
  for (PlanId id = 1; id <= 10; ++id) cache.Put(id, Plan("t"));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 7u);
}

TEST(PlanCacheTest, LowPrecisionEvictedFirst) {
  PlanCache cache(3);
  cache.Put(1, Plan("a"));
  cache.Put(2, Plan("b"));
  cache.Put(3, Plan("c"));
  cache.SetPrecisionScore(1, 0.9);
  cache.SetPrecisionScore(2, 0.2);  // worst predictor
  cache.SetPrecisionScore(3, 0.8);
  cache.Put(4, Plan("d"));
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_TRUE(cache.Contains(4));
}

TEST(PlanCacheTest, LruBreaksPrecisionTies) {
  PlanCache cache(2);
  cache.Put(1, Plan("a"));
  cache.Put(2, Plan("b"));
  cache.Get(1);  // 2 is now least recently used
  cache.Put(3, Plan("c"));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
}

TEST(PlanCacheTest, PrecisionEvictionsCountOnlyVictimsRecencyWouldSpare) {
  PlanCache cache(2);
  cache.Put(1, Plan("a"));
  cache.Put(2, Plan("b"));
  cache.SetPrecisionScore(1, 0.5);  // degraded, but also the oldest
  cache.Put(3, Plan("c"));
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_EQ(cache.precision_evictions(), 0u);
  cache.SetPrecisionScore(3, 0.5);  // degraded and newer than 2
  cache.Put(4, Plan("d"));
  EXPECT_FALSE(cache.Contains(3));
  EXPECT_TRUE(cache.Contains(2));
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_EQ(cache.precision_evictions(), 1u);
}

TEST(PlanCacheTest, EraseAndClear) {
  PlanCache cache(4);
  cache.Put(1, Plan("a"));
  cache.Put(2, Plan("b"));
  cache.Erase(1);
  EXPECT_FALSE(cache.Contains(1));
  cache.Erase(99);  // no-op
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PlanCacheTest, PlanIdsListsContents) {
  PlanCache cache(4);
  cache.Put(5, Plan("a"));
  cache.Put(3, Plan("b"));
  const auto ids = cache.PlanIds();
  EXPECT_EQ(ids.size(), 2u);
  EXPECT_NE(std::find(ids.begin(), ids.end(), 5u), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), 3u), ids.end());
}

TEST(PlanCacheTest, SetPrecisionOnMissingPlanIsNoOp) {
  PlanCache cache(2);
  cache.SetPrecisionScore(42, 0.1);  // must not crash
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PlanCacheTest, GetOutlivesEviction) {
  PlanCache cache(1);
  cache.Put(1, Plan("a"));
  auto plan = cache.Get(1);
  cache.Put(2, Plan("b"));  // evicts 1
  EXPECT_FALSE(cache.Contains(1));
  ASSERT_NE(plan, nullptr);  // still alive for this holder
  EXPECT_EQ(plan->table, "a");
}

TEST(PlanCacheTest, OverwriteResetsPrecisionScore) {
  PlanCache cache(2);
  cache.Put(1, Plan("a"));
  cache.Put(2, Plan("b"));
  cache.SetPrecisionScore(1, 0.05);  // 1 would be the precision victim
  cache.Put(1, Plan("a2"));          // fresh plan: score back to 1.0
  cache.Put(3, Plan("c"));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));  // 2 is older at equal precision
}

}  // namespace
}  // namespace ppc
