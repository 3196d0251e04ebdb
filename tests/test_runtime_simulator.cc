#include "ppc/runtime_simulator.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "test_util.h"
#include "workload/templates.h"
#include "workload/workload_generator.h"

namespace ppc {
namespace {

using testutil::SmallTpch;

RuntimeSimulator::Options BaseOptions() {
  RuntimeSimulator::Options options;
  // The paper's Fig. 13 regime: queries cheap to execute relative to
  // optimization, where plan caching pays off.
  options.cost_to_seconds = 1e-8;
  options.online.predictor.transform_count = 5;
  options.online.predictor.histogram_buckets = 40;
  options.online.predictor.radius = 0.2;
  options.online.predictor.confidence_threshold = 0.8;
  options.online.predictor.noise_fraction = 0.0005;
  return options;
}

std::vector<std::vector<double>> LocalizedWorkload(size_t n) {
  TrajectoryConfig traj;
  // Q5: a 4-parameter, 4-table template. Plan caching pays when
  // optimization is nontrivial; a 2-table DP is cheaper than prediction.
  traj.dimensions = 4;
  traj.total_points = n;
  traj.scatter = 0.01;
  Rng rng(42);
  return RandomTrajectoriesWorkload(traj, &rng);
}

class RuntimeSimulatorTest : public ::testing::Test {
 protected:
  RuntimeSimulatorTest()
      : simulator_(&SmallTpch(), EvaluationTemplate("Q5"), BaseOptions()) {}
  RuntimeSimulator simulator_;
};

TEST_F(RuntimeSimulatorTest, StrategyNames) {
  EXPECT_STREQ(CachingStrategyName(CachingStrategy::kAlwaysOptimize),
               "ALWAYS-OPTIMIZE");
  EXPECT_STREQ(CachingStrategyName(CachingStrategy::kIdeal), "IDEAL");
}

TEST_F(RuntimeSimulatorTest, AlwaysOptimizeCallsOptimizerPerQuery) {
  auto workload = LocalizedWorkload(100);
  auto result =
      simulator_.Run(CachingStrategy::kAlwaysOptimize, workload).value();
  EXPECT_EQ(result.optimizer_calls, 100u);
  EXPECT_EQ(result.predictions_used, 0u);
  EXPECT_GT(result.optimize_seconds, 0.0);
  EXPECT_NEAR(result.MeanSuboptimality(), 1.0, 1e-9);
}

TEST_F(RuntimeSimulatorTest, ConventionalCacheOptimizesOnce) {
  auto workload = LocalizedWorkload(100);
  auto result =
      simulator_.Run(CachingStrategy::kConventionalCache, workload).value();
  EXPECT_EQ(result.optimizer_calls, 1u);
  EXPECT_GE(result.MeanSuboptimality(), 1.0);
}

TEST_F(RuntimeSimulatorTest, IdealHasNoOptimizerTimeAndNoSuboptimality) {
  auto workload = LocalizedWorkload(50);
  auto result = simulator_.Run(CachingStrategy::kIdeal, workload).value();
  EXPECT_EQ(result.optimizer_calls, 0u);
  EXPECT_EQ(result.optimize_seconds, 0.0);
  EXPECT_NEAR(result.MeanSuboptimality(), 1.0, 1e-9);
}

TEST_F(RuntimeSimulatorTest, PpcReducesOptimizerCalls) {
  auto workload = LocalizedWorkload(500);
  auto ppc =
      simulator_.Run(CachingStrategy::kParametricCache, workload).value();
  EXPECT_LT(ppc.optimizer_calls, workload.size());
  EXPECT_GT(ppc.predictions_used, 0u);
}

TEST_F(RuntimeSimulatorTest, PpcExecutionNearOptimal) {
  // Precision is high, so the PPC strategy's mean suboptimality should stay
  // close to 1.
  auto workload = LocalizedWorkload(500);
  auto ppc =
      simulator_.Run(CachingStrategy::kParametricCache, workload).value();
  EXPECT_LT(ppc.MeanSuboptimality(), 1.2);
}

TEST_F(RuntimeSimulatorTest, OrderingIdealFastestAlwaysOptimizeSlowest) {
  auto workload = LocalizedWorkload(400);
  // Execution seconds are deterministic (cost-model replay), but optimizer
  // and predictor seconds are measured wall time; take the min over a few
  // runs so scheduler noise on a loaded host cannot flip the ordering.
  auto min_total = [&](CachingStrategy strategy) {
    double best = simulator_.Run(strategy, workload).value().TotalSeconds();
    for (int i = 0; i < 2; ++i) {
      best = std::min(best,
                      simulator_.Run(strategy, workload).value().TotalSeconds());
    }
    return best;
  };
  const double always = min_total(CachingStrategy::kAlwaysOptimize);
  const double ppc = min_total(CachingStrategy::kParametricCache);
  const double ideal = min_total(CachingStrategy::kIdeal);
  // IDEAL <= PPC: same executions minus all overheads.
  EXPECT_LE(ideal, ppc + 1e-9);
  // PPC < ALWAYS-OPTIMIZE: the whole point of plan caching.
  EXPECT_LT(ppc, always);
}

TEST_F(RuntimeSimulatorTest, ResultRecordsQueryCount) {
  auto workload = LocalizedWorkload(42);
  auto result = simulator_.Run(CachingStrategy::kIdeal, workload).value();
  EXPECT_EQ(result.queries, 42u);
  EXPECT_EQ(result.strategy, CachingStrategy::kIdeal);
}

TEST_F(RuntimeSimulatorTest, EmptyWorkload) {
  auto result = simulator_.Run(CachingStrategy::kParametricCache, {}).value();
  EXPECT_EQ(result.queries, 0u);
  EXPECT_EQ(result.TotalSeconds(), 0.0);
  EXPECT_EQ(result.MeanSuboptimality(), 0.0);
}

TEST_F(RuntimeSimulatorTest, ParametricCacheEvictsByPrecisionOnQ8) {
  // Fig. 13's twin of PpcFrameworkTest.ServingEvictsByPrecision: Q8 has
  // more plans than the 64-plan cache holds, and the simulator's PPC
  // strategy runs the serving path's decision step, so the paper's
  // precision rank (Sec. IV-E), not recency alone, picks some victims.
  const QueryTemplate q8 = EvaluationTemplate("Q8");
  RuntimeSimulator simulator(&SmallTpch(), q8, BaseOptions());
  TrajectoryConfig traj;
  traj.dimensions = q8.ParameterDegree();
  traj.total_points = 1000;
  traj.scatter = 0.01;
  Rng rng(42);
  const auto result = simulator.Run(CachingStrategy::kParametricCache,
                                    RandomTrajectoriesWorkload(traj, &rng));
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result.value().precision_evictions, 1u);
  EXPECT_LE(result.value().precision_evictions, result.value().evictions);
}

}  // namespace
}  // namespace ppc
