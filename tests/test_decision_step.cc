#include "ppc/decision_step.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "test_util.h"
#include "workload/workload_generator.h"

namespace ppc {
namespace {

using testutil::HalfSpacePlan;
using testutil::QuadrantPlan;
using testutil::SyntheticCost;

/// A plan oracle over a synthetic plan space. Plan p is a one-scan tree
/// over table "p<id>"; running it at x costs SyntheticCost(x, p) times
/// `execute_scale`, so a wrong plan's cost differs from the right one's.
/// `forced_plan` (when set) overrides the labeler's answer, which lets a
/// test teach the predictor a plan that is wrong at a point.
class FakeOracle final : public PlanOracle {
 public:
  explicit FakeOracle(PlanId (*label)(const std::vector<double>&))
      : label_(label) {}

  static std::unique_ptr<PlanNode> Tree(PlanId plan) {
    return MakeSeqScan("p" + std::to_string(plan), {});
  }

  Result<Optimized> OptimizeAndRun(const std::vector<double>& point) override {
    ++optimize_calls;
    const PlanId plan =
        forced_plan != kNullPlanId ? forced_plan : label_(point);
    return Optimized{plan, Tree(plan), SyntheticCost(point, plan)};
  }

  Result<double> Execute(const PlanNode& plan,
                         const std::vector<double>& point) override {
    ++execute_calls;
    const PlanId id = std::stoull(plan.table.substr(1));
    return SyntheticCost(point, id) * execute_scale;
  }

  PlanId forced_plan = kNullPlanId;
  double execute_scale = 1.0;
  size_t optimize_calls = 0;
  size_t execute_calls = 0;

 private:
  PlanId (*label_)(const std::vector<double>&);
};

OnlinePpcPredictor::Config BaseConfig() {
  OnlinePpcPredictor::Config cfg;
  cfg.predictor.dimensions = 2;
  cfg.predictor.transform_count = 5;
  cfg.predictor.histogram_buckets = 40;
  cfg.predictor.radius = 0.1;
  cfg.predictor.confidence_threshold = 0.7;
  cfg.estimator_window = 50;
  return cfg;
}

/// Points scattered ±0.02 around (`cx`, `cy`).
std::vector<std::vector<double>> Cluster(double cx, double cy, size_t n,
                                         uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> points;
  for (size_t i = 0; i < n; ++i) {
    points.push_back(
        {cx + rng.Uniform(-0.02, 0.02), cy + rng.Uniform(-0.02, 0.02)});
  }
  return points;
}

/// Runs the step at every point of a 200-point cluster around `center`,
/// so the predictor answers there afterwards.
void WarmUp(OnlinePpcPredictor* online, PlanCache* cache, FakeOracle* oracle,
            double center) {
  for (const auto& x : Cluster(center, center, 200, 1)) {
    ASSERT_TRUE(RunDecisionStep(online, cache, oracle, x).ok());
  }
}

const std::vector<double> kPlan1Point = {0.2, 0.2};

TEST(DecisionStepTest, NullPredictionOptimizesObservesAndCaches) {
  OnlinePpcPredictor online(BaseConfig());
  PlanCache cache(8);
  FakeOracle oracle(HalfSpacePlan);
  const StepOutcome step =
      RunDecisionStep(&online, &cache, &oracle, kPlan1Point).value();
  EXPECT_FALSE(step.decision.prediction.has_value());
  EXPECT_FALSE(step.used_prediction);
  EXPECT_FALSE(step.prediction_evicted);
  EXPECT_FALSE(step.suspected);
  ASSERT_TRUE(step.optimized());
  EXPECT_EQ(step.truth.plan, 1u);
  EXPECT_EQ(step.truth.coords, kPlan1Point);
  EXPECT_EQ(step.executed_plan, 1u);
  EXPECT_DOUBLE_EQ(step.executed_cost, SyntheticCost(kPlan1Point, 1));
  EXPECT_EQ(oracle.optimize_calls, 1u);
  EXPECT_EQ(oracle.execute_calls, 0u);
  EXPECT_EQ(online.optimizer_insertions(), 1u);
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_EQ(cache.PrecisionScore(1), online.PlanPrecision(1));
}

TEST(DecisionStepTest, HitWithoutFeedbackRunsTheCachedPlanOnly) {
  OnlinePpcPredictor online(BaseConfig());
  PlanCache cache(8);
  FakeOracle oracle(HalfSpacePlan);
  WarmUp(&online, &cache, &oracle, 0.2);
  const size_t optimize_calls = oracle.optimize_calls;
  const size_t insertions = online.optimizer_insertions();

  const StepOutcome step =
      RunDecisionStep(&online, &cache, &oracle, kPlan1Point).value();
  ASSERT_TRUE(step.used_prediction);
  EXPECT_FALSE(step.suspected);
  EXPECT_FALSE(step.optimized());
  EXPECT_EQ(step.truth.plan, kNullPlanId);
  EXPECT_EQ(step.executed_plan, 1u);
  EXPECT_DOUBLE_EQ(step.executed_cost, SyntheticCost(kPlan1Point, 1));
  EXPECT_EQ(oracle.optimize_calls, optimize_calls);
  EXPECT_EQ(online.optimizer_insertions(), insertions);
  EXPECT_EQ(cache.PrecisionScore(1), online.PlanPrecision(1));
}

TEST(DecisionStepTest, NegativeFeedbackPutsAndScoresTheCorrectivePlan) {
  OnlinePpcPredictor online(BaseConfig());
  PlanCache cache(8);
  FakeOracle oracle(HalfSpacePlan);
  // Teach plan 2 where the truth is plan 1, then make plan 2's runs there
  // cost far more than the histograms learned.
  oracle.forced_plan = 2;
  WarmUp(&online, &cache, &oracle, 0.2);
  ASSERT_FALSE(cache.Contains(1));
  oracle.forced_plan = kNullPlanId;
  oracle.execute_scale = 3.0;
  const size_t optimize_calls = oracle.optimize_calls;

  const StepOutcome step =
      RunDecisionStep(&online, &cache, &oracle, kPlan1Point).value();
  ASSERT_TRUE(step.used_prediction);
  EXPECT_TRUE(step.suspected);
  ASSERT_TRUE(step.optimized());
  // The query was answered by the suspect plan; the optimizer's answer is
  // the truth point.
  EXPECT_EQ(step.executed_plan, 2u);
  EXPECT_DOUBLE_EQ(step.executed_cost, 3.0 * SyntheticCost(kPlan1Point, 2));
  EXPECT_EQ(step.truth.plan, 1u);
  EXPECT_EQ(oracle.optimize_calls, optimize_calls + 1);
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_EQ(cache.PrecisionScore(1), online.PlanPrecision(1));
  // The wrong verdict lowers plan 2's precision, and its rank follows.
  EXPECT_LT(online.PlanPrecision(2), 1.0);
  EXPECT_EQ(cache.PrecisionScore(2), online.PlanPrecision(2));
}

TEST(DecisionStepTest, RandomInvocationOptimizesDespiteAPrediction) {
  auto cfg = BaseConfig();
  cfg.mean_invocation_probability = 1.0;
  OnlinePpcPredictor online(cfg);
  PlanCache cache(8);
  FakeOracle oracle(HalfSpacePlan);
  size_t invocations = 0;
  for (const auto& x : Cluster(0.2, 0.2, 300, 2)) {
    const StepOutcome step =
        RunDecisionStep(&online, &cache, &oracle, x).value();
    if (!step.decision.random_invocation) continue;
    ++invocations;
    EXPECT_TRUE(step.decision.prediction.has_value());
    EXPECT_FALSE(step.used_prediction);
    EXPECT_FALSE(step.prediction_evicted);
    ASSERT_TRUE(step.optimized());
    EXPECT_EQ(step.executed_plan, step.truth.plan);
  }
  EXPECT_GT(invocations, 0u);
  EXPECT_EQ(online.random_invocations(), invocations);
}

TEST(DecisionStepTest, EvictedPredictionIsScoredAgainstTheOptimizer) {
  OnlinePpcPredictor online(BaseConfig());
  PlanCache cache(1);
  FakeOracle oracle(HalfSpacePlan);
  oracle.forced_plan = 2;
  WarmUp(&online, &cache, &oracle, 0.2);
  ASSERT_EQ(online.PlanPrecision(2), 1.0);
  // A capacity-1 cache: caching plan 1 evicts plan 2, which the predictor
  // still names at the point.
  cache.Put(1, FakeOracle::Tree(1));
  ASSERT_FALSE(cache.Contains(2));
  oracle.forced_plan = kNullPlanId;
  const uint64_t negative = online.feedback_negative();

  const StepOutcome step =
      RunDecisionStep(&online, &cache, &oracle, kPlan1Point).value();
  ASSERT_TRUE(step.decision.use_prediction);
  EXPECT_EQ(step.decision.prediction.plan, 2u);
  EXPECT_TRUE(step.prediction_evicted);
  EXPECT_FALSE(step.used_prediction);
  ASSERT_TRUE(step.optimized());
  EXPECT_EQ(step.executed_plan, 1u);
  // The tracker scored the prediction as wrong against the optimizer's
  // exact answer.
  EXPECT_EQ(online.feedback_negative(), negative + 1);
  EXPECT_LT(online.PlanPrecision(2), 1.0);
}

TEST(DecisionStepTest, UnboundedCacheNeverEvicts) {
  OnlinePpcPredictor online(BaseConfig());
  PlanCache cache(SIZE_MAX);
  FakeOracle oracle(QuadrantPlan);
  TrajectoryConfig traj;
  traj.dimensions = 2;
  traj.total_points = 1000;
  traj.scatter = 0.02;
  Rng rng(3);
  size_t predictions_used = 0;
  for (const auto& x : RandomTrajectoriesWorkload(traj, &rng)) {
    const StepOutcome step =
        RunDecisionStep(&online, &cache, &oracle, x).value();
    EXPECT_FALSE(step.prediction_evicted);
    if (step.used_prediction) ++predictions_used;
  }
  EXPECT_GT(predictions_used, 0u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.size(), cache.PlanIds().size());
  EXPECT_LE(cache.size(), 4u);
}

}  // namespace
}  // namespace ppc
