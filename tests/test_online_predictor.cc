#include "ppc/online_predictor.h"

#include <gtest/gtest.h>

#include "ppc/metrics.h"
#include "test_util.h"
#include "workload/workload_generator.h"

namespace ppc {
namespace {

using testutil::DriveWorkload;
using testutil::HalfSpacePlan;
using testutil::SyntheticCost;

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

TEST(OnlinePredictorTest, ColdStartOptimizesEverything) {
  OnlinePpcPredictor online(BaseConfig());
  auto decision = online.Decide({0.5, 0.5});
  EXPECT_FALSE(decision.use_prediction);
  EXPECT_FALSE(decision.prediction.has_value());
}

TEST(OnlinePredictorTest, LearnsAndStartsPredicting) {
  OnlinePpcPredictor online(BaseConfig());
  Rng rng(1);
  TrajectoryConfig traj;
  traj.dimensions = 2;
  traj.total_points = 800;
  traj.scatter = 0.02;
  auto metrics = DriveWorkload(&online, RandomTrajectoriesWorkload(traj, &rng));
  EXPECT_GT(metrics.Recall(), 0.3);
  EXPECT_GT(metrics.Precision(), 0.9);
}

TEST(OnlinePredictorTest, OptimizerCallsAreFrontLoaded) {
  // The learning signature (Fig. 11's ramp): as the sample pool grows, the
  // optimizer runs less and less — most NULL decisions happen early.
  OnlinePpcPredictor online(BaseConfig());
  Rng rng(3);
  TrajectoryConfig traj;
  traj.dimensions = 2;
  traj.total_points = 600;
  traj.scatter = 0.02;
  auto workload = RandomTrajectoriesWorkload(traj, &rng);
  size_t first_half_optimizations = 0, second_half_optimizations = 0;
  for (size_t i = 0; i < workload.size(); ++i) {
    auto decision = online.Decide(workload[i]);
    const PlanId truth = HalfSpacePlan(workload[i]);
    if (decision.use_prediction) {
      online.ReportPredictionExecuted(workload[i], decision.prediction,
                                      SyntheticCost(workload[i], truth));
    } else {
      online.ObserveOptimized(
          {workload[i], truth, SyntheticCost(workload[i], truth)});
      (i < workload.size() / 2 ? first_half_optimizations
                               : second_half_optimizations)++;
    }
  }
  EXPECT_GT(first_half_optimizations, second_half_optimizations);
}

TEST(OnlinePredictorTest, NegativeFeedbackFlagsCostMismatch) {
  auto cfg = BaseConfig();
  cfg.negative_feedback = true;
  cfg.cost_error_bound = 0.25;
  OnlinePpcPredictor online(cfg);
  // Teach it plan 1 in a small region with cost ~100.
  Rng rng(5);
  for (int i = 0; i < 400; ++i) {
    std::vector<double> x = {rng.Uniform() * 0.4, rng.Uniform() * 0.4};
    online.ObserveOptimized({x, 1, 100.0});
  }
  auto decision = online.Decide({0.2, 0.2});
  ASSERT_TRUE(decision.use_prediction);
  // Actual cost within bound: no alarm.
  EXPECT_FALSE(
      online.ReportPredictionExecuted({0.2, 0.2}, decision.prediction, 110.0));
  // Actual cost 3x the histogram average: misprediction suspected.
  decision = online.Decide({0.2, 0.2});
  ASSERT_TRUE(decision.use_prediction);
  EXPECT_TRUE(
      online.ReportPredictionExecuted({0.2, 0.2}, decision.prediction, 300.0));
}

TEST(OnlinePredictorTest, NegativeFeedbackDisabledNeverFlags) {
  auto cfg = BaseConfig();
  cfg.negative_feedback = false;
  OnlinePpcPredictor online(cfg);
  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    std::vector<double> x = {rng.Uniform() * 0.4, rng.Uniform() * 0.4};
    online.ObserveOptimized({x, 1, 100.0});
  }
  auto decision = online.Decide({0.2, 0.2});
  ASSERT_TRUE(decision.use_prediction);
  EXPECT_FALSE(online.ReportPredictionExecuted({0.2, 0.2},
                                               decision.prediction, 9999.0));
  // The tracker still records the estimated error.
  EXPECT_LT(online.tracker().TemplatePrecision(), 1.0);
}

TEST(OnlinePredictorTest, RandomInvocationsOccurAtConfiguredRate) {
  auto cfg = BaseConfig();
  cfg.mean_invocation_probability = 0.3;
  OnlinePpcPredictor online(cfg);
  Rng rng(9);
  // Saturate one region so predictions fire constantly.
  for (int i = 0; i < 500; ++i) {
    std::vector<double> x = {rng.Uniform() * 0.4, rng.Uniform() * 0.4};
    online.ObserveOptimized({x, 1, 100.0});
  }
  size_t predictions = 0;
  for (int i = 0; i < 500; ++i) {
    std::vector<double> x = {rng.Uniform() * 0.3, rng.Uniform() * 0.3};
    auto decision = online.Decide(x);
    if (decision.prediction.has_value()) ++predictions;
  }
  EXPECT_GT(online.random_invocations(), 0u);
  EXPECT_LT(online.random_invocations(), predictions);
}

TEST(OnlinePredictorTest, ZeroInvocationProbabilityNeverInvokes) {
  auto cfg = BaseConfig();
  cfg.mean_invocation_probability = 0.0;
  OnlinePpcPredictor online(cfg);
  Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    std::vector<double> x = {rng.Uniform() * 0.4, rng.Uniform() * 0.4};
    online.ObserveOptimized({x, 1, 100.0});
  }
  for (int i = 0; i < 300; ++i) {
    std::vector<double> x = {rng.Uniform() * 0.3, rng.Uniform() * 0.3};
    online.Decide(x);
  }
  EXPECT_EQ(online.random_invocations(), 0u);
}

TEST(OnlinePredictorTest, DriftResetTriggersOnPrecisionCollapse) {
  auto cfg = BaseConfig();
  cfg.estimator_window = 20;
  cfg.reset_precision_threshold = 0.5;
  OnlinePpcPredictor online(cfg);
  Rng rng(13);
  for (int i = 0; i < 400; ++i) {
    std::vector<double> x = {rng.Uniform() * 0.4, rng.Uniform() * 0.4};
    online.ObserveOptimized({x, 1, 100.0});
  }
  EXPECT_GT(online.predictor().TotalSamples(), 0u);
  // Simulate a plan-space change: every prediction now measures a wildly
  // different cost, so the binary estimator keeps reporting errors.
  int fed = 0;
  for (int i = 0; i < 200 && online.reset_count() == 0; ++i) {
    std::vector<double> x = {rng.Uniform() * 0.3, rng.Uniform() * 0.3};
    auto decision = online.Decide(x);
    if (!decision.use_prediction) {
      // After the reset the predictor is empty; stop feeding.
      break;
    }
    online.ReportPredictionExecuted(x, decision.prediction, 100000.0);
    ++fed;
  }
  EXPECT_EQ(online.reset_count(), 1u);
  EXPECT_EQ(online.predictor().TotalSamples(), 0u);
  EXPECT_GE(fed, static_cast<int>(cfg.estimator_window));
}

TEST(OnlinePredictorTest, ReportPredictionOutcomeUpdatesWindowedPrecision) {
  // Exact ground-truth feedback (the predicted-but-evicted path) must move
  // the same Sec. IV-E windows as executed-prediction feedback.
  OnlinePpcPredictor online(BaseConfig());
  Prediction prediction;
  prediction.plan = 7;
  prediction.confidence = 1.0;

  online.ReportPredictionOutcome(prediction, /*true_plan=*/7);
  EXPECT_DOUBLE_EQ(online.TemplatePrecision(), 1.0);
  EXPECT_DOUBLE_EQ(online.PlanPrecision(7), 1.0);

  online.ReportPredictionOutcome(prediction, /*true_plan=*/8);
  EXPECT_DOUBLE_EQ(online.TemplatePrecision(), 0.5);
  EXPECT_DOUBLE_EQ(online.PlanPrecision(7), 0.5);

  const auto stats = online.GetStats();
  EXPECT_EQ(stats.feedback_positive, 1u);
  EXPECT_EQ(stats.feedback_negative, 1u);
  EXPECT_DOUBLE_EQ(stats.precision, 0.5);
  EXPECT_DOUBLE_EQ(stats.beta, 1.0);
  EXPECT_DOUBLE_EQ(stats.recall, 0.5);
}

TEST(OnlinePredictorTest, StatsReflectFeedbackCounters) {
  OnlinePpcPredictor online(BaseConfig());
  Rng rng(5);
  TrajectoryConfig traj;
  traj.dimensions = 2;
  traj.total_points = 300;
  traj.scatter = 0.02;
  DriveWorkload(&online, RandomTrajectoriesWorkload(traj, &rng));
  const auto stats = online.GetStats();
  EXPECT_EQ(stats.optimizer_insertions, online.optimizer_insertions());
  EXPECT_EQ(stats.feedback_positive + stats.feedback_negative,
            online.feedback_positive() + online.feedback_negative());
  EXPECT_GE(stats.beta, 0.0);
  EXPECT_LE(stats.beta, 1.0);
  EXPECT_DOUBLE_EQ(stats.recall, stats.beta * stats.precision);
}

TEST(OnlinePredictorTest, NoResetWhenDisabled) {
  auto cfg = BaseConfig();
  cfg.estimator_window = 10;
  cfg.reset_precision_threshold = 0.0;  // disabled
  OnlinePpcPredictor online(cfg);
  Rng rng(17);
  for (int i = 0; i < 300; ++i) {
    std::vector<double> x = {rng.Uniform() * 0.4, rng.Uniform() * 0.4};
    online.ObserveOptimized({x, 1, 100.0});
  }
  for (int i = 0; i < 100; ++i) {
    std::vector<double> x = {rng.Uniform() * 0.3, rng.Uniform() * 0.3};
    auto decision = online.Decide(x);
    if (decision.use_prediction) {
      online.ReportPredictionExecuted(x, decision.prediction, 100000.0);
    }
  }
  EXPECT_EQ(online.reset_count(), 0u);
}

}  // namespace
}  // namespace ppc
