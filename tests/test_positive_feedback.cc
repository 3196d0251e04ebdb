#include <gtest/gtest.h>

#include "ppc/online_predictor.h"
#include "test_util.h"
#include "workload/workload_generator.h"

namespace ppc {
namespace {

using testutil::DriveWorkload;

OnlinePpcPredictor::Config BaseConfig() {
  OnlinePpcPredictor::Config cfg;
  cfg.predictor.dimensions = 2;
  cfg.predictor.transform_count = 5;
  cfg.predictor.histogram_buckets = 40;
  cfg.predictor.radius = 0.1;
  cfg.predictor.confidence_threshold = 0.7;
  cfg.estimator_window = 100;
  return cfg;
}

std::vector<std::vector<double>> Workload(size_t n, uint64_t seed) {
  TrajectoryConfig traj;
  traj.dimensions = 2;
  traj.total_points = n;
  traj.scatter = 0.02;
  Rng rng(seed);
  return RandomTrajectoriesWorkload(traj, &rng);
}

TEST(PositiveFeedbackTest, DisabledByDefault) {
  OnlinePpcPredictor online(BaseConfig());
  DriveWorkload(&online, Workload(500, 1));
  EXPECT_EQ(online.positive_feedback_insertions(), 0u);
  EXPECT_GT(online.optimizer_insertions(), 0u);
}

TEST(PositiveFeedbackTest, InsertsSelfLabeledPointsWhenEnabled) {
  auto cfg = BaseConfig();
  cfg.positive_feedback = true;
  cfg.positive_feedback_confidence = 0.9;
  OnlinePpcPredictor online(cfg);
  DriveWorkload(&online, Workload(500, 2));
  EXPECT_GT(online.positive_feedback_insertions(), 0u);
  // Total predictor samples = optimizer + positive-feedback insertions.
  EXPECT_EQ(online.predictor().TotalSamples(),
            online.optimizer_insertions() +
                online.positive_feedback_insertions());
}

TEST(PositiveFeedbackTest, CapEnforcedRelativeToOptimizerPool) {
  auto cfg = BaseConfig();
  cfg.positive_feedback = true;
  cfg.positive_feedback_confidence = 0.0;  // accept everything
  cfg.positive_feedback_max_ratio = 0.25;
  OnlinePpcPredictor online(cfg);
  DriveWorkload(&online, Workload(1500, 3));
  EXPECT_LE(static_cast<double>(online.positive_feedback_insertions()),
            0.25 * static_cast<double>(online.optimizer_insertions()) + 1.0);
}

TEST(PositiveFeedbackTest, ReducesOptimizerCalls) {
  // The paper's motivation: positive feedback shortens warm-up / raises
  // recall, i.e. fewer optimizer invocations over the same workload.
  auto workload = Workload(1200, 4);
  OnlinePpcPredictor without(BaseConfig());
  auto with_cfg = BaseConfig();
  with_cfg.positive_feedback = true;
  with_cfg.positive_feedback_confidence = 0.9;
  with_cfg.positive_feedback_max_ratio = 2.0;
  OnlinePpcPredictor with_pf(with_cfg);
  DriveWorkload(&without, workload);
  DriveWorkload(&with_pf, workload);
  // More total samples -> denser support -> at least as many predictions.
  EXPECT_GE(with_pf.predictor().TotalSamples(),
            without.predictor().TotalSamples());
  EXPECT_GT(with_pf.positive_feedback_insertions(), 0u);
}

TEST(PositiveFeedbackTest, LowConfidencePredictionsNotSelfInserted) {
  auto cfg = BaseConfig();
  cfg.positive_feedback = true;
  cfg.positive_feedback_confidence = 1.01;  // unreachable
  OnlinePpcPredictor online(cfg);
  DriveWorkload(&online, Workload(500, 5));
  EXPECT_EQ(online.positive_feedback_insertions(), 0u);
}

}  // namespace
}  // namespace ppc
