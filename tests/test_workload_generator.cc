#include "workload/workload_generator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/math_utils.h"

namespace ppc {
namespace {

TEST(UniformSampleTest, CountAndBounds) {
  Rng rng(1);
  auto points = UniformPlanSpaceSample(3, 500, &rng);
  ASSERT_EQ(points.size(), 500u);
  for (const auto& p : points) {
    ASSERT_EQ(p.size(), 3u);
    for (double v : p) {
      ASSERT_GE(v, 0.0);
      ASSERT_LT(v, 1.0);
    }
  }
}

TEST(UniformSampleTest, CoversSpace) {
  Rng rng(2);
  auto points = UniformPlanSpaceSample(2, 2000, &rng);
  int quadrants[4] = {0, 0, 0, 0};
  for (const auto& p : points) {
    ++quadrants[(p[0] < 0.5 ? 0 : 1) + (p[1] < 0.5 ? 0 : 2)];
  }
  for (int q : quadrants) {
    EXPECT_GT(q, 350);
    EXPECT_LT(q, 650);
  }
}

TEST(UniformSampleTest, Deterministic) {
  Rng a(7), b(7);
  EXPECT_EQ(UniformPlanSpaceSample(2, 10, &a),
            UniformPlanSpaceSample(2, 10, &b));
}

TEST(TrajectoryTest, CountAndBounds) {
  TrajectoryConfig cfg;
  cfg.dimensions = 4;
  cfg.total_points = 1000;
  Rng rng(3);
  auto points = RandomTrajectoriesWorkload(cfg, &rng);
  ASSERT_EQ(points.size(), 1000u);
  for (const auto& p : points) {
    ASSERT_EQ(p.size(), 4u);
    for (double v : p) {
      ASSERT_GE(v, 0.0);
      ASSERT_LE(v, 1.0);
    }
  }
}

TEST(TrajectoryTest, ConsecutivePointsAreLocal) {
  // Within a trajectory, consecutive points should be far closer than
  // independent uniform samples (mean distance ~0.52 in 2D).
  TrajectoryConfig cfg;
  cfg.dimensions = 2;
  cfg.total_points = 1000;
  cfg.scatter = 0.01;
  cfg.step = 0.02;
  Rng rng(5);
  auto points = RandomTrajectoriesWorkload(cfg, &rng);
  double mean_step = 0.0;
  size_t count = 0;
  const size_t per_trajectory = 100;
  for (size_t i = 1; i < points.size(); ++i) {
    if (i % per_trajectory == 0) continue;  // trajectory boundary
    mean_step += EuclideanDistance(points[i - 1], points[i]);
    ++count;
  }
  mean_step /= static_cast<double>(count);
  EXPECT_LT(mean_step, 0.15);
}

TEST(TrajectoryTest, LargerScatterSpreadsPoints) {
  auto mean_step_for = [](double scatter) {
    TrajectoryConfig cfg;
    cfg.dimensions = 2;
    cfg.total_points = 500;
    cfg.scatter = scatter;
    Rng rng(11);
    auto points = RandomTrajectoriesWorkload(cfg, &rng);
    double total = 0.0;
    for (size_t i = 1; i < points.size(); ++i) {
      total += EuclideanDistance(points[i - 1], points[i]);
    }
    return total / static_cast<double>(points.size() - 1);
  };
  EXPECT_GT(mean_step_for(0.08), mean_step_for(0.01));
}

TEST(TrajectoryTest, UsesConfiguredTrajectoryCount) {
  // With a single trajectory the walk is one continuous path; with many,
  // there are large jumps at trajectory boundaries.
  TrajectoryConfig cfg;
  cfg.dimensions = 2;
  cfg.total_points = 400;
  cfg.trajectory_count = 10;
  cfg.scatter = 0.005;
  Rng rng(13);
  auto points = RandomTrajectoriesWorkload(cfg, &rng);
  int big_jumps = 0;
  for (size_t i = 1; i < points.size(); ++i) {
    if (EuclideanDistance(points[i - 1], points[i]) > 0.3) ++big_jumps;
  }
  EXPECT_GE(big_jumps, 3);  // most of the 9 boundaries jump far
}

TEST(TrajectoryTest, Deterministic) {
  TrajectoryConfig cfg;
  Rng a(17), b(17);
  EXPECT_EQ(RandomTrajectoriesWorkload(cfg, &a),
            RandomTrajectoriesWorkload(cfg, &b));
}

}  // namespace
}  // namespace ppc
