#include "clustering/confidence.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/math_utils.h"
#include "common/rng.h"

namespace ppc {
namespace {

TEST(ConfidenceTest, PureRegionIsFullConfidence) {
  EXPECT_EQ(ConfidenceFromCounts(10.0, 0.0), 1.0);
  EXPECT_EQ(ConfidenceFromCounts(1.0, 0.0), 1.0);
}

TEST(ConfidenceTest, NoSupportIsZero) {
  EXPECT_EQ(ConfidenceFromCounts(0.0, 0.0), 0.0);
  EXPECT_EQ(ConfidenceFromCounts(0.0, 5.0), 0.0);
}

TEST(ConfidenceTest, MinorityMajorityIsZero) {
  // When max_count < other_count the centre lies on the wrong side of any
  // chord; prediction is unsafe.
  EXPECT_EQ(ConfidenceFromCounts(3.0, 7.0), 0.0);
}

TEST(ConfidenceTest, BalancedCountsGiveZeroConfidence) {
  // Equal areas put the chord through the centre: theta = 0.
  EXPECT_NEAR(ConfidenceFromCounts(10.0, 10.0), 0.0, 1e-6);
}

TEST(ConfidenceTest, MonotoneInDominance) {
  double prev = 0.0;
  for (double ratio : {1.5, 2.0, 4.0, 10.0, 100.0}) {
    const double c = ConfidenceFromCounts(ratio, 1.0);
    EXPECT_GT(c, prev) << "ratio=" << ratio;
    prev = c;
  }
  EXPECT_GT(prev, 0.9);  // 100:1 dominance ~ full confidence
}

TEST(ConfidenceTest, ValuesInUnitInterval) {
  for (double max_count : {1.0, 2.0, 5.0, 50.0}) {
    for (double other : {0.0, 0.5, 1.0, 3.0, 100.0}) {
      const double c = ConfidenceFromCounts(max_count, other);
      EXPECT_GE(c, 0.0);
      EXPECT_LE(c, 1.0);
    }
  }
}

TEST(ConfidenceTest, GeometricInterpretation) {
  // With minority fraction f, the chord distance h satisfies
  // segment_area(h) = f * pi. For a 3:1 split (f = 0.25) the chord sits at
  // h ~ 0.404 on the unit circle.
  EXPECT_NEAR(ConfidenceFromCounts(3.0, 1.0), 0.4040, 0.001);
  // 9:1 split (f = 0.1): h ~ 0.6870.
  EXPECT_NEAR(ConfidenceFromCounts(9.0, 1.0), 0.6870, 0.001);
}

TEST(ConfidenceTest, TotalRatioFormMatchesCountsForm) {
  // Algorithm 1 computes ratio = total / density[max].
  for (double max_count : {2.0, 5.0, 10.0}) {
    for (double other : {0.0, 1.0, 4.0}) {
      if (max_count < other) continue;
      const double total = max_count + other;
      EXPECT_NEAR(ConfidenceFromTotalRatio(total / max_count),
                  ConfidenceFromCounts(max_count, other), 1e-9);
    }
  }
}

TEST(ConfidenceTest, TotalRatioBelowOneIsInvalid) {
  EXPECT_EQ(ConfidenceFromTotalRatio(0.5), 0.0);
}

TEST(ConfidenceTest, FractionalCountsSupported) {
  // Histogram range queries return fractional counts.
  const double c = ConfidenceFromCounts(2.5, 0.7);
  EXPECT_GT(c, 0.0);
  EXPECT_LT(c, 1.0);
}

/// Every gamma a bench or the serving stack runs: Table II's sweep, Fig.
/// 3's, the predictor default 0.7 and the serving config's 0.8.
const std::vector<double>& GammasInTheTree() {
  static const std::vector<double> gammas = {0.0,  0.25, 0.5, 0.6, 0.7,
                                             0.75, 0.8,  0.9, 0.95};
  return gammas;
}

double BisectedConfidence(double fraction) {
  return Clamp(ChordDistanceForAreaFraction(fraction), 0.0, 1.0);
}

TEST(ConfidenceGateTest, TheLimitSitsOnTheBisectionsBoundary) {
  for (const double gamma : GammasInTheTree()) {
    const ConfidenceGate gate(gamma);
    const double limit = gate.fraction_limit();
    ASSERT_GT(limit, 0.0) << "gamma " << gamma;
    ASSERT_LE(limit, 0.5) << "gamma " << gamma;
    // The first failing fraction fails, the double below it passes, and
    // so do fractions further off on either side.
    EXPECT_LE(BisectedConfidence(limit), gamma) << "gamma " << gamma;
    EXPECT_GT(BisectedConfidence(std::nextafter(limit, 0.0)), gamma)
        << "gamma " << gamma;
    for (int ulps = 1; ulps <= 64; ++ulps) {
      double above = limit;
      double below = std::nextafter(limit, 0.0);
      for (int i = 0; i < ulps; ++i) {
        above = std::nextafter(above, 1.0);
        below = std::nextafter(below, 0.0);
      }
      EXPECT_LE(BisectedConfidence(std::min(above, 0.5)), gamma);
      EXPECT_GT(BisectedConfidence(below), gamma);
    }
  }
}

TEST(ConfidenceGateTest, PassesExactlyWhenTheBisectionClearsGamma) {
  Rng rng(20261020);
  for (const double base : GammasInTheTree()) {
    // Each gamma and its neighbouring doubles, so a limit off by one
    // pattern on either side would show.
    for (const double gamma :
         {std::nextafter(base, -1.0), base, std::nextafter(base, 2.0)}) {
      const ConfidenceGate gate(gamma);
      const auto check = [&](double max_count, double other_count) {
        EXPECT_EQ(gate.Passes(max_count, other_count),
                  ConfidenceFromCounts(max_count, other_count) > gamma)
            << "gamma " << gamma << " counts " << max_count << ", "
            << other_count;
      };
      // The degenerate branches.
      check(0.0, 0.0);
      check(0.0, 3.0);
      check(4.0, 0.0);
      check(3.0, 7.0);
      check(5.0, 5.0);
      // Counts whose fraction lands within a few ulps of the limit.
      const double limit = gate.fraction_limit();
      for (int k = -8; k <= 8; ++k) {
        double f = limit;
        for (int i = 0; i < std::abs(k); ++i) {
          f = std::nextafter(f, k < 0 ? 0.0 : 1.0);
        }
        if (!(f > 0.0 && f <= 0.5)) continue;
        // other / (1 + other) == f for other = f / (1 - f), up to rounding.
        check(1.0, f / (1.0 - f));
        check(100.0, 100.0 * f / (1.0 - f));
      }
      // Histogram-like fractional counts across the whole range.
      for (int i = 0; i < 2000; ++i) {
        const double max_count = rng.Uniform(0.0, 200.0);
        check(max_count, rng.Uniform(0.0, 1.0) * max_count);
      }
    }
  }
}

}  // namespace
}  // namespace ppc
