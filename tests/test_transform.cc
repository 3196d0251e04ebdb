#include "lsh/transform.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/math_utils.h"

namespace ppc {
namespace {

TEST(TransformTest, DefaultOutputDimsKeepsFullDimensionality) {
  // s = r by default; dimensionality reduction (s < r) is opt-in because
  // it collapses distant plan regions (see bench_ablation_projection).
  EXPECT_EQ(DefaultOutputDims(1), 1);
  EXPECT_EQ(DefaultOutputDims(2), 2);
  EXPECT_EQ(DefaultOutputDims(3), 3);
  EXPECT_EQ(DefaultOutputDims(4), 4);
  EXPECT_EQ(DefaultOutputDims(6), 6);
}

TransformConfig Config2D() {
  TransformConfig cfg;
  cfg.input_dims = 2;
  cfg.output_dims = 2;
  cfg.bits_per_dim = 5;
  return cfg;
}

TEST(TransformTest, OutputDimensionality) {
  Rng rng(1);
  RandomizedTransform t(Config2D(), &rng);
  EXPECT_EQ(t.Apply({0.3, 0.7}).size(), 2u);
  TransformConfig cfg;
  cfg.input_dims = 5;
  cfg.output_dims = 3;
  RandomizedTransform reduce(cfg, &rng);
  EXPECT_EQ(reduce.Apply({0.1, 0.2, 0.3, 0.4, 0.5}).size(), 3u);
}

TEST(TransformTest, ApplyBatchBitIdenticalToScalarApply) {
  // The serving fast path depends on the batch kernel producing the exact
  // bytes the scalar path produces — EXPECT_EQ on doubles, no tolerance.
  for (int r : {1, 2, 3, 5}) {
    TransformConfig cfg;
    cfg.input_dims = r;
    cfg.output_dims = DefaultOutputDims(r);
    Rng rng(77);
    RandomizedTransform t(cfg, &rng);
    Rng points(123);
    const size_t count = 64;
    std::vector<double> flat;
    for (size_t i = 0; i < count * static_cast<size_t>(r); ++i) {
      flat.push_back(points.Uniform());
    }
    std::vector<double> batch(count * static_cast<size_t>(cfg.output_dims));
    t.ApplyBatch(flat.data(), count, batch.data());
    for (size_t p = 0; p < count; ++p) {
      const std::vector<double> x(
          flat.begin() + static_cast<long>(p * static_cast<size_t>(r)),
          flat.begin() + static_cast<long>((p + 1) * static_cast<size_t>(r)));
      const std::vector<double> scalar = t.Apply(x);
      for (size_t j = 0; j < scalar.size(); ++j) {
        EXPECT_EQ(batch[p * scalar.size() + j], scalar[j])
            << "r=" << r << " point " << p << " coord " << j;
      }
    }
  }
}

TEST(TransformTest, LinearizedPositionBatchMatchesScalar) {
  Rng rng(5);
  RandomizedTransform t(Config2D(), &rng);
  Rng points(9);
  const size_t count = 128;
  std::vector<double> flat;
  for (size_t i = 0; i < count * 2; ++i) flat.push_back(points.Uniform());
  std::vector<double> positions(count);
  std::vector<double> transformed(count * 2);
  std::vector<uint32_t> cell(2);
  t.LinearizedPositionBatch(flat.data(), count, positions.data(),
                            transformed.data(), cell.data());
  for (size_t p = 0; p < count; ++p) {
    EXPECT_EQ(positions[p], t.LinearizedPosition({flat[2 * p],
                                                  flat[2 * p + 1]}))
        << "point " << p;
  }
}

TEST(TransformTest, DistancesBoundedBySqrtS) {
  // Each of the s projections onto a unit vector is 1-Lipschitz in the
  // scaled input, so the s-dimensional output distance is at most
  // sqrt(s) times the scaled input distance.
  Rng rng(2);
  RandomizedTransform t(Config2D(), &rng);
  Rng points(3);
  const double bound = std::sqrt(2.0);
  for (int i = 0; i < 200; ++i) {
    std::vector<double> a = {points.Uniform(), points.Uniform()};
    std::vector<double> b = {points.Uniform(), points.Uniform()};
    const double input_dist = EuclideanDistance(a, b) * t.distance_scale();
    const double output_dist = EuclideanDistance(t.Apply(a), t.Apply(b));
    EXPECT_LE(output_dist, bound * input_dist + 1e-9);
  }
}

TEST(TransformTest, PreservesLocalityStatistically) {
  // Nearby points must stay nearby; far points should usually stay far.
  Rng rng(5);
  RandomizedTransform t(Config2D(), &rng);
  Rng points(7);
  double near_out = 0.0, far_out = 0.0;
  const int trials = 500;
  for (int i = 0; i < trials; ++i) {
    std::vector<double> a = {points.Uniform(), points.Uniform()};
    std::vector<double> near = {Clamp(a[0] + 0.01, 0, 1),
                                Clamp(a[1] + 0.01, 0, 1)};
    std::vector<double> far = {points.Uniform(), points.Uniform()};
    near_out += EuclideanDistance(t.Apply(a), t.Apply(near));
    far_out += EuclideanDistance(t.Apply(a), t.Apply(far));
  }
  EXPECT_LT(near_out / trials, 0.2 * (far_out / trials));
}

TEST(TransformTest, CellsWithinGrid) {
  Rng rng(11);
  TransformConfig cfg = Config2D();
  RandomizedTransform t(cfg, &rng);
  const uint32_t cells = uint32_t{1} << cfg.bits_per_dim;
  Rng points(13);
  for (int i = 0; i < 500; ++i) {
    const auto cell = t.Cell({points.Uniform(), points.Uniform()});
    for (uint32_t c : cell) ASSERT_LT(c, cells);
  }
}

TEST(TransformTest, LinearizedPositionInUnitInterval) {
  Rng rng(17);
  RandomizedTransform t(Config2D(), &rng);
  Rng points(19);
  for (int i = 0; i < 200; ++i) {
    const double z = t.LinearizedPosition({points.Uniform(), points.Uniform()});
    ASSERT_GE(z, 0.0);
    ASSERT_LT(z, 1.0);
  }
}

TEST(TransformTest, NearbyPointsOftenShareCell) {
  Rng rng(23);
  RandomizedTransform t(Config2D(), &rng);
  Rng points(29);
  int shared = 0;
  const int trials = 500;
  for (int i = 0; i < trials; ++i) {
    std::vector<double> a = {points.Uniform(), points.Uniform()};
    std::vector<double> b = {Clamp(a[0] + 0.005, 0, 1),
                             Clamp(a[1] + 0.005, 0, 1)};
    if (t.Cell(a) == t.Cell(b)) ++shared;
  }
  EXPECT_GT(shared, trials / 2);
}

TEST(TransformTest, RangeHalfWidthMonotoneInRadius) {
  Rng rng(31);
  RandomizedTransform t(Config2D(), &rng);
  double prev = 0.0;
  for (double d : {0.01, 0.05, 0.1, 0.2, 0.4}) {
    const double delta = t.RangeHalfWidth(d);
    EXPECT_GT(delta, prev);
    EXPECT_LE(delta, 0.5);
    prev = delta;
  }
}

TEST(TransformTest, RangeHalfWidthMatchesSphereVolumeFraction) {
  // 2*delta should equal the hypersphere's share of the grid box volume.
  Rng rng(37);
  TransformConfig cfg = Config2D();
  RandomizedTransform t(cfg, &rng);
  const double d = 0.1;
  const double dt = d * t.distance_scale();
  const double expected =
      0.5 * HypersphereVolume(2, dt) / std::pow(t.grid_extent(), 2.0);
  EXPECT_NEAR(t.RangeHalfWidth(d), expected, 1e-12);
}

TEST(TransformEnsembleTest, ProducesDistinctTransforms) {
  TransformEnsemble ensemble(Config2D(), 5, 41);
  ASSERT_EQ(ensemble.size(), 5u);
  const std::vector<double> p = {0.3, 0.6};
  int distinct = 0;
  for (size_t i = 1; i < ensemble.size(); ++i) {
    if (std::abs(ensemble[i].LinearizedPosition(p) -
                 ensemble[0].LinearizedPosition(p)) > 1e-12) {
      ++distinct;
    }
  }
  EXPECT_GE(distinct, 3);
}

TEST(TransformEnsembleTest, DeterministicForSeed) {
  TransformEnsemble a(Config2D(), 3, 43);
  TransformEnsemble b(Config2D(), 3, 43);
  const std::vector<double> p = {0.8, 0.2};
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].LinearizedPosition(p), b[i].LinearizedPosition(p));
  }
}

TEST(TransformTest, DimensionalityReductionStillLocal) {
  TransformConfig cfg;
  cfg.input_dims = 6;
  cfg.output_dims = 3;
  cfg.bits_per_dim = 5;
  Rng rng(47);
  RandomizedTransform t(cfg, &rng);
  Rng points(53);
  double near_out = 0.0, far_out = 0.0;
  for (int i = 0; i < 300; ++i) {
    std::vector<double> a(6), far(6);
    for (int d = 0; d < 6; ++d) {
      a[static_cast<size_t>(d)] = points.Uniform();
      far[static_cast<size_t>(d)] = points.Uniform();
    }
    std::vector<double> near = a;
    for (double& v : near) v = Clamp(v + 0.01, 0, 1);
    near_out += EuclideanDistance(t.Apply(a), t.Apply(near));
    far_out += EuclideanDistance(t.Apply(a), t.Apply(far));
  }
  EXPECT_LT(near_out, 0.3 * far_out);
}

}  // namespace
}  // namespace ppc
