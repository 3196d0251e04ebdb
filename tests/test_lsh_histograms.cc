#include "ppc/lsh_histograms_predictor.h"

#include <gtest/gtest.h>

#include "common/alloc_counter.h"
#include "common/arena.h"
#include "ppc/metrics.h"
#include "ppc/plan_synopsis.h"
#include "test_util.h"

namespace ppc {
namespace {

using testutil::HalfSpacePlan;
using testutil::SamplePoints;
using testutil::SyntheticCost;

LshHistogramsPredictor::Config BaseConfig() {
  LshHistogramsPredictor::Config cfg;
  cfg.dimensions = 2;
  cfg.transform_count = 5;
  cfg.histogram_buckets = 40;
  cfg.radius = 0.1;
  cfg.confidence_threshold = 0.6;
  return cfg;
}

TEST(PlanSynopsisTest, InsertAndMedianDensity) {
  PlanSynopsis synopsis(3, 16,
                        StreamingHistogram::MergePolicy::kMinVarianceIncrease);
  for (int i = 0; i < 30; ++i) {
    synopsis.Insert(0, 0.2, 10.0);
    synopsis.Insert(1, 0.5, 10.0);
    synopsis.Insert(2, 0.8, 10.0);
  }
  EXPECT_EQ(synopsis.SampleCount(), 30u);
  // Ranges covering each transform's cluster: median of {30, 30, 30}.
  EXPECT_NEAR(testutil::MedianDensity(synopsis, {0.2, 0.5, 0.8}, 0.05), 30.0,
              1.0);
  // Ranges missing all clusters: median 0.
  EXPECT_NEAR(testutil::MedianDensity(synopsis, {0.9, 0.1, 0.3}, 0.05), 0.0,
              0.5);
  // Mixed: {30, 0, 0} -> median 0.
  EXPECT_NEAR(testutil::MedianDensity(synopsis, {0.2, 0.1, 0.3}, 0.05), 0.0,
              0.5);
}

TEST(PlanSynopsisTest, MedianAverageCostSkipsEmptyTransforms) {
  PlanSynopsis synopsis(3, 16,
                        StreamingHistogram::MergePolicy::kMinVarianceIncrease);
  synopsis.Insert(0, 0.2, 100.0);
  synopsis.Insert(1, 0.9, 100.0);  // out of queried range below
  synopsis.Insert(2, 0.2, 100.0);
  const std::vector<ZInterval> intervals = {
      {0.15, 0.25}, {0.15, 0.25}, {0.15, 0.25}};
  const FlatQueryRanges ranges{intervals.data(), nullptr, 3, 1};
  const uint32_t point = 0;
  Arena arena;
  double cost = 0.0;
  synopsis.MedianAverageCosts(ranges, &point, 1, &arena, &cost);
  EXPECT_NEAR(cost, 100.0, 1e-6);
}

/// The per-interval cost arithmetic MedianAverageCosts must reproduce: per
/// transform, c * EstimateAverageCost summed over the point's intervals
/// with EstimateCount c > 0, over their count sum; then the median over
/// the transforms that found any count.
double ReferenceMedianAverageCost(const PlanSynopsis& synopsis,
                                  const FlatQueryRanges& ranges, size_t p) {
  std::vector<double> per_transform;
  for (size_t i = 0; i < synopsis.transform_count(); ++i) {
    const StreamingHistogram& h = synopsis.histogram(i);
    double count = 0.0;
    double cost_sum = 0.0;
    const auto [begin, end] = ranges.Slice(i, p);
    for (const ZInterval* interval = begin; interval != end; ++interval) {
      const double c = h.EstimateCount(interval->lo, interval->hi);
      if (c <= 0.0) continue;
      count += c;
      cost_sum += c * h.EstimateAverageCost(interval->lo, interval->hi);
    }
    if (count > 0.0) per_transform.push_back(cost_sum / count);
  }
  return per_transform.empty() ? 0.0 : Median(per_transform);
}

TEST(PlanSynopsisTest, PointAloneMatchesPointInsideABatch) {
  // A point alone runs in the kernels' scalar tail; inside a batch it
  // may sit in an AVX2 lane. Its per-transform counts and median average
  // cost must not depend on which, and must equal the per-interval
  // EstimateCount / EstimateAverageCost arithmetic: EXPECT_EQ, no
  // tolerance, in both range modes.
  for (bool decomposition : {false, true}) {
    auto cfg = BaseConfig();
    cfg.interval_decomposition = decomposition;
    const LshHistogramsPredictor predictor(cfg);
    const size_t t = static_cast<size_t>(cfg.transform_count);
    PlanSynopsis synopsis(t, cfg.histogram_buckets, cfg.merge_policy);
    Rng rng(29);
    for (int k = 0; k < 2000; ++k) {
      for (size_t i = 0; i < t; ++i) {
        const double u = rng.Uniform();
        synopsis.Insert(i, u * u, rng.Uniform(10.0, 200.0));
      }
    }

    const size_t count = 33;
    std::vector<std::vector<std::vector<ZInterval>>> per_point;
    Rng probe(31);
    for (size_t p = 0; p < count; ++p) {
      per_point.push_back(
          predictor.QueryRanges({probe.Uniform(), probe.Uniform()}));
    }
    // Points [first, first + n) laid out flat and transform-major.
    auto flatten = [&](size_t first, size_t n,
                       std::vector<ZInterval>* intervals,
                       std::vector<uint32_t>* offsets) {
      *offsets = {0};
      for (size_t i = 0; i < t; ++i) {
        for (size_t p = first; p < first + n; ++p) {
          intervals->insert(intervals->end(), per_point[p][i].begin(),
                            per_point[p][i].end());
          offsets->push_back(static_cast<uint32_t>(intervals->size()));
        }
      }
      return FlatQueryRanges{intervals->data(),
                             decomposition ? offsets->data() : nullptr, t, n};
    };
    std::vector<ZInterval> batch_intervals;
    std::vector<uint32_t> batch_offsets;
    const FlatQueryRanges batch =
        flatten(0, count, &batch_intervals, &batch_offsets);
    std::vector<double> interval_counts(batch.MaxTransformIntervals());
    std::vector<double> batch_counts(t * count);
    synopsis.BatchTransformCounts(batch, interval_counts.data(),
                                  batch_counts.data());
    std::vector<uint32_t> all(count);
    for (size_t p = 0; p < count; ++p) all[p] = static_cast<uint32_t>(p);
    Arena arena;
    std::vector<double> batch_costs(count);
    synopsis.MedianAverageCosts(batch, all.data(), count, &arena,
                                batch_costs.data());

    size_t costed = 0;
    for (size_t p = 0; p < count; ++p) {
      std::vector<ZInterval> alone_intervals;
      std::vector<uint32_t> alone_offsets;
      const FlatQueryRanges alone =
          flatten(p, 1, &alone_intervals, &alone_offsets);
      std::vector<double> alone_counts(t);
      synopsis.BatchTransformCounts(alone, interval_counts.data(),
                                    alone_counts.data());
      for (size_t i = 0; i < t; ++i) {
        double reference = 0.0;
        const auto [begin, end] = alone.Slice(i, 0);
        for (const ZInterval* interval = begin; interval != end; ++interval) {
          reference +=
              synopsis.histogram(i).EstimateCount(interval->lo, interval->hi);
        }
        EXPECT_EQ(alone_counts[i], batch_counts[i * count + p])
            << "decomposition " << decomposition << " point " << p
            << " transform " << i;
        EXPECT_EQ(alone_counts[i], reference)
            << "decomposition " << decomposition << " point " << p
            << " transform " << i;
      }
      const uint32_t only = 0;
      double alone_cost = 0.0;
      synopsis.MedianAverageCosts(alone, &only, 1, &arena, &alone_cost);
      EXPECT_EQ(alone_cost, batch_costs[p])
          << "decomposition " << decomposition << " point " << p;
      EXPECT_EQ(alone_cost, ReferenceMedianAverageCost(synopsis, alone, 0))
          << "decomposition " << decomposition << " point " << p;
      costed += alone_cost > 0.0 ? 1 : 0;
    }
    // The comparison is only meaningful if the points found support.
    EXPECT_GT(costed, count / 2) << "decomposition " << decomposition;
  }
}

TEST(PlanSynopsisTest, SpaceBytes) {
  PlanSynopsis synopsis(5, 40,
                        StreamingHistogram::MergePolicy::kMinVarianceIncrease);
  EXPECT_EQ(synopsis.SpaceBytes(), 5u * 40u * 12u);
}

TEST(PlanSynopsisTest, ClearEmpties) {
  PlanSynopsis synopsis(2, 16,
                        StreamingHistogram::MergePolicy::kMinVarianceIncrease);
  synopsis.Insert(0, 0.5, 1.0);
  synopsis.Insert(1, 0.5, 1.0);
  synopsis.Clear();
  EXPECT_EQ(synopsis.SampleCount(), 0u);
}

TEST(LshHistogramsTest, EmptyPredictorIsNull) {
  LshHistogramsPredictor predictor(BaseConfig());
  EXPECT_FALSE(predictor.Predict({0.5, 0.5}).has_value());
  EXPECT_EQ(predictor.SpaceBytes(), 0u);
}

TEST(LshHistogramsTest, LearnsHalfSpace) {
  Rng rng(1);
  LshHistogramsPredictor predictor(BaseConfig(),
                                   SamplePoints(2, 2000, HalfSpacePlan, &rng));
  MetricsAccumulator metrics;
  Rng test_rng(2);
  for (int i = 0; i < 500; ++i) {
    std::vector<double> x = {test_rng.Uniform(), test_rng.Uniform()};
    metrics.Record(predictor.Predict(x).plan, HalfSpacePlan(x));
  }
  EXPECT_GT(metrics.Precision(), 0.9);
  EXPECT_GT(metrics.Recall(), 0.5);
}

TEST(LshHistogramsTest, PredictBatchBitIdenticalToScalarPredict) {
  // A point's answer must not depend on its batch: a 100-point
  // PredictBatch (probe kernels) and Predict, a batch of one (direct
  // histogram estimates), must return byte-identical plans, confidences
  // and cost estimates — EXPECT_EQ, no tolerance. Exercise both Z-range
  // modes and a non-zero noise floor.
  for (bool decomposition : {false, true}) {
    auto cfg = BaseConfig();
    cfg.interval_decomposition = decomposition;
    cfg.noise_fraction = 0.002;
    Rng rng(11);
    LshHistogramsPredictor predictor(
        cfg, SamplePoints(2, 2000, HalfSpacePlan, &rng));
    Rng probe(13);
    const size_t count = 100;
    std::vector<double> flat;
    for (size_t i = 0; i < count * 2; ++i) flat.push_back(probe.Uniform());
    const std::vector<Prediction> batch =
        predictor.PredictBatch(flat.data(), count);
    ASSERT_EQ(batch.size(), count);
    for (size_t p = 0; p < count; ++p) {
      const Prediction scalar =
          predictor.Predict({flat[2 * p], flat[2 * p + 1]});
      EXPECT_EQ(batch[p].plan, scalar.plan) << "point " << p;
      EXPECT_EQ(batch[p].confidence, scalar.confidence) << "point " << p;
      EXPECT_EQ(batch[p].estimated_cost, scalar.estimated_cost)
          << "point " << p;
    }
  }
}

TEST(LshHistogramsTest, PredictBatchIntoAllocatesNothingAfterWarmup) {
  // The serving-path contract this PR introduces: once the thread-local
  // arena and scratch buffers are warm, a whole batched prediction
  // performs zero heap allocations. Two warm-up calls, not one — the
  // arena consolidates multi-block state at the start of the second call.
  auto cfg = BaseConfig();
  cfg.noise_fraction = 0.002;
  Rng rng(17);
  LshHistogramsPredictor predictor(
      cfg, SamplePoints(2, 2000, HalfSpacePlan, &rng));
  Rng probe(19);
  const size_t count = 64;
  std::vector<double> flat;
  for (size_t i = 0; i < count * 2; ++i) flat.push_back(probe.Uniform());
  std::vector<Prediction> out(count);
  predictor.PredictBatchInto(flat.data(), count, out.data());
  predictor.PredictBatchInto(flat.data(), count, out.data());
  const uint64_t before = ThreadAllocationCount();
  predictor.PredictBatchInto(flat.data(), count, out.data());
  EXPECT_EQ(ThreadAllocationCount(), before)
      << "warm PredictBatchInto must not touch the heap";
  // And it still answers: the warm path is the real path, not a stub.
  size_t answered = 0;
  for (const Prediction& p : out) answered += p.has_value() ? 1 : 0;
  EXPECT_GT(answered, 0u);
}

TEST(LshHistogramsTest, PredictBatchOnEmptyPredictorReturnsNulls) {
  LshHistogramsPredictor predictor(BaseConfig());
  const std::vector<double> flat = {0.1, 0.2, 0.8, 0.9};
  const std::vector<Prediction> batch = predictor.PredictBatch(flat.data(), 2);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_FALSE(batch[0].has_value());
  EXPECT_FALSE(batch[1].has_value());
  EXPECT_TRUE(predictor.PredictBatch(flat.data(), 0).empty());
}

TEST(LshHistogramsTest, EstimateCostApproximatesLocalAverage) {
  Rng rng(3);
  LshHistogramsPredictor predictor(BaseConfig(),
                                   SamplePoints(2, 2000, HalfSpacePlan, &rng));
  const std::vector<double> x = {0.2, 0.2};
  const double estimated = predictor.EstimateCost(x, 1);
  // Plan-1 costs over its region span ~[100, 118]; the local average near
  // (0.2, 0.2) is ~104, but bounded-bucket smearing widens this.
  EXPECT_GT(estimated, 95.0);
  EXPECT_LT(estimated, 125.0);
  // A plan with no samples anywhere: no estimate.
  EXPECT_EQ(predictor.EstimateCost(x, 999), 0.0);
}

TEST(LshHistogramsTest, NoiseEliminationSuppressesSparsePlans) {
  // A handful of mislabeled points should not survive the noise floor.
  Rng rng(5);
  auto sample = SamplePoints(2, 2000, HalfSpacePlan, &rng);
  // Inject 5 noise points of plan 77 scattered in plan 1's region.
  for (int i = 0; i < 5; ++i) {
    sample.push_back({{0.05 + 0.02 * i, 0.1}, 77, 1.0});
  }
  auto strict_cfg = BaseConfig();
  strict_cfg.noise_fraction = 0.005;  // floor = 10 points
  LshHistogramsPredictor with_noise_elim(strict_cfg, sample);
  auto lax_cfg = BaseConfig();
  lax_cfg.noise_fraction = 0.0;
  LshHistogramsPredictor without(lax_cfg, sample);

  // With elimination, plan 77's density is clamped to zero, so plan 1
  // retains full confidence at the injection site.
  const auto strict_pred = with_noise_elim.Predict({0.09, 0.1});
  EXPECT_EQ(strict_pred.plan, 1u);
  // And the sparse plan can never be predicted anywhere.
  Rng probe(7);
  for (int i = 0; i < 200; ++i) {
    std::vector<double> x = {probe.Uniform(), probe.Uniform()};
    EXPECT_NE(with_noise_elim.Predict(x).plan, 77u);
  }
  (void)without;
}

TEST(LshHistogramsTest, ResetDropsEverything) {
  Rng rng(9);
  LshHistogramsPredictor predictor(BaseConfig(),
                                   SamplePoints(2, 500, HalfSpacePlan, &rng));
  EXPECT_GT(predictor.TotalSamples(), 0u);
  EXPECT_GT(predictor.DistinctPlans(), 0u);
  predictor.Reset();
  EXPECT_EQ(predictor.TotalSamples(), 0u);
  EXPECT_EQ(predictor.DistinctPlans(), 0u);
  EXPECT_FALSE(predictor.Predict({0.2, 0.2}).has_value());
}

TEST(LshHistogramsTest, SpaceScalesWithPlansAndTransformsAndBuckets) {
  auto cfg = BaseConfig();
  cfg.transform_count = 3;
  cfg.histogram_buckets = 20;
  LshHistogramsPredictor predictor(cfg);
  predictor.Insert({{0.2, 0.2}, 1, 1.0});
  EXPECT_EQ(predictor.SpaceBytes(), 3u * 20u * 12u);
  predictor.Insert({{0.8, 0.8}, 2, 1.0});
  EXPECT_EQ(predictor.SpaceBytes(), 2u * 3u * 20u * 12u);
}

TEST(LshHistogramsTest, MoreBucketsImproveRecall) {
  Rng rng(11);
  auto sample = SamplePoints(2, 3000, HalfSpacePlan, &rng);
  auto coarse_cfg = BaseConfig();
  coarse_cfg.histogram_buckets = 6;
  auto fine_cfg = BaseConfig();
  fine_cfg.histogram_buckets = 80;
  LshHistogramsPredictor coarse(coarse_cfg, sample);
  LshHistogramsPredictor fine(fine_cfg, sample);
  MetricsAccumulator coarse_m, fine_m;
  Rng test_rng(13);
  for (int i = 0; i < 600; ++i) {
    std::vector<double> x = {test_rng.Uniform(), test_rng.Uniform()};
    coarse_m.Record(coarse.Predict(x).plan, HalfSpacePlan(x));
    fine_m.Record(fine.Predict(x).plan, HalfSpacePlan(x));
  }
  EXPECT_GT(fine_m.Recall(), coarse_m.Recall());
}

TEST(LshHistogramsTest, HighDimensionalInputWithReduction) {
  // 6-dimensional plan space explicitly reduced to s = 3 (the paper's
  // "s << r when dimensionality reduction is necessary"). At high
  // dimensions the radius must grow for the query ball to hold comparable
  // sample mass (the paper likewise averages over radii up to d = 0.2).
  auto cfg = BaseConfig();
  cfg.dimensions = 6;
  cfg.output_dims = 3;
  cfg.radius = 0.25;
  Rng rng(17);
  auto label = [](const std::vector<double>& x) -> PlanId {
    return x[0] + x[1] + x[2] < 1.5 ? 1 : 2;
  };
  LshHistogramsPredictor predictor(cfg, SamplePoints(6, 4000, label, &rng));
  MetricsAccumulator metrics;
  Rng test_rng(19);
  for (int i = 0; i < 400; ++i) {
    std::vector<double> x(6);
    for (double& v : x) v = test_rng.Uniform();
    metrics.Record(predictor.Predict(x).plan, label(x));
  }
  // Uniform sampling of a 6-D space is sparse (about 5 samples per query
  // ball) and the 6->3 reduction blurs the boundary, so recall is modest —
  // the confidence gate must keep precision high regardless.
  EXPECT_GT(metrics.Precision(), 0.8);
  EXPECT_GT(metrics.Recall(), 0.05);
}

TEST(LshHistogramsTest, QueryRangesClampedToHistogramDomain) {
  // Regression: near a plan-space corner, T(x) +/- delta used to spill
  // outside [0, 1] — outside the histogram's domain. The interval must
  // instead slide inward, keeping both its clamp AND its full 2*delta
  // curve coverage.
  auto cfg = BaseConfig();
  cfg.radius = 0.2;  // wide delta so corners definitely overflow
  LshHistogramsPredictor predictor(cfg);

  const std::vector<std::vector<double>> probes = {
      {0.0, 0.0}, {1.0, 1.0}, {0.0, 1.0}, {1.0, 0.0}};
  const auto center_ranges = predictor.QueryRanges({0.5, 0.5});
  for (const auto& x : probes) {
    const auto ranges = predictor.QueryRanges(x);
    ASSERT_EQ(ranges.size(), center_ranges.size());
    for (size_t t = 0; t < ranges.size(); ++t) {
      ASSERT_EQ(ranges[t].size(), 1u);
      const ZInterval& iv = ranges[t][0];
      EXPECT_GE(iv.lo, 0.0);
      EXPECT_LE(iv.hi, 1.0);
      EXPECT_LE(iv.lo, iv.hi);
      // Sliding preserves the curve length the center point gets.
      EXPECT_NEAR(iv.width(), center_ranges[t][0].width(), 1e-12);
    }
  }
}

TEST(LshHistogramsTest, DeterministicForSeed) {
  Rng rng_a(21), rng_b(21);
  auto cfg = BaseConfig();
  LshHistogramsPredictor a(cfg, SamplePoints(2, 500, HalfSpacePlan, &rng_a));
  LshHistogramsPredictor b(cfg, SamplePoints(2, 500, HalfSpacePlan, &rng_b));
  Rng test_rng(23);
  for (int i = 0; i < 100; ++i) {
    std::vector<double> x = {test_rng.Uniform(), test_rng.Uniform()};
    const auto pa = a.Predict(x);
    const auto pb = b.Predict(x);
    EXPECT_EQ(pa.plan, pb.plan);
    EXPECT_EQ(pa.confidence, pb.confidence);
  }
}

}  // namespace
}  // namespace ppc
