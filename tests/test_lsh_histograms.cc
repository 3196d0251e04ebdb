#include "ppc/lsh_histograms_predictor.h"

#include <gtest/gtest.h>

#include <map>

#include "clustering/confidence.h"
#include "common/alloc_counter.h"
#include "ppc/metrics.h"
#include "lsh/transform.h"
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
  const FlatQueryRanges ranges{intervals.data(), 3, 1};
  std::vector<double> counts(3), cost_sums(3);
  synopsis.SweepRanges(ranges, counts.data(), cost_sums.data());
  std::vector<SlotCost> costs;
  for (size_t i = 0; i < 3; ++i) {
    costs.push_back(SlotCostOf(counts[i], cost_sums[i]));
  }
  std::vector<double> scratch(3);
  EXPECT_NEAR(MedianCostEstimate(costs.data(), 3, scratch.data()), 100.0,
              1e-6);
}

/// The cost arithmetic SweepRanges must reproduce: per transform,
/// c * EstimateAverageCost over the point's EstimateCount c, where c > 0;
/// then the median over the transforms that found any count.
double ReferenceMedianAverageCost(const PlanSynopsis& synopsis,
                                  const FlatQueryRanges& ranges, size_t p) {
  std::vector<double> per_transform;
  for (size_t i = 0; i < synopsis.transform_count(); ++i) {
    const StreamingHistogram& h = synopsis.histogram(i);
    const ZInterval& interval = ranges.intervals[i * ranges.point_count + p];
    const double c = h.EstimateCount(interval.lo, interval.hi);
    if (c <= 0.0) continue;
    per_transform.push_back(
        c * h.EstimateAverageCost(interval.lo, interval.hi) / c);
  }
  return per_transform.empty() ? 0.0 : Median(per_transform);
}

TEST(PlanSynopsisTest, PointAloneMatchesPointInsideABatch) {
  // A point alone runs in the kernels' scalar tail; inside a batch it
  // may sit in an AVX2 lane. Its per-transform counts and median average
  // cost must not depend on which, and must equal the EstimateCount /
  // EstimateAverageCost arithmetic: EXPECT_EQ, no tolerance.
  const auto cfg = BaseConfig();
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
  std::vector<std::vector<ZInterval>> per_point;
  Rng probe(31);
  for (size_t p = 0; p < count; ++p) {
    per_point.push_back(
        predictor.QueryRanges({probe.Uniform(), probe.Uniform()}));
  }
  // Points [first, first + n) laid out flat and transform-major.
  auto flatten = [&](size_t first, size_t n,
                     std::vector<ZInterval>* intervals) {
    for (size_t i = 0; i < t; ++i) {
      for (size_t p = first; p < first + n; ++p) {
        intervals->push_back(per_point[p][i]);
      }
    }
    return FlatQueryRanges{intervals->data(), t, n};
  };
  std::vector<ZInterval> batch_intervals;
  const FlatQueryRanges batch = flatten(0, count, &batch_intervals);
  std::vector<double> batch_counts(batch.IntervalCount());
  std::vector<double> batch_cost_sums(batch.IntervalCount());
  synopsis.SweepRanges(batch, batch_counts.data(), batch_cost_sums.data());
  std::vector<double> scratch(t);

  size_t costed = 0;
  for (size_t p = 0; p < count; ++p) {
    std::vector<ZInterval> alone_intervals;
    const FlatQueryRanges alone = flatten(p, 1, &alone_intervals);
    std::vector<double> alone_counts(t);
    std::vector<double> alone_cost_sums(t);
    synopsis.SweepRanges(alone, alone_counts.data(), alone_cost_sums.data());
    std::vector<SlotCost> alone_costs(t);
    std::vector<SlotCost> batch_costs(t);
    for (size_t i = 0; i < t; ++i) {
      const size_t k = i * count + p;
      alone_costs[i] = SlotCostOf(alone_counts[i], alone_cost_sums[i]);
      batch_costs[i] = SlotCostOf(batch_counts[k], batch_cost_sums[k]);
      const ZInterval& interval = alone_intervals[i];
      const double reference =
          synopsis.histogram(i).EstimateCount(interval.lo, interval.hi);
      EXPECT_EQ(alone_counts[i], batch_counts[k])
          << "point " << p << " transform " << i;
      EXPECT_EQ(alone_counts[i], reference)
          << "point " << p << " transform " << i;
      EXPECT_EQ(alone_costs[i].count, batch_costs[i].count)
          << "point " << p << " transform " << i;
      EXPECT_EQ(alone_costs[i].cost, batch_costs[i].cost)
          << "point " << p << " transform " << i;
    }
    const double alone_cost =
        MedianCostEstimate(alone_costs.data(), t, scratch.data());
    EXPECT_EQ(alone_cost,
              MedianCostEstimate(batch_costs.data(), t, scratch.data()))
        << "point " << p;
    EXPECT_EQ(alone_cost, ReferenceMedianAverageCost(synopsis, alone, 0))
        << "point " << p;
    costed += alone_cost > 0.0 ? 1 : 0;
  }
  // The comparison is only meaningful if the points found support.
  EXPECT_GT(costed, count / 2);
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
  // and cost estimates — EXPECT_EQ, no tolerance. Exercise a non-zero
  // noise floor.
  auto cfg = BaseConfig();
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

/// The synopsis `predictor` keeps for `plan` after learning `sample`,
/// rebuilt outside it: the same transform ensemble (generation 0 draws it
/// from the config's seed), fed that plan's samples in order.
PlanSynopsis SynopsisOf(const LshHistogramsPredictor::Config& cfg,
                        const std::vector<LabeledPoint>& sample,
                        PlanId plan) {
  TransformConfig tc;
  tc.input_dims = cfg.dimensions;
  tc.output_dims = DefaultOutputDims(cfg.dimensions);
  tc.bits_per_dim = cfg.bits_per_dim;
  const TransformEnsemble transforms(tc, cfg.transform_count, cfg.seed);
  PlanSynopsis synopsis(transforms.size(), cfg.histogram_buckets,
                        cfg.merge_policy);
  for (const LabeledPoint& point : sample) {
    if (point.plan != plan) continue;
    for (size_t i = 0; i < transforms.size(); ++i) {
      synopsis.Insert(i, transforms[i].LinearizedPosition(point.coords),
                      point.cost);
    }
  }
  return synopsis;
}

/// `x`'s query ranges, as the predictor builds them, in one flat
/// single-point batch backed by `intervals`.
FlatQueryRanges FlatRangesOf(const LshHistogramsPredictor& predictor,
                             const std::vector<double>& x,
                             std::vector<ZInterval>* intervals) {
  *intervals = predictor.QueryRanges(x);
  return FlatQueryRanges{intervals->data(), intervals->size(), 1};
}

/// Every plan in `synopses` walked in id order with no pruning: the
/// median density above the noise floor, the first strict maximum as the
/// leader, the confidence gate, and the leader's cost.
Prediction UnprunedPredict(const LshHistogramsPredictor& predictor,
                           const std::map<PlanId, PlanSynopsis>& synopses,
                           size_t total_samples,
                           const std::vector<double>& x) {
  const auto& cfg = predictor.config();
  std::vector<ZInterval> intervals;
  const FlatQueryRanges ranges = FlatRangesOf(predictor, x, &intervals);
  const size_t t = ranges.transform_count;
  const double floor =
      cfg.noise_fraction * static_cast<double>(total_samples);
  std::vector<double> counts(t);
  std::vector<double> cost_sums(t);
  std::vector<SlotCost> leader_costs(t);
  double total = 0.0;
  double max = 0.0;
  PlanId leader = kNullPlanId;
  for (const auto& [plan, synopsis] : synopses) {
    synopsis.SweepRanges(ranges, counts.data(), cost_sums.data());
    const double density = std::max(0.0, Median(counts) - floor);
    total += density;
    if (density > max) {
      max = density;
      leader = plan;
      for (size_t i = 0; i < t; ++i) {
        leader_costs[i] = SlotCostOf(counts[i], cost_sums[i]);
      }
    }
  }
  Prediction out;
  if (max <= 0.0) return out;
  const double confidence = ConfidenceFromCounts(max, total - max);
  if (confidence <= cfg.confidence_threshold) return out;
  out.plan = leader;
  out.confidence = confidence;
  out.estimated_cost = MedianCostEstimate(leader_costs.data(), t,
                                          counts.data());
  return out;
}

TEST(LshHistogramsTest, EstimatedCostIsTheWinnersCostBitForBit) {
  // A point's estimated_cost comes from the cost sums its winner left in
  // the count sweep. It must equal EstimateCost(x, winner) and the
  // per-interval c * EstimateAverageCost reference, bit for bit, for a
  // point alone and inside a 33-point batch (AVX2 lanes plus a scalar
  // tail).
  auto cfg = BaseConfig();
  cfg.noise_fraction = 0.002;
  cfg.confidence_threshold = 0.0;  // cost every point with a leader
  Rng rng(37);
  const auto sample = SamplePoints(2, 2000, testutil::QuadrantPlan, &rng);
  const LshHistogramsPredictor predictor(cfg, sample);
  std::map<PlanId, PlanSynopsis> synopses;
  for (PlanId plan = 1; plan <= 4; ++plan) {
    synopses.emplace(plan, SynopsisOf(cfg, sample, plan));
  }
  const size_t count = 33;
  Rng probe(41);
  std::vector<double> flat;
  for (size_t i = 0; i < count * 2; ++i) flat.push_back(probe.Uniform());
  const std::vector<Prediction> batch =
      predictor.PredictBatch(flat.data(), count);
  size_t answered = 0;
  for (size_t p = 0; p < count; ++p) {
    const std::vector<double> x = {flat[2 * p], flat[2 * p + 1]};
    const Prediction alone = predictor.Predict(x);
    EXPECT_EQ(batch[p].plan, alone.plan) << "point " << p;
    EXPECT_EQ(batch[p].confidence, alone.confidence) << "point " << p;
    EXPECT_EQ(batch[p].estimated_cost, alone.estimated_cost)
        << "point " << p;
    if (!alone.has_value()) continue;
    ++answered;
    EXPECT_EQ(alone.estimated_cost, predictor.EstimateCost(x, alone.plan))
        << "point " << p;
    std::vector<ZInterval> intervals;
    const FlatQueryRanges ranges = FlatRangesOf(predictor, x, &intervals);
    EXPECT_EQ(alone.estimated_cost,
              ReferenceMedianAverageCost(synopses.at(alone.plan), ranges, 0))
        << "point " << p;
  }
  EXPECT_GT(answered, count / 2);
}

TEST(LshHistogramsTest, EstimatedCostFollowsALeaderThatChangesMidWalk) {
  // Plans are walked in id order. Around (0.5, 0.5) plan 1 has support
  // and leads first, plan 2 (four times as dense) takes over, and plan 3
  // (as sparse as plan 1) does not. Around (0.85, 0.85) plan 2 leads and
  // plan 3 takes over last. Around (0.15, 0.15) only plan 1 has support.
  // Each plan costs a different amount, so a cost left over from an
  // earlier leader, or taken from a later non-leader, would show.
  auto cfg = BaseConfig();
  cfg.confidence_threshold = 0.0;  // answer every point with a leader
  std::vector<LabeledPoint> sample;
  Rng rng(43);
  auto add = [&](double center, PlanId plan, int n) {
    for (int k = 0; k < n; ++k) {
      const std::vector<double> x = {center + rng.Uniform(-0.05, 0.05),
                                     center + rng.Uniform(-0.05, 0.05)};
      sample.push_back({x, plan, 1000.0 * static_cast<double>(plan) +
                                     rng.Uniform(0.0, 10.0)});
    }
  };
  add(0.5, 1, 100);
  add(0.5, 2, 400);
  add(0.5, 3, 100);
  add(0.85, 2, 100);
  add(0.85, 3, 400);
  add(0.15, 1, 300);
  const LshHistogramsPredictor predictor(cfg, sample);
  std::map<PlanId, PlanSynopsis> synopses;
  for (PlanId plan = 1; plan <= 3; ++plan) {
    synopses.emplace(plan, SynopsisOf(cfg, sample, plan));
  }
  const struct {
    double center;
    PlanId winner;
    PlanId first_leader;
  } cases[] = {{0.5, 2, 1}, {0.85, 3, 2}, {0.15, 1, 1}};
  for (const auto& c : cases) {
    const std::vector<double> x = {c.center, c.center};
    const Prediction answer = predictor.Predict(x);
    ASSERT_EQ(answer.plan, c.winner) << "center " << c.center;
    EXPECT_EQ(answer.estimated_cost, predictor.EstimateCost(x, c.winner))
        << "center " << c.center;
    const Prediction reference = UnprunedPredict(
        predictor, synopses, predictor.TotalSamples(), x);
    EXPECT_EQ(answer.plan, reference.plan) << "center " << c.center;
    EXPECT_EQ(answer.confidence, reference.confidence)
        << "center " << c.center;
    EXPECT_EQ(answer.estimated_cost, reference.estimated_cost)
        << "center " << c.center;
    // The costs a stale or misplaced copy would have left differ.
    for (PlanId other = 1; other <= 3; ++other) {
      if (other == c.winner) continue;
      EXPECT_NE(answer.estimated_cost, predictor.EstimateCost(x, other))
          << "center " << c.center << " plan " << other;
    }
    // The leader really changed mid-walk: the first leader had support.
    if (c.first_leader != c.winner) {
      EXPECT_GT(predictor.EstimateCost(x, c.first_leader), 0.0)
          << "center " << c.center;
    }
  }
}

TEST(LshHistogramsTest, APlanAtTheNoiseFloorIsSkippedWithoutChangingAnswers) {
  // Plan 1 holds exactly floor = noise_fraction * |X| = 10 samples, all
  // at (0.5, 0.5), so its range count there is exactly the floor and its
  // density +0.0: the predictor skips it without sweeping. Plans 2 and 3
  // hold identical samples around the same point, so they tie and the
  // lower id must win. Every answer, batched or alone, must equal the
  // unpruned walk bit for bit.
  auto cfg = BaseConfig();
  cfg.noise_fraction = 1.0 / 128.0;  // exact in binary
  // A tie has confidence 0, so a gate at or above 0 would hide the
  // tie-break: answer every point with a leader.
  cfg.confidence_threshold = -1.0;
  std::vector<LabeledPoint> sample;
  for (int k = 0; k < 10; ++k) sample.push_back({{0.5, 0.5}, 1, 50.0});
  Rng rng(47);
  for (int k = 0; k < 600; ++k) {
    const std::vector<double> x = {0.5 + rng.Uniform(-0.08, 0.08),
                                   0.5 + rng.Uniform(-0.08, 0.08)};
    const double cost = rng.Uniform(100.0, 120.0);
    sample.push_back({x, 2, cost});
    sample.push_back({x, 3, cost});
  }
  for (int k = 0; k < 70; ++k) {
    sample.push_back({{0.1 + rng.Uniform(0.0, 0.1), 0.9}, 4, 400.0});
  }
  ASSERT_EQ(sample.size(), 1280u);
  const LshHistogramsPredictor predictor(cfg, sample);
  std::map<PlanId, PlanSynopsis> synopses;
  for (PlanId plan = 1; plan <= 4; ++plan) {
    synopses.emplace(plan, SynopsisOf(cfg, sample, plan));
  }

  // Plan 1 sits exactly at the floor where it has support.
  const std::vector<double> center = {0.5, 0.5};
  {
    std::vector<ZInterval> intervals;
    const FlatQueryRanges ranges = FlatRangesOf(predictor, center, &intervals);
    const size_t t = ranges.transform_count;
    std::vector<double> counts(t);
    std::vector<double> cost_sums(t);
    synopses.at(1).SweepRanges(ranges, counts.data(), cost_sums.data());
    for (size_t i = 0; i < t; ++i) EXPECT_EQ(counts[i], 10.0) << i;
    EXPECT_EQ(cfg.noise_fraction * 1280.0, 10.0);
  }
  const Prediction at_center = predictor.Predict(center);
  EXPECT_EQ(at_center.plan, 2u) << "a tie must go to the lower plan id";

  std::vector<std::vector<double>> probes = {center, {0.15, 0.9}};
  Rng probe(53);
  while (probes.size() < 33) {
    probes.push_back({0.5 + probe.Uniform(-0.1, 0.1),
                      0.5 + probe.Uniform(-0.1, 0.1)});
  }
  std::vector<double> flat;
  for (const auto& x : probes) flat.insert(flat.end(), x.begin(), x.end());
  const std::vector<Prediction> batch =
      predictor.PredictBatch(flat.data(), probes.size());
  for (size_t p = 0; p < probes.size(); ++p) {
    const Prediction reference =
        UnprunedPredict(predictor, synopses, sample.size(), probes[p]);
    const Prediction alone = predictor.Predict(probes[p]);
    for (const Prediction* answer : {&alone, &batch[p]}) {
      EXPECT_EQ(answer->plan, reference.plan) << "probe " << p;
      EXPECT_EQ(answer->confidence, reference.confidence) << "probe " << p;
      EXPECT_EQ(answer->estimated_cost, reference.estimated_cost)
          << "probe " << p;
    }
    EXPECT_NE(reference.plan, 1u) << "probe " << p;
  }
  EXPECT_EQ(batch[1].plan, 4u);
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
      const ZInterval& iv = ranges[t];
      EXPECT_GE(iv.lo, 0.0);
      EXPECT_LE(iv.hi, 1.0);
      EXPECT_LE(iv.lo, iv.hi);
      // Sliding preserves the curve length the center point gets.
      EXPECT_NEAR(iv.width(), center_ranges[t].width(), 1e-12);
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
