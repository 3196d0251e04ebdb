#include "lsh/simd.h"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "lsh/zorder.h"
#include "ppc/lsh_histograms_predictor.h"
#include "stats/streaming_histogram.h"

namespace ppc {
namespace simd {
namespace {

/// Restores the dispatch tier on scope exit so a test that forces the
/// scalar tier cannot leak it into later tests.
class ScopedTier {
 public:
  explicit ScopedTier(bool force_scalar) {
    if (force_scalar) {
      ::setenv("PPC_DISABLE_AVX2", "1", 1);
    } else {
      ::unsetenv("PPC_DISABLE_AVX2");
    }
    ReinitializeDispatchForTest();
  }
  ~ScopedTier() {
    ::unsetenv("PPC_DISABLE_AVX2");
    ReinitializeDispatchForTest();
  }
};

TEST(SimdDispatchTest, EnvVariableForcesScalarTier) {
  {
    ScopedTier scalar(/*force_scalar=*/true);
    EXPECT_EQ(ActiveTier(), Tier::kScalar);
    EXPECT_STREQ(TierName(ActiveTier()), "scalar");
  }
  // With the variable cleared the tier tracks the CPU's actual support.
  ScopedTier native(/*force_scalar=*/false);
  EXPECT_EQ(ActiveTier(),
            CpuSupportsAvx2() ? Tier::kAvx2 : Tier::kScalar);
}

TEST(SimdDispatchTest, ExplicitZeroDoesNotDisable) {
  ::setenv("PPC_DISABLE_AVX2", "0", 1);
  ReinitializeDispatchForTest();
  EXPECT_EQ(ActiveTier(),
            CpuSupportsAvx2() ? Tier::kAvx2 : Tier::kScalar);
  ::unsetenv("PPC_DISABLE_AVX2");
  ReinitializeDispatchForTest();
}

/// Bit-identity harness for ApplyBatch: run both tiers on the same inputs
/// and require byte-for-byte equal output buffers. Batch sizes straddle
/// the 4-point vector width (1, 3, 4, 5, 7, 8, 64, 65) so lane blocks,
/// tails, and the 1-point degenerate case are all exercised.
void ExpectApplyBatchBitIdentical(size_t r, size_t s, size_t count,
                                  Rng* rng) {
  std::vector<double> projections(s * r);
  std::vector<double> shifts(s);
  for (double& v : projections) v = rng->Gaussian();
  for (double& v : shifts) v = rng->Uniform(-1.0, 1.0);
  const double scale = 1.0 / std::sqrt(static_cast<double>(r));
  std::vector<double> points(count * r);
  for (double& v : points) v = rng->Uniform();
  std::vector<double> scalar(count * s, 0.0);
  std::vector<double> avx2(count * s, 1.0);
  ApplyBatchScalar(projections.data(), shifts.data(), scale, r, s,
                   points.data(), count, scalar.data());
  ApplyBatchAvx2(projections.data(), shifts.data(), scale, r, s,
                 points.data(), count, avx2.data());
  ASSERT_EQ(std::memcmp(scalar.data(), avx2.data(),
                        scalar.size() * sizeof(double)),
            0)
      << "r=" << r << " s=" << s << " count=" << count;
}

TEST(SimdKernelTest, ApplyBatchTiersBitIdenticalOnRandomBatches) {
  if (!CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this machine";
  Rng rng(2026);
  for (const size_t r : {1u, 2u, 3u, 5u, 8u}) {
    for (const size_t count : {1u, 3u, 4u, 5u, 7u, 8u, 64u, 65u}) {
      ExpectApplyBatchBitIdentical(r, r, count, &rng);
      ExpectApplyBatchBitIdentical(r, 2, count, &rng);
    }
  }
}

TEST(SimdKernelTest, ApplyBatchTiersAgreeOnNonFiniteInputs) {
  if (!CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this machine";
  const size_t r = 2, s = 2, count = 5;
  std::vector<double> projections = {0.5, -1.25, 2.0, 0.125};
  std::vector<double> shifts = {0.25, -0.5};
  std::vector<double> points(count * r, 0.5);
  points[0] = std::numeric_limits<double>::quiet_NaN();
  points[3] = std::numeric_limits<double>::infinity();
  points[4] = -std::numeric_limits<double>::infinity();
  points[7] = 0.0;
  points[8] = 1.0;
  std::vector<double> scalar(count * s), avx2(count * s);
  ApplyBatchScalar(projections.data(), shifts.data(), 0.7, r, s,
                   points.data(), count, scalar.data());
  ApplyBatchAvx2(projections.data(), shifts.data(), 0.7, r, s,
                 points.data(), count, avx2.data());
  // memcmp (not EXPECT_EQ): NaN outputs must have identical bit patterns
  // too, and NaN != NaN would pass EXPECT_NE-style checks silently.
  EXPECT_EQ(std::memcmp(scalar.data(), avx2.data(),
                        scalar.size() * sizeof(double)),
            0);
}

/// The struct loops StreamingHistogram::EstimateCount and
/// EstimateAverageCost ran before the range kernels took over, restated
/// here, extent rule included, as the independent oracle the kernels must
/// match bit for bit.
void ReferenceExtent(const std::vector<HistogramBucket>& b, size_t i,
                     double* left, double* right) {
  const double c = b[i].centroid;
  if (b.size() == 1) {
    *left = *right = c;
    return;
  }
  *left = (i == 0) ? std::max(0.0, c - 0.5 * (b[1].centroid - c))
                   : 0.5 * (b[i - 1].centroid + c);
  *right = (i + 1 == b.size())
               ? std::min(1.0, c + 0.5 * (c - b[i - 1].centroid))
               : 0.5 * (c + b[i + 1].centroid);
  if (*right < *left) std::swap(*left, *right);
}

double ReferenceCount(const std::vector<HistogramBucket>& b, double lo,
                      double hi) {
  if (b.empty() || lo > hi) return 0.0;
  double count = 0.0;
  for (size_t i = 0; i < b.size(); ++i) {
    double left, right;
    ReferenceExtent(b, i, &left, &right);
    const double width = right - left;
    if (width <= 0.0) {
      if (b[i].centroid >= lo && b[i].centroid <= hi) count += b[i].count;
      continue;
    }
    const double overlap =
        std::max(0.0, std::min(hi, right) - std::max(lo, left));
    count += b[i].count * (overlap / width);
  }
  return count;
}

/// The frac-form loop of EstimateAverageCost: its count and cost sums.
void ReferenceCountCost(const std::vector<HistogramBucket>& b, double lo,
                        double hi, double* count_out, double* cost_out) {
  double count = 0.0;
  double cost = 0.0;
  for (size_t i = 0; i < b.size() && !(lo > hi); ++i) {
    double left, right;
    ReferenceExtent(b, i, &left, &right);
    const double width = right - left;
    double frac = 0.0;
    if (width <= 0.0) {
      frac = (b[i].centroid >= lo && b[i].centroid <= hi) ? 1.0 : 0.0;
    } else {
      const double overlap =
          std::max(0.0, std::min(hi, right) - std::max(lo, left));
      frac = overlap / width;
    }
    count += b[i].count * frac;
    cost += b[i].cost_sum * frac;
  }
  *count_out = count;
  *cost_out = cost;
}

/// A random bucket array in centroid order. Runs of repeated centroids
/// make zero-width point masses, a lone bucket is one too, and the walk
/// may end past 1.0, where the clamped right edge falls below the left
/// one and the extent rule swaps them.
std::vector<HistogramBucket> RandomBuckets(size_t n, Rng* rng) {
  std::vector<HistogramBucket> buckets;
  double pos = rng->Uniform(0.0, 0.1);
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && rng->Uniform() < 0.5) pos += rng->Uniform(0.0, 2.4 / n);
    buckets.push_back(HistogramBucket{pos, rng->Uniform(0.0, 50.0),
                                      rng->Uniform(0.0, 200.0)});
  }
  return buckets;
}

/// Query ranges for the across-queries kernels: mostly ordinary ranges,
/// with inverted and NaN-bound lanes mixed in so the lane masking is
/// exercised at every position in a 4-lane block.
std::vector<ZInterval> RandomRanges(size_t queries, Rng* rng) {
  std::vector<ZInterval> ranges(queries);
  for (size_t q = 0; q < queries; ++q) {
    double lo = rng->Uniform(-0.1, 1.1);
    double hi = lo + rng->Uniform(0.0, 0.4);
    if (q % 5 == 3) std::swap(lo, hi);
    if (q % 7 == 2) lo = std::numeric_limits<double>::quiet_NaN();
    if (q % 11 == 6) hi = std::numeric_limits<double>::quiet_NaN();
    ranges[q] = {lo, hi};
  }
  return ranges;
}

/// Every lane of these ranges is inverted or has a NaN bound, in a
/// rotation that puts each kind in every lane position.
std::vector<ZInterval> DegenerateRanges(size_t queries) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const ZInterval kinds[4] = {{nan, 0.5}, {0.1, nan}, {nan, nan}, {0.6, 0.2}};
  std::vector<ZInterval> ranges(queries);
  for (size_t q = 0; q < queries; ++q) ranges[q] = kinds[q % 4];
  return ranges;
}

/// Ordinary ranges around the unit interval, as the predictor issues them.
std::vector<ZInterval> PredictorRanges(size_t queries, Rng* rng) {
  std::vector<ZInterval> ranges(queries);
  for (ZInterval& range : ranges) {
    range.lo = rng->Uniform(-0.05, 1.0);
    range.hi = range.lo + rng->Uniform(0.0, 0.3);
  }
  return ranges;
}

constexpr size_t kBucketCounts[] = {1, 2, 3, 4, 5, 7, 8, 13, 40};
constexpr size_t kQueryCounts[] = {1, 2, 3, 4, 5, 6, 7, 32, 33};

TEST(SimdKernelTest, HistogramRangeCountManyTiersBitIdentical) {
  if (!CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this machine";
  Rng rng(808);
  for (const size_t n : kBucketCounts) {
    const std::vector<HistogramBucket> b = RandomBuckets(n, &rng);
    for (const size_t queries : kQueryCounts) {
      const std::vector<ZInterval> ranges = RandomRanges(queries, &rng);
      std::vector<double> scalar(queries, -1.0), avx2(queries, -2.0);
      HistogramRangeCountManyScalar(b.data(), n, ranges.data(), queries,
                                    scalar.data());
      HistogramRangeCountManyAvx2(b.data(), n, ranges.data(), queries,
                                  avx2.data());
      ASSERT_EQ(std::memcmp(scalar.data(), avx2.data(),
                            queries * sizeof(double)),
                0)
          << "buckets=" << n << " queries=" << queries;
      for (size_t q = 0; q < queries; ++q) {
        EXPECT_EQ(scalar[q],
                  ReferenceCount(b, ranges[q].lo, ranges[q].hi))
            << "buckets=" << n << " query " << q;
      }
    }
  }
}

TEST(SimdKernelTest, HistogramRangeCountTiersAgreeOnNaNBounds) {
  if (!CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this machine";
  Rng rng(31);
  const std::vector<HistogramBucket> b = RandomBuckets(9, &rng);
  for (size_t queries = 1; queries <= 7; ++queries) {
    const std::vector<ZInterval> ranges = DegenerateRanges(queries);
    std::vector<double> scalar(queries, -1.0), avx2(queries, -2.0);
    HistogramRangeCountManyScalar(b.data(), b.size(), ranges.data(), queries,
                                  scalar.data());
    HistogramRangeCountManyAvx2(b.data(), b.size(), ranges.data(), queries,
                                avx2.data());
    ASSERT_EQ(
        std::memcmp(scalar.data(), avx2.data(), queries * sizeof(double)), 0)
        << "queries=" << queries;
    for (size_t q = 0; q < queries; ++q) EXPECT_EQ(scalar[q], 0.0);
  }
}

TEST(SimdKernelTest, HistogramRangeCountCostManyTiersBitIdentical) {
  if (!CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this machine";
  Rng rng(909);
  for (const size_t n : kBucketCounts) {
    const std::vector<HistogramBucket> b = RandomBuckets(n, &rng);
    for (const size_t queries : kQueryCounts) {
      const std::vector<ZInterval> ranges = RandomRanges(queries, &rng);
      std::vector<double> sc(queries), scost(queries), ac(queries),
          acost(queries);
      HistogramRangeCountCostManyScalar(b.data(), n, ranges.data(), queries,
                                        sc.data(), scost.data());
      HistogramRangeCountCostManyAvx2(b.data(), n, ranges.data(), queries,
                                      ac.data(), acost.data());
      ASSERT_EQ(std::memcmp(sc.data(), ac.data(), queries * sizeof(double)),
                0)
          << "counts: buckets=" << n << " queries=" << queries;
      ASSERT_EQ(
          std::memcmp(scost.data(), acost.data(), queries * sizeof(double)),
          0)
          << "costs: buckets=" << n << " queries=" << queries;
      for (size_t q = 0; q < queries; ++q) {
        double count, cost;
        ReferenceCountCost(b, ranges[q].lo, ranges[q].hi, &count,
                           &cost);
        EXPECT_EQ(sc[q], count) << "buckets=" << n << " query " << q;
        EXPECT_EQ(scost[q], cost) << "buckets=" << n << " query " << q;
      }
    }
  }
}

TEST(SimdKernelTest, HistogramRangeCountCostTiersAgreeOnNaNBounds) {
  if (!CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this machine";
  Rng rng(67);
  const std::vector<HistogramBucket> b = RandomBuckets(9, &rng);
  for (size_t queries = 1; queries <= 7; ++queries) {
    const std::vector<ZInterval> ranges = DegenerateRanges(queries);
    std::vector<double> sc(queries, -1.0), scost(queries, -1.0),
        ac(queries, -2.0), acost(queries, -2.0);
    HistogramRangeCountCostManyScalar(b.data(), b.size(), ranges.data(),
                                      queries, sc.data(), scost.data());
    HistogramRangeCountCostManyAvx2(b.data(), b.size(), ranges.data(),
                                    queries, ac.data(), acost.data());
    ASSERT_EQ(std::memcmp(sc.data(), ac.data(), queries * sizeof(double)), 0)
        << "queries=" << queries;
    ASSERT_EQ(
        std::memcmp(scost.data(), acost.data(), queries * sizeof(double)), 0)
        << "queries=" << queries;
    for (size_t q = 0; q < queries; ++q) {
      EXPECT_EQ(sc[q], 0.0);
      EXPECT_EQ(scost[q], 0.0);
    }
  }
}

/// A histogram filled the way the predictor fills it, plus a copy of its
/// buckets for the reference loops.
std::vector<HistogramBucket> FilledHistogram(uint64_t seed,
                                             StreamingHistogram* hist) {
  Rng rng(seed);
  for (int i = 0; i < 500; ++i) {
    hist->Insert(rng.Uniform(), rng.Uniform(0.0, 10.0));
  }
  return std::vector<HistogramBucket>(
      hist->buckets(), hist->buckets() + hist->bucket_count());
}

TEST(SimdKernelTest, CostKernelReproducesHistogramEstimates) {
  // The cost path reads a transform's count and average cost from one
  // HistogramRangeCountCostMany sweep; on both tiers its count must be
  // EstimateCount and its cost / count EstimateAverageCost, bit for bit,
  // and both must match the struct loops the kernels replaced.
  StreamingHistogram hist(16);
  const std::vector<HistogramBucket> b = FilledHistogram(19, &hist);
  Rng rng(20);
  const size_t queries = 200;
  const std::vector<ZInterval> ranges = PredictorRanges(queries, &rng);
  for (const bool force_scalar : {true, false}) {
    ScopedTier tier(force_scalar);
    std::vector<double> counts(queries), costs(queries);
    HistogramRangeCountCostMany(hist.buckets(), hist.bucket_count(),
                                ranges.data(), queries, counts.data(),
                                costs.data());
    for (size_t q = 0; q < queries; ++q) {
      const double lo = ranges[q].lo;
      const double hi = ranges[q].hi;
      double ref_count, ref_cost;
      ReferenceCountCost(b, lo, hi, &ref_count, &ref_cost);
      const double ref_avg = ref_count > 0.0 ? ref_cost / ref_count : 0.0;
      EXPECT_EQ(counts[q], ReferenceCount(b, lo, hi));
      EXPECT_EQ(counts[q], hist.EstimateCount(lo, hi));
      EXPECT_EQ(counts[q] > 0.0 ? costs[q] / counts[q] : 0.0, ref_avg);
      EXPECT_EQ(hist.EstimateAverageCost(lo, hi), ref_avg);
    }
  }
}

TEST(SimdKernelTest, CellIndexBatchTiersBitIdentical) {
  if (!CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this machine";
  Rng rng(515);
  for (const size_t n : {1u, 3u, 4u, 5u, 7u, 64u, 129u}) {
    std::vector<double> y(n);
    for (size_t k = 0; k < n; ++k) {
      y[k] = rng.Uniform(-3.0, 3.0);  // straddles the clamp on both ends
    }
    if (n >= 4) {
      y[0] = std::numeric_limits<double>::quiet_NaN();
      y[1] = std::numeric_limits<double>::infinity();
      y[2] = -std::numeric_limits<double>::infinity();
      y[3] = -0.0;
    }
    std::vector<double> scalar(n, 1.0), avx2(n, 2.0);
    CellIndexBatchScalar(y.data(), n, -1.5, 3.0, 1024.0, 1023.0,
                         scalar.data());
    CellIndexBatchAvx2(y.data(), n, -1.5, 3.0, 1024.0, 1023.0, avx2.data());
    // memcmp: NaN inputs must yield the same bit pattern on both tiers.
    ASSERT_EQ(std::memcmp(scalar.data(), avx2.data(), n * sizeof(double)), 0)
        << "n=" << n;
  }
}

TEST(SimdKernelTest, InterleavePdepMatchesScalarBitLoop) {
  // pdep is pure integer scatter, so native and forced-scalar dispatch
  // must produce the same Morton code for every cell tuple.
  Rng rng(2222);
  for (const auto& [dims, bits] :
       std::vector<std::pair<int, int>>{{1, 16}, {2, 15}, {3, 10}, {5, 7}}) {
    ZOrderCurve curve(dims, bits);
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<uint32_t> cells(static_cast<size_t>(dims));
      for (uint32_t& c : cells) {
        c = static_cast<uint32_t>(rng.Uniform() * 4294967295.0);
      }
      uint64_t native, scalar;
      {
        ScopedTier tier(/*force_scalar=*/false);
        native = curve.Interleave(cells.data());
      }
      {
        ScopedTier tier(/*force_scalar=*/true);
        scalar = curve.Interleave(cells.data());
      }
      EXPECT_EQ(native, scalar) << "dims=" << dims << " bits=" << bits;
    }
  }
}

TEST(SimdKernelTest, KernelReproducesStreamingHistogramEstimateCount) {
  // EstimateCount is a one-query kernel call and a served batch is a
  // many-query call over the same buckets: on both tiers, both must
  // reproduce the struct loop the kernels replaced, bit for bit.
  StreamingHistogram hist(16);
  const std::vector<HistogramBucket> b = FilledHistogram(9, &hist);
  Rng rng(10);
  const size_t queries = 200;
  const std::vector<ZInterval> ranges = PredictorRanges(queries, &rng);
  for (const bool force_scalar : {true, false}) {
    ScopedTier tier(force_scalar);
    std::vector<double> batch(queries);
    HistogramRangeCountMany(hist.buckets(), hist.bucket_count(),
                            ranges.data(), queries, batch.data());
    for (size_t q = 0; q < queries; ++q) {
      const double oracle = ReferenceCount(b, ranges[q].lo, ranges[q].hi);
      EXPECT_EQ(hist.EstimateCount(ranges[q].lo, ranges[q].hi), oracle);
      EXPECT_EQ(batch[q], oracle);
    }
  }
}

TEST(SimdKernelTest, PredictorAnswersIdenticallyUnderForcedScalar) {
  if (!CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this machine";
  // End-to-end gate: the full predictor — transforms, Z-order, histogram
  // probes, median — answers every batch query with identical bits
  // whichever tier the dispatcher picked.
  LshHistogramsPredictor::Config config;
  config.dimensions = 3;
  config.seed = 4242;
  LshHistogramsPredictor predictor(config);
  Rng rng(55);
  for (int i = 0; i < 400; ++i) {
    LabeledPoint point;
    point.coords = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
    point.plan = 1 + (i % 3);
    point.cost = rng.Uniform(1.0, 5.0);
    predictor.Insert(point);
  }
  const size_t count = 37;
  std::vector<double> queries(count * 3);
  for (double& v : queries) v = rng.Uniform();

  std::vector<Prediction> avx2, scalar;
  {
    ScopedTier native(/*force_scalar=*/false);
    avx2 = predictor.PredictBatch(queries.data(), count);
  }
  {
    ScopedTier forced(/*force_scalar=*/true);
    scalar = predictor.PredictBatch(queries.data(), count);
  }
  ASSERT_EQ(avx2.size(), count);
  ASSERT_EQ(scalar.size(), count);
  for (size_t p = 0; p < count; ++p) {
    EXPECT_EQ(avx2[p].plan, scalar[p].plan) << "point " << p;
    EXPECT_EQ(avx2[p].confidence, scalar[p].confidence) << "point " << p;
    EXPECT_EQ(avx2[p].estimated_cost, scalar[p].estimated_cost)
        << "point " << p;
  }
}

}  // namespace
}  // namespace simd
}  // namespace ppc
