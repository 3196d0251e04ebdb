#include <gtest/gtest.h>

#include <cstring>

#include "bench_stats.h"
#include "loadgen.h"
#include "stream.h"

namespace perfbench {
namespace {

TEST(StreamTest, SameSeedGivesIdenticalStream) {
  const Stream a = MakeStream(7, 1, 0, 5000);
  const Stream b = MakeStream(7, 1, 0, 5000);
  ASSERT_EQ(a.size(), 5000u);
  EXPECT_EQ(a.tmpl, b.tmpl);
  EXPECT_EQ(a.offset, b.offset);
  ASSERT_EQ(a.coords.size(), b.coords.size());
  EXPECT_EQ(0, std::memcmp(a.coords.data(), b.coords.data(),
                           a.coords.size() * sizeof(double)));
}

TEST(StreamTest, SampleAndPopulationSeedsGiveDifferentStreams) {
  const Stream base = MakeStream(7, 1, 0, 1000);
  const Stream other_sample = MakeStream(7, 2, 0, 1000);
  const Stream other_population = MakeStream(8, 1, 0, 1000);
  EXPECT_NE(base.coords, other_sample.coords);
  EXPECT_NE(base.coords, other_population.coords);
}

TEST(StreamTest, FixedPrefixIsTheSameForEverySampleSeed) {
  const Stream a = MakeStream(7, 1, 300, 1000);
  const Stream b = MakeStream(7, 2, 300, 1000);
  ASSERT_EQ(a.size(), 1000u);
  for (size_t i = 0; i < 300; ++i) {
    ASSERT_EQ(a.tmpl[i], b.tmpl[i]) << i;
    ASSERT_EQ(a.Point(i), b.Point(i)) << i;
  }
  const std::vector<double> tail_a(a.coords.begin() + a.offset[300],
                                   a.coords.end());
  const std::vector<double> tail_b(b.coords.begin() + b.offset[300],
                                   b.coords.end());
  EXPECT_NE(tail_a, tail_b);
  // The prefix is what seed 0 draws, whatever the sample seed.
  const Stream zero = MakeStream(7, 0, 0, 300);
  for (size_t i = 0; i < 300; ++i) ASSERT_EQ(a.Point(i), zero.Point(i)) << i;
}

TEST(StreamTest, SampleSeedsDrawFromTheSamePopulation) {
  // Same tenant mixture: per-template shares agree closely across sample
  // seeds, and two samples share only a small fraction of their events.
  auto shares = [](const Stream& s) {
    std::vector<double> share(9, 0.0);
    for (size_t i = 0; i < s.size(); ++i) share[s.tmpl[i]] += 1.0 / s.size();
    return share;
  };
  const std::vector<double> a = shares(MakeStream(7, 1, 0, 40000));
  const std::vector<double> b = shares(MakeStream(7, 2, 0, 40000));
  for (size_t t = 0; t < a.size(); ++t) EXPECT_NEAR(a[t], b[t], 0.01) << t;
  const Stream p = MakeStream(7, 1, 0, 2000);
  const Stream q = MakeStream(7, 2, 0, 2000);
  size_t shared = 0;
  for (size_t i = 0; i < 200; ++i) {
    for (size_t j = 0; j < q.size(); ++j) {
      if (p.tmpl[i] == q.tmpl[j] && p.Point(i) == q.Point(j)) {
        ++shared;
        break;
      }
    }
  }
  EXPECT_LT(shared, 60u);
}

TEST(StreamTest, CoversAllNineTemplatesWithTheirArity) {
  const Stream s = MakeStream(8, 3, 0, 20000);
  ASSERT_EQ(s.names.size(), 9u);
  std::vector<size_t> seen(9, 0);
  for (size_t i = 0; i < s.size(); ++i) {
    ++seen[s.tmpl[i]];
    const std::vector<double> x = s.Point(i);
    ASSERT_EQ(static_cast<int>(x.size()), s.dims[s.tmpl[i]]);
    for (double v : x) {
      ASSERT_GE(v, 0.0);
      ASSERT_LE(v, 1.0);
    }
  }
  for (size_t t = 0; t < seen.size(); ++t) EXPECT_GT(seen[t], 0u) << t;
  // Zipf by tenant rank: rank 0 sends Q0, so Q0 is the most frequent.
  for (size_t t = 1; t < seen.size(); ++t) EXPECT_GT(seen[0], seen[t]) << t;
}

TEST(StatsTest, PercentileInterpolatesBetweenOrderStatistics) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.125), 1.5);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
}

TEST(StatsTest, MedianOfEvenCountIsMidpoint) {
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({7}), 7.0);
}

TEST(StatsTest, QuartilesMatchPythonExclusiveMethod) {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) v.push_back(i);
  const Quartiles q = ExclusiveQuartiles(v);
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
  const Quartiles r = ExclusiveQuartiles({16, 1, 8, 2, 4});
  EXPECT_DOUBLE_EQ(r.q1, 1.5);
  EXPECT_DOUBLE_EQ(r.q3, 12.0);
  // Two values: positions clamp to the ends.
  const Quartiles two = ExclusiveQuartiles({3, 9});
  EXPECT_DOUBLE_EQ(two.q1, 3.0);
  EXPECT_DOUBLE_EQ(two.q3, 9.0);
}

TEST(StatsTest, RelativeIqrIsSpreadOverMedian) {
  std::vector<double> v;
  for (int i = 1; i <= 10; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(RelativeIqr(v), (8.25 - 2.75) / 5.5);
  EXPECT_DOUBLE_EQ(RelativeIqr({0, 0, 0}), 0.0);
}

TEST(StatsTest, LogHistogramQuantilesWithinOnePercent) {
  LogHistogram h;
  std::vector<double> exact;
  for (int i = 1; i <= 10000; ++i) {
    const double v = 50.0 + 0.037 * i;  // 50 .. 420 us
    h.Add(v);
    exact.push_back(v);
  }
  EXPECT_EQ(h.count(), 10000u);
  for (double q : {0.01, 0.5, 0.9, 0.99}) {
    const double want = Percentile(exact, q);
    EXPECT_NEAR(h.Quantile(q), want, 0.01 * want) << q;
  }
}

TEST(StatsTest, LogHistogramBucketsAreAtMostTwoPercentWide) {
  for (size_t b = 1; b + 1 < LogHistogram::kBuckets; b += 97) {
    const double lo =
        LogHistogram::kLowest * std::pow(LogHistogram::kGrowth, b);
    const double hi = lo * LogHistogram::kGrowth;
    EXPECT_LE((hi - lo) / lo, 0.02 + 1e-12);
    EXPECT_EQ(LogHistogram::BucketOf(lo * 1.001), b);
  }
  EXPECT_EQ(LogHistogram::BucketOf(0.0), 0u);
  EXPECT_EQ(LogHistogram::BucketOf(1e12), LogHistogram::kBuckets - 1);
  EXPECT_DOUBLE_EQ(LogHistogram().Quantile(0.5), 0.0);
}

TEST(SpanTest, SelfTimeSubtractsDirectChildrenOnly) {
  // rtt [0,100] -> wait [0,30], handle [30,100] -> framework (40) ->
  // predictor (25) -> ranges (10); plus a standalone replay root.
  std::vector<Span> spans = {
      {"client.rtt", 0, 100, -1, 1},
      {"server.dispatch_wait", 0, 30, 0, 1},
      {"server.after_dispatch", 30, 100, 0, 1},
      {"framework.predict", 200, 240, 2, 1},
      {"predictor.predict", 300, 325, 3, 1},
      {"lsh.query_ranges", 400, 410, 4, 1},
      {"exec.execute", 500, 507, -1, 1},
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_EQ(self[0], 0);   // 100 - 30 - 70
  EXPECT_EQ(self[1], 30);  // leaf
  EXPECT_EQ(self[2], 30);  // 70 - 40
  EXPECT_EQ(self[3], 15);  // 40 - 25
  EXPECT_EQ(self[4], 15);  // 25 - 10
  EXPECT_EQ(self[5], 10);
  EXPECT_EQ(self[6], 7);
  // Self times of one request sum to its root's duration (plus roots).
  int64_t total = 0;
  for (size_t i = 0; i + 1 < self.size(); ++i) total += self[i];
  EXPECT_EQ(total, spans[0].duration_ns());
}

TEST(SpanTest, ChildLongerThanParentGivesNegativeSelfTime) {
  const std::vector<Span> spans = {{"a", 0, 10, -1, 1}, {"b", 0, 12, 0, 1}};
  EXPECT_EQ(SelfTimes(spans)[0], -2);
}

LoopResult TwentyWindows(const std::vector<uint64_t>& steal_ticks) {
  LoopConfig config;
  config.seconds = 2.0;
  config.windows = 20;
  LoopResult result(config);
  result.steal_ticks = steal_ticks;
  return result;
}

TEST(CleanWindowsTest, KeepsOnlyWindowsWithinTheStealShare) {
  // Ticks far above 2% of any machine's CPU time in a 0.1-s window.
  std::vector<uint64_t> steal(20, 100000);
  steal[3] = steal[7] = steal[15] = 0;
  EXPECT_EQ(TwentyWindows(steal).CleanWindows(0.02),
            (std::vector<size_t>{3, 7, 15}));
}

TEST(CleanWindowsTest, FallsBackToTheLeastStolenTenth) {
  std::vector<uint64_t> steal(20, 100000);
  steal[5] = 0;
  steal[12] = 50000;
  steal[18] = 70000;
  EXPECT_EQ(TwentyWindows(steal).CleanWindows(0.02),
            (std::vector<size_t>{5, 12}));
}

}  // namespace
}  // namespace perfbench
