#ifndef PERFBENCH_HARNESS_BENCH_STATS_H_
#define PERFBENCH_HARNESS_BENCH_STATS_H_

// Order statistics, a fixed-memory latency histogram and span self-time
// arithmetic for the benchmark harness. Header-only so the harness and its
// tests share one definition.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Linear-interpolation percentile of unsorted `values` (q in [0, 1]):
/// the value at rank q*(n-1) between the two neighbouring order
/// statistics. 0 for an empty input.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// First and third quartiles as Python's statistics.quantiles(values,
/// n=4) computes them (the default "exclusive" method: the p-quantile
/// sits at 1-based position (n+1)*p, clamped to the sample ends). Needs
/// at least two values; returns {0, 0} otherwise.
struct Quartiles {
  double q1 = 0.0;
  double q3 = 0.0;
};
inline Quartiles ExclusiveQuartiles(std::vector<double> values) {
  Quartiles out;
  if (values.size() < 2) return out;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  auto at = [&](double p) {
    const double pos = (n + 1.0) * p;  // 1-based
    const double j = std::floor(pos);
    const double delta = pos - j;
    if (j < 1.0) return values.front();
    if (j >= n) return values.back();
    const size_t i = static_cast<size_t>(j) - 1;
    return values[i] + (values[i + 1] - values[i]) * delta;
  };
  out.q1 = at(0.25);
  out.q3 = at(0.75);
  return out;
}

/// Interquartile range as a share of the median (the benchmark's spread
/// figure). 0 when the median is 0.
inline double RelativeIqr(const std::vector<double>& values) {
  const double median = Median(values);
  if (median == 0.0) return 0.0;
  const Quartiles q = ExclusiveQuartiles(values);
  return (q.q3 - q.q1) / std::fabs(median);
}

/// Log-bucketed histogram of positive values (microseconds in the
/// harness) with a fixed bucket array: bucket i covers
/// [kLowest * kGrowth^i, kLowest * kGrowth^(i+1)), so every bucket is 1%
/// wide and quantiles carry at most 1% quantisation error. Values below
/// kLowest land in bucket 0, values above the top in the last bucket.
/// Quantiles interpolate geometrically inside the bucket by rank, so two
/// runs with different samples do not read the same bucket edge.
class LogHistogram {
 public:
  static constexpr double kLowest = 1.0;
  static constexpr double kGrowth = 1.01;
  /// Covers 1 us .. ~10 s.
  static constexpr size_t kBuckets = 1620;

  LogHistogram() : counts_(kBuckets, 0) {}

  void Add(double value) {
    ++counts_[BucketOf(value)];
    ++total_;
  }

  uint64_t count() const { return total_; }

  /// Quantile q in [0, 1]; 0 when empty.
  double Quantile(double q) const {
    if (total_ == 0) return 0.0;
    const double rank = q * static_cast<double>(total_ - 1);
    uint64_t before = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      const uint64_t c = counts_[b];
      if (c == 0) continue;
      if (rank < static_cast<double>(before + c)) {
        const double frac =
            (rank - static_cast<double>(before) + 0.5) / static_cast<double>(c);
        return kLowest * std::pow(kGrowth, static_cast<double>(b) + frac);
      }
      before += c;
    }
    return kLowest * std::pow(kGrowth, static_cast<double>(kBuckets));
  }

  static size_t BucketOf(double value) {
    if (!(value > kLowest)) return 0;
    const double i = std::log(value / kLowest) / std::log(kGrowth);
    if (i >= static_cast<double>(kBuckets - 1)) return kBuckets - 1;
    return static_cast<size_t>(i);
  }

 private:
  std::vector<uint32_t> counts_;
  uint64_t total_ = 0;
};

/// One traced interval. `parent` indexes the parent span in the same
/// vector (-1 for a root); spans of one request share `request`.
struct Span {
  /// A string literal: spans are recorded on the hot path.
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  uint64_t request = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Self time of every span: its duration minus the durations of its
/// direct children. Replayed layer calls run one after another rather
/// than inside their parent's interval, so self time is taken on
/// durations, as "this layer's span minus the span of the layer below
/// it". Negative results (a replay slower than its parent's live call)
/// are kept, not clamped, so they stay visible.
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration_ns();
  }
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      self[static_cast<size_t>(s.parent)] -= s.duration_ns();
    }
  }
  return self;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_BENCH_STATS_H_
