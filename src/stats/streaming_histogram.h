#ifndef PPC_STATS_STREAMING_HISTOGRAM_H_
#define PPC_STATS_STREAMING_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "lsh/simd.h"

namespace ppc {

/// A bounded-bucket streaming histogram: the "database histogram" the paper
/// stores plan-space synopses in (Sec. IV-C).
///
/// Supports online insertion of (position, cost) observations, where
/// `position` is a Z-order-linearized plan-space coordinate in [0, 1], and
/// constant-time-per-bucket range queries for both the observation count
/// (plan density) and the average plan cost.
///
/// When insertion would exceed the bucket budget, the adjacent bucket pair
/// whose merge increases the weighted variance the least is consolidated
/// ("standard histogram construction techniques that choose boundaries to
/// minimize estimation error", Sec. IV-C). Each bucket costs 12 bytes by the
/// paper's accounting: a 4-byte boundary, a 4-byte count, and a 4-byte
/// average cost.
class StreamingHistogram {
 public:
  /// Merge policy; kMinVarianceIncrease is the default used everywhere,
  /// kEquiWidth exists for the histogram-policy ablation bench.
  enum class MergePolicy {
    kMinVarianceIncrease,
    kNearestCentroid,
    kEquiWidth,
  };

  explicit StreamingHistogram(
      size_t max_buckets,
      MergePolicy policy = MergePolicy::kMinVarianceIncrease);

  /// Inserts one observation at `position` with execution cost `cost`.
  void Insert(double position, double cost);

  /// Estimated number of observations with position in [lo, hi], with linear
  /// interpolation across partially-covered buckets: a one-query call of
  /// simd::HistogramRangeCountMany over buckets().
  double EstimateCount(double lo, double hi) const;

  /// Count-weighted average cost of observations in [lo, hi]. Returns 0
  /// when the estimated count is 0. A one-query call of
  /// simd::HistogramRangeCountCostMany over buckets().
  double EstimateAverageCost(double lo, double hi) const;

  /// The buckets, sorted by centroid: the table the range kernels sweep.
  const simd::HistogramBucket* buckets() const { return buckets_.data(); }

  /// Total number of inserted observations.
  size_t TotalCount() const { return total_count_; }

  size_t bucket_count() const { return buckets_.size(); }
  size_t max_buckets() const { return max_buckets_; }

  /// Space consumption under the paper's 12-bytes-per-bucket accounting
  /// (capacity, not current occupancy: the budget is reserved up front).
  size_t SpaceBytes() const { return max_buckets_ * 12; }

  /// Drops all contents (used when drift detection resets a template).
  void Clear();

  /// Human-readable bucket dump for debugging and examples.
  std::string DebugString() const;

  /// Appends a binary snapshot (configuration + buckets) to `writer`.
  void SerializeTo(ByteWriter* writer) const;

  /// Reconstructs a histogram from a snapshot. Fails with OutOfRange on
  /// truncation and InvalidArgument on malformed content: a bucket count
  /// above the budget or the bytes left, unsorted centroids, a centroid
  /// outside [0, 1], a negative count or a non-finite field.
  static Result<StreamingHistogram> Deserialize(ByteReader* reader);

 private:
  using Bucket = simd::HistogramBucket;

  /// Index of the best adjacent pair (i, i+1) to merge under the policy.
  size_t PickMergeIndex() const;
  void MergeAt(size_t i);

  size_t max_buckets_;
  MergePolicy policy_;
  std::vector<Bucket> buckets_;  // sorted by centroid
  size_t total_count_ = 0;
};

}  // namespace ppc

#endif  // PPC_STATS_STREAMING_HISTOGRAM_H_
