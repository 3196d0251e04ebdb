#ifndef PPC_PPC_PLAN_SYNOPSIS_H_
#define PPC_PPC_PLAN_SYNOPSIS_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "lsh/zorder.h"
#include "stats/streaming_histogram.h"

namespace ppc {

class Arena;

/// A batch's query ranges: all intervals in one flat array,
/// transform-major (every interval of transform 0, then transform 1, ...),
/// with slot (i, p) = i * point_count + p addressing point p's intervals
/// in transform i. A single point is a batch of one. Non-owning — the
/// backing storage lives in the caller's per-request scratch.
struct FlatQueryRanges {
  const ZInterval* intervals = nullptr;
  /// Slot offsets into `intervals`: slot k covers
  /// [offsets[k], offsets[k+1]). nullptr means every slot holds exactly
  /// one interval (the paper's single-range mode) and slot k is
  /// intervals[k .. k+1).
  const uint32_t* offsets = nullptr;
  size_t transform_count = 0;
  size_t point_count = 0;

  /// Offset of slot k's first interval; slot k ends where k + 1 starts.
  size_t SlotBegin(size_t k) const {
    return offsets == nullptr ? k : offsets[k];
  }

  /// [begin, end) of slot (transform i, point p)'s intervals.
  std::pair<const ZInterval*, const ZInterval*> Slice(size_t i,
                                                      size_t p) const {
    const size_t k = i * point_count + p;
    return {intervals + SlotBegin(k), intervals + SlotBegin(k + 1)};
  }

  /// The most intervals any one transform holds across all points.
  size_t MaxTransformIntervals() const {
    size_t most = 0;
    for (size_t i = 0; i < transform_count; ++i) {
      most = std::max(most, SlotBegin((i + 1) * point_count) -
                                SlotBegin(i * point_count));
    }
    return most;
  }
};

/// The histogram synopsis of one query plan's sample distribution: one
/// bounded-bucket database histogram per randomized transform, keyed by
/// Z-order-linearized position (paper Sec. IV-C: "a separate histogram is
/// created for every query plan in the plan space ... a total of t x n
/// histograms are allocated").
class PlanSynopsis {
 public:
  PlanSynopsis(size_t transform_count, size_t max_buckets,
               StreamingHistogram::MergePolicy policy);

  /// Records one sample of this plan at `position` in transform
  /// `transform_idx`'s linearized space, with execution cost `cost`.
  void Insert(size_t transform_idx, double position, double cost);

  /// Per-transform range counts of every point in `ranges`: the summed
  /// count of slot (i, p)'s intervals lands in
  /// `counts_out[i * point_count + p]`; the median over i is point p's
  /// density estimate. One path for every batch size and both range
  /// modes: per transform, one simd::HistogramRangeCountMany call counts
  /// all of that transform's intervals (contiguous in `ranges`) into
  /// `interval_counts` (caller scratch, >= ranges.MaxTransformIntervals()
  /// doubles), then each slot sums its intervals' counts in order. Each
  /// count is bit-identical to summing EstimateCount over the slot's
  /// intervals.
  void BatchTransformCounts(const FlatQueryRanges& ranges,
                            double* interval_counts,
                            double* counts_out) const;

  /// Median over transforms of the average cost in each of the `n` points
  /// point_idx[0..n)'s ranges, into out[k]; a transform counts only where
  /// the point has non-zero density, and a point with none anywhere gets
  /// 0. A transform's cost is the count-weighted mean over the point's
  /// intervals, c * (cost / c) summed over the intervals with count c > 0
  /// and divided by their count sum — the same arithmetic as summing
  /// c * EstimateAverageCost. Per transform, one
  /// simd::HistogramRangeCountCostMany call covers every interval of the
  /// selected points. Workspace comes from `arena`, sized by the selected
  /// points' intervals.
  void MedianAverageCosts(const FlatQueryRanges& ranges,
                          const uint32_t* point_idx, size_t n, Arena* arena,
                          double* out) const;

  /// Samples inserted (identical across transforms; per-transform count).
  size_t SampleCount() const;

  /// Paper accounting: t * b_h * 12 bytes for this plan.
  uint64_t SpaceBytes() const;

  void Clear();

  size_t transform_count() const { return histograms_.size(); }
  const StreamingHistogram& histogram(size_t i) const {
    return histograms_[i];
  }

  /// Appends a binary snapshot of all per-transform histograms.
  void SerializeTo(ByteWriter* writer) const;

  /// Reconstructs a synopsis from a snapshot.
  static Result<PlanSynopsis> Deserialize(ByteReader* reader);

 private:
  PlanSynopsis() = default;  // used by Deserialize

  std::vector<StreamingHistogram> histograms_;
};

}  // namespace ppc

#endif  // PPC_PPC_PLAN_SYNOPSIS_H_
