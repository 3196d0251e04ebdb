#ifndef PPC_PPC_PLAN_SYNOPSIS_H_
#define PPC_PPC_PLAN_SYNOPSIS_H_

#include <cstdint>
#include <vector>

#include "lsh/zorder.h"
#include "stats/streaming_histogram.h"

namespace ppc {

/// A batch's query ranges: one interval per slot, in one flat array,
/// transform-major (every point's interval in transform 0, then transform
/// 1, ...), so slot k = i * point_count + p is point p's interval in
/// transform i. A single point is a batch of one. Non-owning — the backing
/// storage lives in the caller's per-request scratch.
struct FlatQueryRanges {
  const ZInterval* intervals = nullptr;
  size_t transform_count = 0;
  size_t point_count = 0;

  /// Slots (and intervals) in the batch.
  size_t IntervalCount() const { return transform_count * point_count; }
};

/// One slot's cost sums when its count c is > 0: the count c, and
/// c * (cost / c), the slot's EstimateAverageCost weighted back by its
/// count (the quotient is rounded before it is multiplied back). Both are
/// 0 when c is not > 0.
struct SlotCost {
  double count = 0.0;
  double cost = 0.0;
};

/// The SlotCost of a slot whose PlanSynopsis::SweepRanges results are
/// `count` and `cost`.
SlotCost SlotCostOf(double count, double cost);

/// A point's cost estimate from its `t` per-transform SlotCosts: the
/// median, over the transforms with count > 0, of cost / count; 0 when no
/// transform found support. `scratch` holds t doubles.
double MedianCostEstimate(const SlotCost* per_transform, size_t t,
                          double* scratch);

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

  /// One sweep of every interval in `ranges`, counts and costs together.
  /// Per transform, one simd::HistogramRangeCountCostMany call covers all
  /// of that transform's slots (contiguous in `ranges`): slot
  /// k = i * point_count + p's count lands in counts_out[k] and its cost
  /// sum in costs_out[k] (caller scratch, ranges.IntervalCount() doubles
  /// each). The median of counts_out over i is point p's density. By the
  /// kernel's contract each count is bit-identical to EstimateCount. The
  /// costs stay for SlotCostOf, so a caller costs only the slots it needs.
  /// One path for every batch size.
  void SweepRanges(const FlatQueryRanges& ranges, double* counts_out,
                   double* costs_out) const;

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
