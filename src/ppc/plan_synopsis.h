#ifndef PPC_PPC_PLAN_SYNOPSIS_H_
#define PPC_PPC_PLAN_SYNOPSIS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "lsh/zorder.h"
#include "stats/streaming_histogram.h"

namespace ppc {

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

  /// Intervals across all slots.
  size_t IntervalCount() const {
    return SlotBegin(transform_count * point_count);
  }
};

/// One slot's cost sums, over the slot's intervals whose count c is > 0:
/// the count sum, and the sum of c * (cost / c). The second term is the
/// interval's EstimateAverageCost weighted back by its count; the quotient
/// is rounded before it is multiplied back.
struct SlotCost {
  double count = 0.0;
  double cost = 0.0;
};

/// Slot k's SlotCost, from the per-interval results of a
/// PlanSynopsis::SweepRanges over `ranges`, summed in interval order.
SlotCost SlotCostOf(const FlatQueryRanges& ranges, size_t k,
                    const double* interval_counts,
                    const double* interval_costs);

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
  /// of that transform's intervals (contiguous in `ranges`): interval j's
  /// count and cost sum land in interval_counts[j] and interval_costs[j]
  /// (caller scratch, ranges.IntervalCount() doubles each). Slot
  /// k = i * point_count + p's count sum, in interval order, lands in
  /// counts_out[k]; the median over i is point p's density. By the
  /// kernel's contract each count is bit-identical to EstimateCount. The
  /// interval results stay for SlotCostOf, so a caller costs only the
  /// slots it needs. One path for every batch size and both range modes.
  void SweepRanges(const FlatQueryRanges& ranges, double* interval_counts,
                   double* interval_costs, double* counts_out) const;

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
