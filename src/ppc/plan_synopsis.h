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

  /// [begin, end) of slot (transform i, point p)'s intervals.
  std::pair<const ZInterval*, const ZInterval*> Slice(size_t i,
                                                      size_t p) const {
    const size_t k = i * point_count + p;
    if (offsets == nullptr) return {intervals + k, intervals + k + 1};
    return {intervals + offsets[k], intervals + offsets[k + 1]};
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
  /// density estimate. Iterates transform-outer / point-inner so one
  /// histogram's bucket array stays cache-resident across the whole batch
  /// (the "group range queries per intermediate space" amortization).
  /// Several points share one probe export per histogram into
  /// `probe_scratch` (caller-provided, >= 4 * max_buckets doubles) and the
  /// runtime-dispatched simd::HistogramRangeCount{,Many} kernels; a lone
  /// point counts with StreamingHistogram::EstimateCount instead. Either
  /// way each count is bit-identical to summing EstimateCount over the
  /// slot's intervals.
  void BatchTransformCounts(const FlatQueryRanges& ranges, double* counts_out,
                            double* probe_scratch) const;

  /// Median over transforms of the average cost in `point`'s ranges, taken
  /// over transforms with non-zero local density; 0 when none has any.
  /// Computed with EstimateCount/EstimateAverageCost (a transform's cost
  /// is the count-weighted mean over its intervals), writing the
  /// per-transform costs into `scratch` (>= transform_count doubles).
  double MedianAverageCost(const FlatQueryRanges& ranges, size_t point,
                           double* scratch) const;

  /// Exports every transform's probe table for the combined count+cost
  /// kernel into `probes` (caller-provided, >= transform_count * 5 *
  /// stride doubles, stride >= every histogram's bucket_count()).
  /// Transform i's table starts at probes + i * 5 * stride and holds the
  /// five arrays [left | right | count | cost | centroid], each `stride`
  /// apart. Pairs with BatchAverageCostsFromProbes, which amortizes the
  /// per-bucket extent math once per (synopsis, batch) instead of once
  /// per (point, bucket, estimate).
  void ExportCostProbes(size_t stride, double* probes) const;

  /// MedianAverageCost of the `n` points point_idx[0..n) of a single-range
  /// batch (ranges.offsets == nullptr), from a table built by
  /// ExportCostProbes. One across-queries simd::HistogramRangeCountCostMany
  /// call per transform covers every selected point; out[k] receives
  /// point_idx[k]'s median average cost, bit-identical to
  /// MedianAverageCost. Caller-provided workspaces: bounds_ws >= 2 * n,
  /// counts_ws and costs_ws >= transform_count * n, median_ws >=
  /// transform_count doubles.
  void BatchAverageCostsFromProbes(const FlatQueryRanges& ranges,
                                   const uint32_t* point_idx, size_t n,
                                   size_t stride, const double* probes,
                                   double* bounds_ws, double* counts_ws,
                                   double* costs_ws, double* median_ws,
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
