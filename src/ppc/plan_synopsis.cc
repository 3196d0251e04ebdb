#include "ppc/plan_synopsis.h"

#include "common/macros.h"
#include "common/math_utils.h"
#include "lsh/simd.h"

namespace ppc {

PlanSynopsis::PlanSynopsis(size_t transform_count, size_t max_buckets,
                           StreamingHistogram::MergePolicy policy) {
  PPC_CHECK(transform_count >= 1);
  histograms_.reserve(transform_count);
  for (size_t i = 0; i < transform_count; ++i) {
    histograms_.emplace_back(max_buckets, policy);
  }
}

void PlanSynopsis::Insert(size_t transform_idx, double position,
                          double cost) {
  PPC_DCHECK(transform_idx < histograms_.size());
  histograms_[transform_idx].Insert(position, cost);
}

void PlanSynopsis::BatchTransformCounts(const FlatQueryRanges& ranges,
                                        double* counts_out,
                                        double* probe_scratch) const {
  PPC_DCHECK(ranges.transform_count == histograms_.size());
  if (ranges.point_count == 1) {
    // A lone point reads each histogram once, so exporting its probe
    // table would cost more than it saves: count straight from the
    // buckets (the kernels are bit-identical to EstimateCount).
    for (size_t i = 0; i < histograms_.size(); ++i) {
      double total = 0.0;
      const auto [begin, end] = ranges.Slice(i, 0);
      for (const ZInterval* interval = begin; interval != end; ++interval) {
        total += histograms_[i].EstimateCount(interval->lo, interval->hi);
      }
      counts_out[i] = total;
    }
    return;
  }
  for (size_t i = 0; i < histograms_.size(); ++i) {
    const StreamingHistogram& histogram = histograms_[i];
    // One probe export per (histogram, batch): the extent math that
    // EstimateCount redoes for every (point, bucket) pair is paid once
    // here, then the kernel streams the flat arrays.
    const size_t b = histogram.bucket_count();
    double* left = probe_scratch;
    double* right = probe_scratch + b;
    double* count = probe_scratch + 2 * b;
    double* centroid = probe_scratch + 3 * b;
    histogram.ExportProbe(left, right, count, centroid);
    double* row = counts_out + i * ranges.point_count;
    if (ranges.offsets == nullptr) {
      // Single-range mode: transform i's intervals are one contiguous
      // (lo, hi) pair per point, exactly the bounds layout the
      // across-queries kernel consumes — one call counts the whole batch
      // with each lane running the scalar accumulation sequence.
      static_assert(sizeof(ZInterval) == 2 * sizeof(double));
      simd::HistogramRangeCountMany(
          left, right, count, centroid, b,
          reinterpret_cast<const double*>(ranges.intervals +
                                          i * ranges.point_count),
          ranges.point_count, row);
      continue;
    }
    for (size_t p = 0; p < ranges.point_count; ++p) {
      double total = 0.0;
      const auto [begin, end] = ranges.Slice(i, p);
      for (const ZInterval* interval = begin; interval != end; ++interval) {
        total += simd::HistogramRangeCount(left, right, count, centroid, b,
                                           interval->lo, interval->hi);
      }
      row[p] = total;
    }
  }
}

double PlanSynopsis::MedianAverageCost(const FlatQueryRanges& ranges,
                                       size_t point, double* scratch) const {
  PPC_DCHECK(ranges.transform_count == histograms_.size());
  size_t n = 0;
  for (size_t i = 0; i < histograms_.size(); ++i) {
    double count = 0.0;
    double cost_sum = 0.0;
    const auto [begin, end] = ranges.Slice(i, point);
    for (const ZInterval* interval = begin; interval != end; ++interval) {
      const double c =
          histograms_[i].EstimateCount(interval->lo, interval->hi);
      if (c <= 0.0) continue;
      count += c;
      cost_sum +=
          c * histograms_[i].EstimateAverageCost(interval->lo, interval->hi);
    }
    if (count > 0.0) scratch[n++] = cost_sum / count;
  }
  return n == 0 ? 0.0 : MedianInPlace(scratch, n);
}

void PlanSynopsis::ExportCostProbes(size_t stride, double* probes) const {
  for (size_t i = 0; i < histograms_.size(); ++i) {
    const StreamingHistogram& histogram = histograms_[i];
    PPC_DCHECK(histogram.bucket_count() <= stride);
    double* base = probes + i * 5 * stride;
    histogram.ExportProbe(base, base + stride, base + 2 * stride,
                          base + 4 * stride);
    histogram.ExportProbeCosts(base + 3 * stride);
  }
}

void PlanSynopsis::BatchAverageCostsFromProbes(
    const FlatQueryRanges& ranges, const uint32_t* point_idx, size_t n,
    size_t stride, const double* probes, double* bounds_ws,
    double* counts_ws, double* costs_ws, double* median_ws,
    double* out) const {
  PPC_DCHECK(ranges.offsets == nullptr);
  PPC_DCHECK(ranges.transform_count == histograms_.size());
  const size_t t = histograms_.size();
  for (size_t i = 0; i < t; ++i) {
    // Gather the selected points' single intervals for this transform into
    // a dense bounds array, then count+cost all of them in one sweep.
    const ZInterval* row = ranges.intervals + i * ranges.point_count;
    for (size_t k = 0; k < n; ++k) {
      const ZInterval& interval = row[point_idx[k]];
      bounds_ws[2 * k] = interval.lo;
      bounds_ws[2 * k + 1] = interval.hi;
    }
    const double* base = probes + i * 5 * stride;
    simd::HistogramRangeCountCostMany(
        base, base + stride, base + 2 * stride, base + 3 * stride,
        base + 4 * stride, histograms_[i].bucket_count(), bounds_ws, n,
        counts_ws + i * n, costs_ws + i * n);
  }
  for (size_t k = 0; k < n; ++k) {
    // Same per-transform accumulation as MedianAverageCost, single-interval
    // form: count = c, cost_sum = c * (cost / c). Not `cost`: the
    // reference computes c * EstimateAverageCost(..), and
    // EstimateAverageCost rounds the quotient before it is multiplied back,
    // so collapsing the pair would skip both roundings.
    size_t m = 0;
    for (size_t i = 0; i < t; ++i) {
      const double c = counts_ws[i * n + k];
      if (c <= 0.0) continue;
      const double cost_sum = c * (costs_ws[i * n + k] / c);
      median_ws[m++] = cost_sum / c;
    }
    out[k] = m == 0 ? 0.0 : MedianInPlace(median_ws, m);
  }
}

size_t PlanSynopsis::SampleCount() const {
  return histograms_.empty() ? 0 : histograms_.front().TotalCount();
}

uint64_t PlanSynopsis::SpaceBytes() const {
  uint64_t total = 0;
  for (const StreamingHistogram& h : histograms_) total += h.SpaceBytes();
  return total;
}

void PlanSynopsis::Clear() {
  for (StreamingHistogram& h : histograms_) h.Clear();
}

void PlanSynopsis::SerializeTo(ByteWriter* writer) const {
  writer->PutU32(static_cast<uint32_t>(histograms_.size()));
  for (const StreamingHistogram& h : histograms_) h.SerializeTo(writer);
}

Result<PlanSynopsis> PlanSynopsis::Deserialize(ByteReader* reader) {
  PPC_ASSIGN_OR_RETURN(uint32_t count, reader->GetU32());
  if (count == 0) {
    return Status::InvalidArgument("synopsis needs >= 1 histogram");
  }
  PlanSynopsis synopsis;
  synopsis.histograms_.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    PPC_ASSIGN_OR_RETURN(StreamingHistogram histogram,
                         StreamingHistogram::Deserialize(reader));
    synopsis.histograms_.push_back(std::move(histogram));
  }
  return synopsis;
}

}  // namespace ppc
