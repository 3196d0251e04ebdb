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

void PlanSynopsis::SweepRanges(const FlatQueryRanges& ranges,
                              double* interval_counts, double* interval_costs,
                              double* counts_out) const {
  PPC_DCHECK(ranges.transform_count == histograms_.size());
  const size_t n = ranges.point_count;
  for (size_t i = 0; i < histograms_.size(); ++i) {
    const StreamingHistogram& histogram = histograms_[i];
    // Transform i's intervals are contiguous across its slots: one call
    // covers them all, each lane running the scalar accumulation sequence.
    const size_t first = ranges.SlotBegin(i * n);
    simd::HistogramRangeCountCostMany(
        histogram.buckets(), histogram.bucket_count(),
        ranges.intervals + first, ranges.SlotBegin((i + 1) * n) - first,
        interval_counts + first, interval_costs + first);
    for (size_t k = i * n; k < (i + 1) * n; ++k) {
      double total = 0.0;
      for (size_t j = ranges.SlotBegin(k); j < ranges.SlotBegin(k + 1); ++j) {
        total += interval_counts[j];
      }
      counts_out[k] = total;
    }
  }
}

SlotCost SlotCostOf(const FlatQueryRanges& ranges, size_t k,
                    const double* interval_counts,
                    const double* interval_costs) {
  SlotCost sums;
  for (size_t j = ranges.SlotBegin(k); j < ranges.SlotBegin(k + 1); ++j) {
    const double c = interval_counts[j];
    if (c <= 0.0) continue;
    sums.count += c;
    // c * (cost / c), not cost: see SlotCost.
    sums.cost += c * (interval_costs[j] / c);
  }
  return sums;
}

double MedianCostEstimate(const SlotCost* per_transform, size_t t,
                          double* scratch) {
  size_t m = 0;
  for (size_t i = 0; i < t; ++i) {
    const SlotCost& slot = per_transform[i];
    if (slot.count > 0.0) scratch[m++] = slot.cost / slot.count;
  }
  return m == 0 ? 0.0 : MedianInPlace(scratch, m);
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
