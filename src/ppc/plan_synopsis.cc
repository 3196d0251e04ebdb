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
                              double* counts_out, double* costs_out) const {
  PPC_DCHECK(ranges.transform_count == histograms_.size());
  const size_t n = ranges.point_count;
  for (size_t i = 0; i < histograms_.size(); ++i) {
    // Transform i's slots are contiguous: one call covers them all, each
    // lane running the scalar accumulation sequence.
    const StreamingHistogram& histogram = histograms_[i];
    simd::HistogramRangeCountCostMany(
        histogram.buckets(), histogram.bucket_count(), ranges.intervals + i * n,
        n, counts_out + i * n, costs_out + i * n);
  }
}

SlotCost SlotCostOf(double count, double cost) {
  if (count <= 0.0) return SlotCost{};
  // c * (cost / c), not cost: see SlotCost.
  return SlotCost{count, count * (cost / count)};
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
