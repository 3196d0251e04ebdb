#include "ppc/plan_synopsis.h"

#include <algorithm>

#include "common/arena.h"
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
                                        double* interval_counts,
                                        double* counts_out) const {
  PPC_DCHECK(ranges.transform_count == histograms_.size());
  const size_t n = ranges.point_count;
  for (size_t i = 0; i < histograms_.size(); ++i) {
    const StreamingHistogram& histogram = histograms_[i];
    // Transform i's intervals are contiguous across its slots: one call
    // counts them all, each lane running the scalar accumulation sequence.
    const size_t first = ranges.SlotBegin(i * n);
    simd::HistogramRangeCountMany(histogram.buckets(),
                                  histogram.bucket_count(),
                                  ranges.intervals + first,
                                  ranges.SlotBegin((i + 1) * n) - first,
                                  interval_counts);
    for (size_t k = i * n; k < (i + 1) * n; ++k) {
      double total = 0.0;
      for (size_t j = ranges.SlotBegin(k); j < ranges.SlotBegin(k + 1); ++j) {
        total += interval_counts[j - first];
      }
      counts_out[k] = total;
    }
  }
}

void PlanSynopsis::MedianAverageCosts(const FlatQueryRanges& ranges,
                                      const uint32_t* point_idx, size_t n,
                                      Arena* arena, double* out) const {
  PPC_DCHECK(ranges.transform_count == histograms_.size());
  const size_t t = histograms_.size();
  const size_t points = ranges.point_count;
  size_t most = 0;  // the selected points' intervals in the busiest transform
  for (size_t i = 0; i < t; ++i) {
    size_t m = 0;
    for (size_t k = 0; k < n; ++k) {
      const size_t slot = i * points + point_idx[k];
      m += ranges.SlotBegin(slot + 1) - ranges.SlotBegin(slot);
    }
    most = std::max(most, m);
  }
  ZInterval* gathered = arena->Array<ZInterval>(most);
  double* counts = arena->Array<double>(most);
  double* costs = arena->Array<double>(most);
  double* count_sums = arena->Array<double>(t * n);
  double* cost_sums = arena->Array<double>(t * n);
  double* medians = arena->Array<double>(t);
  for (size_t i = 0; i < t; ++i) {
    // Gather the selected points' intervals for this transform, then
    // count+cost all of them in one sweep.
    size_t m = 0;
    for (size_t k = 0; k < n; ++k) {
      const auto [begin, end] = ranges.Slice(i, point_idx[k]);
      std::copy(begin, end, gathered + m);
      m += static_cast<size_t>(end - begin);
    }
    const StreamingHistogram& histogram = histograms_[i];
    simd::HistogramRangeCountCostMany(histogram.buckets(),
                                      histogram.bucket_count(), gathered, m,
                                      counts, costs);
    size_t j = 0;
    for (size_t k = 0; k < n; ++k) {
      const auto [begin, end] = ranges.Slice(i, point_idx[k]);
      double count = 0.0;
      double cost_sum = 0.0;
      for (const size_t last = j + static_cast<size_t>(end - begin); j < last;
           ++j) {
        // c * (cost / c), not cost: the estimate is the interval's
        // EstimateAverageCost weighted back by its count, and the quotient
        // is rounded before it is multiplied back.
        const double c = counts[j];
        if (c <= 0.0) continue;
        count += c;
        cost_sum += c * (costs[j] / c);
      }
      count_sums[i * n + k] = count;
      cost_sums[i * n + k] = cost_sum;
    }
  }
  for (size_t k = 0; k < n; ++k) {
    size_t m = 0;
    for (size_t i = 0; i < t; ++i) {
      const double count = count_sums[i * n + k];
      if (count > 0.0) medians[m++] = cost_sums[i * n + k] / count;
    }
    out[k] = m == 0 ? 0.0 : MedianInPlace(medians, m);
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
