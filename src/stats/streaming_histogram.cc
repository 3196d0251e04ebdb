#include "stats/streaming_histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/macros.h"
#include "common/math_utils.h"

namespace ppc {

StreamingHistogram::StreamingHistogram(size_t max_buckets, MergePolicy policy)
    : max_buckets_(max_buckets), policy_(policy) {
  PPC_CHECK_MSG(max_buckets >= 2, "histogram needs at least 2 buckets");
}

void StreamingHistogram::Insert(double position, double cost) {
  position = Clamp(position, 0.0, 1.0);
  ++total_count_;
  // Find insertion point among centroids.
  auto it = std::lower_bound(
      buckets_.begin(), buckets_.end(), position,
      [](const Bucket& b, double pos) { return b.centroid < pos; });
  if (it != buckets_.end() && it->centroid == position) {
    it->count += 1.0;
    it->cost_sum += cost;
    return;
  }
  buckets_.insert(it, Bucket{position, 1.0, cost});
  if (buckets_.size() > max_buckets_) {
    MergeAt(PickMergeIndex());
  }
}

size_t StreamingHistogram::PickMergeIndex() const {
  PPC_DCHECK(buckets_.size() >= 2);
  size_t best = 0;
  double best_score = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i + 1 < buckets_.size(); ++i) {
    const Bucket& a = buckets_[i];
    const Bucket& b = buckets_[i + 1];
    const double gap = b.centroid - a.centroid;
    double score = 0.0;
    switch (policy_) {
      case MergePolicy::kMinVarianceIncrease:
        // Increase in within-bucket weighted variance caused by merging:
        // n_a*n_b/(n_a+n_b) * gap^2.
        score = a.count * b.count / (a.count + b.count) * gap * gap;
        break;
      case MergePolicy::kNearestCentroid:
        score = gap;
        break;
      case MergePolicy::kEquiWidth:
        // Prefer merges that keep bucket extents near-uniform: merge the
        // pair whose combined extent is smallest.
        double la, ra, lb, rb;
        simd::BucketExtent(buckets_.data(), buckets_.size(), i, &la, &ra);
        simd::BucketExtent(buckets_.data(), buckets_.size(), i + 1, &lb, &rb);
        score = rb - la;
        break;
    }
    if (score < best_score) {
      best_score = score;
      best = i;
    }
  }
  return best;
}

void StreamingHistogram::MergeAt(size_t i) {
  PPC_DCHECK(i + 1 < buckets_.size());
  Bucket& a = buckets_[i];
  const Bucket& b = buckets_[i + 1];
  const double total = a.count + b.count;
  a.centroid = (a.centroid * a.count + b.centroid * b.count) / total;
  a.count = total;
  a.cost_sum += b.cost_sum;
  buckets_.erase(buckets_.begin() + static_cast<ptrdiff_t>(i) + 1);
}

double StreamingHistogram::EstimateCount(double lo, double hi) const {
  const ZInterval range{lo, hi};
  double count;
  simd::HistogramRangeCountMany(buckets_.data(), buckets_.size(), &range, 1,
                                &count);
  return count;
}

double StreamingHistogram::EstimateAverageCost(double lo, double hi) const {
  const ZInterval range{lo, hi};
  double count, cost;
  simd::HistogramRangeCountCostMany(buckets_.data(), buckets_.size(), &range,
                                    1, &count, &cost);
  return count > 0.0 ? cost / count : 0.0;
}

void StreamingHistogram::Clear() {
  buckets_.clear();
  total_count_ = 0;
}

void StreamingHistogram::SerializeTo(ByteWriter* writer) const {
  writer->PutU32(static_cast<uint32_t>(max_buckets_));
  writer->PutU8(static_cast<uint8_t>(policy_));
  writer->PutU64(total_count_);
  writer->PutU32(static_cast<uint32_t>(buckets_.size()));
  for (const Bucket& bucket : buckets_) {
    writer->PutDouble(bucket.centroid);
    writer->PutDouble(bucket.count);
    writer->PutDouble(bucket.cost_sum);
  }
}

Result<StreamingHistogram> StreamingHistogram::Deserialize(
    ByteReader* reader) {
  PPC_ASSIGN_OR_RETURN(uint32_t max_buckets, reader->GetU32());
  PPC_ASSIGN_OR_RETURN(uint8_t policy_byte, reader->GetU8());
  if (max_buckets < 2) {
    return Status::InvalidArgument("histogram max_buckets < 2");
  }
  if (policy_byte > static_cast<uint8_t>(MergePolicy::kEquiWidth)) {
    return Status::InvalidArgument("unknown histogram merge policy");
  }
  StreamingHistogram histogram(max_buckets,
                               static_cast<MergePolicy>(policy_byte));
  PPC_ASSIGN_OR_RETURN(uint64_t total, reader->GetU64());
  PPC_ASSIGN_OR_RETURN(uint32_t bucket_count, reader->GetU32());
  if (bucket_count > max_buckets) {
    return Status::InvalidArgument("bucket count exceeds budget");
  }
  // Each bucket is three doubles; a count the remaining bytes cannot hold
  // is rejected before it sizes an allocation.
  if (bucket_count > reader->remaining() / (3 * sizeof(double))) {
    return Status::InvalidArgument("bucket count exceeds snapshot size");
  }
  histogram.total_count_ = total;
  histogram.buckets_.reserve(bucket_count);
  double prev_centroid = 0.0;
  for (uint32_t i = 0; i < bucket_count; ++i) {
    Bucket bucket;
    PPC_ASSIGN_OR_RETURN(bucket.centroid, reader->GetDouble());
    PPC_ASSIGN_OR_RETURN(bucket.count, reader->GetDouble());
    PPC_ASSIGN_OR_RETURN(bucket.cost_sum, reader->GetDouble());
    // Insert keeps centroids sorted inside [0, 1] and counts and cost
    // sums finite; NaN fails every comparison here.
    const bool valid = bucket.centroid >= prev_centroid &&
                       bucket.centroid <= 1.0 && bucket.count >= 0.0 &&
                       std::isfinite(bucket.count) &&
                       std::isfinite(bucket.cost_sum);
    if (!valid) {
      return Status::InvalidArgument("malformed histogram bucket");
    }
    prev_centroid = bucket.centroid;
    histogram.buckets_.push_back(bucket);
  }
  return histogram;
}

std::string StreamingHistogram::DebugString() const {
  std::ostringstream os;
  os << "StreamingHistogram{buckets=" << buckets_.size()
     << ", total=" << total_count_ << ", [";
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (i) os << ", ";
    const double avg =
        buckets_[i].count > 0 ? buckets_[i].cost_sum / buckets_[i].count : 0.0;
    os << "(" << buckets_[i].centroid << ", n=" << buckets_[i].count
       << ", avg=" << avg << ")";
  }
  os << "]}";
  return os.str();
}

}  // namespace ppc
