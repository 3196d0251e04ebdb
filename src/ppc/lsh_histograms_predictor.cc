#include "ppc/lsh_histograms_predictor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>
#include <string_view>

#include "clustering/confidence.h"
#include "common/arena.h"
#include "common/bytes.h"
#include "common/hash.h"
#include "common/macros.h"
#include "common/math_utils.h"

namespace ppc {

namespace {

/// Per-thread workspace of the predict path, reset per request. It keeps
/// the capacity of the largest request the thread has served, so repeated
/// serving reaches a zero-heap-allocation steady state.
Arena& ThreadArena() {
  thread_local Arena arena;
  return arena;
}

TransformConfig MakeTransformConfig(
    const LshHistogramsPredictor::Config& config) {
  TransformConfig tc;
  tc.input_dims = config.dimensions;
  tc.output_dims = config.output_dims > 0
                       ? config.output_dims
                       : DefaultOutputDims(config.dimensions);
  tc.bits_per_dim = config.bits_per_dim;
  tc.input_lo = config.input_lo;
  tc.input_hi = config.input_hi;
  return tc;
}

/// Ensemble seed for a transform generation. Generation 0 must reproduce
/// the historical ensemble exactly (bit-stable snapshots depend on it), so
/// the perturbation vanishes there; later generations decorrelate via the
/// golden-ratio SplitMix64 increment.
uint64_t EnsembleSeed(const LshHistogramsPredictor::Config& config) {
  return config.seed +
         0x9e3779b97f4a7c15ull * static_cast<uint64_t>(
                                     config.transform_generation);
}

/// Clamps [position - delta, position + delta] to the histogram domain
/// [0, 1], sliding the interval inward first so a query at the plan-space
/// boundary still covers its full 2*delta of curve length (an unslid range
/// would hang partly outside the domain and silently query less mass near
/// the boundary).
ZInterval SlideClampInterval(double position, double delta) {
  double lo = position - delta;
  double hi = position + delta;
  if (lo < 0.0) {
    hi = std::min(1.0, hi - lo);
    lo = 0.0;
  } else if (hi > 1.0) {
    lo = std::max(0.0, lo - (hi - 1.0));
    hi = 1.0;
  }
  return ZInterval{lo, hi};
}

/// Per transform, the half-width of the paper's single query range: the
/// hypersphere-volume rule, floored at half a grid cell's share of the
/// curve so the range never degenerates below the Z-order resolution. It
/// depends only on the transform and the radius, so the predictor
/// computes it once, at construction.
std::vector<double> RangeHalfWidths(
    const LshHistogramsPredictor::Config& config,
    const TransformEnsemble& transforms) {
  std::vector<double> half_widths(transforms.size());
  for (size_t i = 0; i < transforms.size(); ++i) {
    const RandomizedTransform& transform = transforms[i];
    const double cell_z = std::ldexp(1.0, -transform.curve().total_bits());
    half_widths[i] =
        std::max(transform.RangeHalfWidth(config.radius), 0.5 * cell_z);
  }
  return half_widths;
}

/// The one range builder: the paper's single range per point, one
/// interval per slot of the flat, transform-major query ranges of `count`
/// row-major points, allocated from `arena`. Predict, PredictBatch,
/// EstimateCost and QueryRanges all query through it. `half_widths` holds
/// RangeHalfWidths(config, transforms).
FlatQueryRanges BuildQueryRanges(const TransformEnsemble& transforms,
                                 const std::vector<double>& half_widths,
                                 const double* points, size_t count,
                                 Arena* arena) {
  const size_t t = transforms.size();
  const size_t s = static_cast<size_t>(transforms[0].config().output_dims);
  ZInterval* intervals = arena->Array<ZInterval>(t * count);
  double* positions = arena->Array<double>(count);
  double* transformed = arena->Array<double>(count * s);
  uint32_t* cell = arena->Array<uint32_t>(s);
  for (size_t i = 0; i < t; ++i) {
    transforms[i].LinearizedPositionBatch(points, count, positions,
                                          transformed, cell);
    for (size_t p = 0; p < count; ++p) {
      intervals[i * count + p] =
          SlideClampInterval(positions[p], half_widths[i]);
    }
  }
  return FlatQueryRanges{intervals, t, count};
}

}  // namespace

LshHistogramsPredictor::LshHistogramsPredictor(Config config)
    : config_(config),
      transforms_(MakeTransformConfig(config), config.transform_count,
                  EnsembleSeed(config)),
      half_widths_(RangeHalfWidths(config_, transforms_)),
      gate_(config.confidence_threshold) {}

LshHistogramsPredictor::LshHistogramsPredictor(
    Config config, const std::vector<LabeledPoint>& sample)
    : LshHistogramsPredictor(config) {
  for (const LabeledPoint& p : sample) Insert(p);
}

LshHistogramsPredictor::LshHistogramsPredictor(
    const LshHistogramsPredictor& other)
    : config_(other.config_),
      transforms_(other.transforms_),
      half_widths_(other.half_widths_),
      gate_(other.gate_),
      synopses_(other.synopses_),
      total_samples_(other.total_samples_) {}

LshHistogramsPredictor::LshHistogramsPredictor(
    LshHistogramsPredictor&& other) noexcept
    : config_(std::move(other.config_)),
      transforms_(std::move(other.transforms_)),
      half_widths_(std::move(other.half_widths_)),
      gate_(other.gate_),
      synopses_(std::move(other.synopses_)),
      total_samples_(other.total_samples_) {}

LshHistogramsPredictor& LshHistogramsPredictor::operator=(
    const LshHistogramsPredictor& other) {
  if (this != &other) {
    config_ = other.config_;
    transforms_ = other.transforms_;
    half_widths_ = other.half_widths_;
    gate_ = other.gate_;
    synopses_ = other.synopses_;
    total_samples_ = other.total_samples_;
  }
  return *this;
}

LshHistogramsPredictor& LshHistogramsPredictor::operator=(
    LshHistogramsPredictor&& other) noexcept {
  if (this != &other) {
    config_ = std::move(other.config_);
    transforms_ = std::move(other.transforms_);
    half_widths_ = std::move(other.half_widths_);
    gate_ = other.gate_;
    synopses_ = std::move(other.synopses_);
    total_samples_ = other.total_samples_;
  }
  return *this;
}

void LshHistogramsPredictor::Insert(const LabeledPoint& point) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = synopses_.find(point.plan);
  if (it == synopses_.end()) {
    it = synopses_
             .emplace(point.plan,
                      PlanSynopsis(transforms_.size(),
                                   config_.histogram_buckets,
                                   config_.merge_policy))
             .first;
  }
  for (size_t i = 0; i < transforms_.size(); ++i) {
    it->second.Insert(i, transforms_[i].LinearizedPosition(point.coords),
                      point.cost);
  }
  ++total_samples_;
}

std::vector<ZInterval> LshHistogramsPredictor::QueryRanges(
    const std::vector<double>& x) const {
  PPC_DCHECK(static_cast<int>(x.size()) == config_.dimensions);
  Arena& arena = ThreadArena();
  arena.Reset();
  const FlatQueryRanges ranges =
      BuildQueryRanges(transforms_, half_widths_, x.data(), 1, &arena);
  return std::vector<ZInterval>(ranges.intervals,
                                ranges.intervals + ranges.IntervalCount());
}

Prediction LshHistogramsPredictor::Predict(
    const std::vector<double>& x) const {
  PPC_DCHECK(static_cast<int>(x.size()) == config_.dimensions);
  Prediction out;
  PredictBatchInto(x.data(), 1, &out);
  return out;
}

std::vector<Prediction> LshHistogramsPredictor::PredictBatch(
    const double* points, size_t count) const {
  std::vector<Prediction> out(count);
  PredictBatchInto(points, count, out.data());
  return out;
}

void LshHistogramsPredictor::PredictBatchInto(const double* points,
                                              size_t count,
                                              Prediction* out) const {
  std::fill(out, out + count, Prediction{});
  if (count == 0) return;
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (synopses_.empty()) return;

  Arena& arena = ThreadArena();
  arena.Reset();
  const FlatQueryRanges ranges =
      BuildQueryRanges(transforms_, half_widths_, points, count, &arena);
  const size_t t = ranges.transform_count;

  // Noise elimination (Sec. IV-C): a fixed fraction of all samples is
  // assumed to be Z-order false positives and excluded from every plan's
  // density.
  const double noise_floor =
      config_.noise_fraction > 0.0
          ? config_.noise_fraction * static_cast<double>(total_samples_)
          : 0.0;

  // Running per-point argmax state, updated plan by plan in std::map
  // order, so a tie resolves to the lower plan id whatever the batch. Each
  // point also keeps its leader's t cost sums (point-major), taken from
  // the sweep's results when the leader changes, so the winner's cost
  // needs no second sweep.
  double* totals = arena.Array<double>(count);
  double* max_counts = arena.Array<double>(count);
  PlanId* max_plans = arena.Array<PlanId>(count);
  SlotCost* leader_costs = arena.Array<SlotCost>(count * t);
  std::fill(totals, totals + count, 0.0);
  std::fill(max_counts, max_counts + count, 0.0);
  std::fill(max_plans, max_plans + count, kNullPlanId);
  double* counts = arena.Array<double>(t * count);
  double* costs = arena.Array<double>(t * count);
  double* median_scratch = arena.Array<double>(t);
  // A range count sums bucket counts scaled by fractions <= 1, and
  // rounding is monotone, so no count exceeds the plan's sample count. A
  // plan at or below the noise floor then has density
  // max(0, raw - floor) = +0.0 at every point: it adds nothing to a total
  // and never leads, so skipping it changes no answer.
  for (const auto& [plan, synopsis] : synopses_) {
    if (static_cast<double>(synopsis.SampleCount()) <= noise_floor) continue;
    // All of this plan's histograms are walked batch-at-a-time: each bucket
    // array stays cache-hot across the count points of its transform.
    synopsis.SweepRanges(ranges, counts, costs);
    for (size_t p = 0; p < count; ++p) {
      // The median over transforms of the point's range count.
      for (size_t i = 0; i < t; ++i) {
        median_scratch[i] = counts[i * count + p];
      }
      const double raw = MedianInPlace(median_scratch, t);
      const double density = std::max(0.0, raw - noise_floor);
      totals[p] += density;
      if (density > max_counts[p]) {
        max_counts[p] = density;
        max_plans[p] = plan;
        for (size_t i = 0; i < t; ++i) {
          leader_costs[p * t + i] =
              SlotCostOf(counts[i * count + p], costs[i * count + p]);
        }
      }
    }
  }

  // Only a confident point is answered, and its cost comes from its
  // winner's saved sums. The gate decides from the counts, so only an
  // answered point pays for its confidence's bisection.
  for (size_t p = 0; p < count; ++p) {
    if (max_counts[p] <= 0.0) continue;
    const double others = totals[p] - max_counts[p];
    if (!gate_.Passes(max_counts[p], others)) continue;
    const double confidence = ConfidenceFromCounts(max_counts[p], others);
    PPC_DCHECK(confidence > config_.confidence_threshold);
    out[p].plan = max_plans[p];
    out[p].confidence = confidence;
    out[p].estimated_cost =
        MedianCostEstimate(leader_costs + p * t, t, median_scratch);
  }
}

double LshHistogramsPredictor::EstimateCost(const std::vector<double>& x,
                                            PlanId plan) const {
  PPC_DCHECK(static_cast<int>(x.size()) == config_.dimensions);
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = synopses_.find(plan);
  if (it == synopses_.end()) return 0.0;
  Arena& arena = ThreadArena();
  arena.Reset();
  const FlatQueryRanges ranges =
      BuildQueryRanges(transforms_, half_widths_, x.data(), 1, &arena);
  const size_t t = ranges.transform_count;
  double* counts = arena.Array<double>(t);
  double* costs = arena.Array<double>(t);
  SlotCost* slot_costs = arena.Array<SlotCost>(t);
  it->second.SweepRanges(ranges, counts, costs);
  for (size_t i = 0; i < t; ++i) {
    slot_costs[i] = SlotCostOf(counts[i], costs[i]);
  }
  return MedianCostEstimate(slot_costs, t, counts);
}

uint64_t LshHistogramsPredictor::SpaceBytes() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [plan, synopsis] : synopses_) {
    total += synopsis.SpaceBytes();
  }
  return total;
}

void LshHistogramsPredictor::Reset() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  synopses_.clear();
  total_samples_ = 0;
}

namespace {

/// Snapshot container format v2: the unversioned v1 layout (magic
/// 0x50504331 followed immediately by raw config fields) is rejected so a
/// layout change can never misparse an old blob as the new one. v2 wraps
/// the payload in an envelope — magic, format version, length-prefixed
/// config and data sections, and a trailing FNV-1a checksum over every
/// preceding byte — validated outside-in before any field is interpreted.
constexpr uint32_t kLegacySnapshotMagic = 0x50504331;  // "PPC1"
constexpr uint32_t kSnapshotMagic = 0x50504353;        // "PPCS"
// v3 appends the transform generation and the fitted per-dimension input
// ranges to the config section (adaptive retuning, DESIGN.md §17). v2
// blobs predate transform generations and are rejected as unsupported
// rather than silently adopted as generation 0 with unknown ranges.
constexpr uint32_t kSnapshotVersion = 3;
constexpr size_t kSnapshotChecksumBytes = sizeof(uint64_t);
// What v3 snapshots carry in the retired interval-budget field.
constexpr uint64_t kRetiredIntervalBudget = 8;

}  // namespace

std::string LshHistogramsPredictor::Serialize() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  ByteWriter config_section;
  config_section.PutU32(static_cast<uint32_t>(config_.dimensions));
  config_section.PutU32(static_cast<uint32_t>(config_.transform_count));
  config_section.PutU32(static_cast<uint32_t>(config_.output_dims));
  config_section.PutU32(static_cast<uint32_t>(config_.bits_per_dim));
  config_section.PutU64(config_.histogram_buckets);
  config_section.PutDouble(config_.radius);
  config_section.PutDouble(config_.confidence_threshold);
  config_section.PutDouble(config_.noise_fraction);
  config_section.PutU8(static_cast<uint8_t>(config_.merge_policy));
  config_section.PutU64(config_.seed);
  // Two retired fields keep the v3 layout: the Z-order decomposition flag
  // and its interval budget.
  config_section.PutU8(0);
  config_section.PutU64(kRetiredIntervalBudget);
  config_section.PutU32(config_.transform_generation);
  config_section.PutU32(static_cast<uint32_t>(config_.input_lo.size()));
  for (size_t i = 0; i < config_.input_lo.size(); ++i) {
    config_section.PutDouble(config_.input_lo[i]);
    config_section.PutDouble(config_.input_hi[i]);
  }

  ByteWriter data_section;
  data_section.PutU64(total_samples_);
  data_section.PutU32(static_cast<uint32_t>(synopses_.size()));
  for (const auto& [plan, synopsis] : synopses_) {
    data_section.PutU64(plan);
    synopsis.SerializeTo(&data_section);
  }

  ByteWriter writer;
  writer.PutU32(kSnapshotMagic);
  writer.PutU32(kSnapshotVersion);
  // PutString's u32 length prefix doubles as the per-section length.
  writer.PutString(config_section.buffer());
  writer.PutString(data_section.buffer());
  writer.PutU64(Fnv1a64(writer.buffer()));
  return writer.Take();
}

Result<LshHistogramsPredictor> LshHistogramsPredictor::Restore(
    const std::string& bytes) {
  // Envelope validation, outside-in. Every failure here is
  // InvalidArgument: a snapshot that cannot be structurally trusted must
  // never surface as a partial parse or an abort.
  constexpr size_t kEnvelopeBytes =
      4 /* magic */ + 4 /* version */ + 4 + 4 /* section lengths */ +
      kSnapshotChecksumBytes;
  if (bytes.size() < kEnvelopeBytes) {
    return Status::InvalidArgument("snapshot shorter than its envelope");
  }
  ByteReader reader(bytes);
  PPC_ASSIGN_OR_RETURN(uint32_t magic, reader.GetU32());
  if (magic == kLegacySnapshotMagic) {
    return Status::InvalidArgument(
        "unversioned v1 predictor snapshot is no longer supported");
  }
  if (magic != kSnapshotMagic) {
    return Status::InvalidArgument("not a predictor snapshot");
  }
  PPC_ASSIGN_OR_RETURN(uint32_t version, reader.GetU32());
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument("unsupported snapshot format version " +
                                   std::to_string(version));
  }
  // The trailing checksum covers every byte before it, so truncation,
  // bit flips, and corrupted section lengths all fail right here with
  // one error instead of whatever the damaged bytes happen to parse as.
  const uint64_t stored_checksum = [&] {
    uint64_t v;
    std::memcpy(&v, bytes.data() + bytes.size() - kSnapshotChecksumBytes,
                kSnapshotChecksumBytes);
    return v;
  }();
  const uint64_t computed_checksum = Fnv1a64(std::string_view(bytes).substr(
      0, bytes.size() - kSnapshotChecksumBytes));
  if (stored_checksum != computed_checksum) {
    return Status::InvalidArgument(
        "snapshot checksum mismatch (truncated or corrupted)");
  }
  auto sections = [&]() -> Result<LshHistogramsPredictor> {
    PPC_ASSIGN_OR_RETURN(std::string config_bytes, reader.GetString());
    PPC_ASSIGN_OR_RETURN(std::string data_bytes, reader.GetString());
    PPC_ASSIGN_OR_RETURN(uint64_t checksum, reader.GetU64());
    (void)checksum;  // verified above
    if (!reader.AtEnd()) {
      return Status::InvalidArgument("trailing bytes after snapshot");
    }
    return RestoreParsed(config_bytes, data_bytes);
  }();
  if (!sections.ok() && sections.status().code() == StatusCode::kOutOfRange) {
    // A checksum-consistent blob whose internal lengths still disagree
    // (the checksum was recomputed over corrupted sections) is malformed
    // input, not a caller range error.
    return Status::InvalidArgument(sections.status().message());
  }
  return sections;
}

Result<LshHistogramsPredictor> LshHistogramsPredictor::RestoreParsed(
    const std::string& config_bytes, const std::string& data_bytes) {
  ByteReader reader(config_bytes);
  Config config;
  PPC_ASSIGN_OR_RETURN(uint32_t dimensions, reader.GetU32());
  PPC_ASSIGN_OR_RETURN(uint32_t transform_count, reader.GetU32());
  PPC_ASSIGN_OR_RETURN(uint32_t output_dims, reader.GetU32());
  PPC_ASSIGN_OR_RETURN(uint32_t bits_per_dim, reader.GetU32());
  config.dimensions = static_cast<int>(dimensions);
  config.transform_count = static_cast<int>(transform_count);
  config.output_dims = static_cast<int>(output_dims);
  config.bits_per_dim = static_cast<int>(bits_per_dim);
  PPC_ASSIGN_OR_RETURN(config.histogram_buckets, reader.GetU64());
  PPC_ASSIGN_OR_RETURN(config.radius, reader.GetDouble());
  PPC_ASSIGN_OR_RETURN(config.confidence_threshold, reader.GetDouble());
  PPC_ASSIGN_OR_RETURN(config.noise_fraction, reader.GetDouble());
  PPC_ASSIGN_OR_RETURN(uint8_t policy_byte, reader.GetU8());
  if (policy_byte >
      static_cast<uint8_t>(StreamingHistogram::MergePolicy::kEquiWidth)) {
    return Status::InvalidArgument("unknown merge policy in snapshot");
  }
  config.merge_policy =
      static_cast<StreamingHistogram::MergePolicy>(policy_byte);
  PPC_ASSIGN_OR_RETURN(config.seed, reader.GetU64());
  // The retired Z-order decomposition mode: a snapshot that asks for it
  // asks for answers this predictor cannot give. Its interval budget is
  // range-checked below and otherwise ignored.
  PPC_ASSIGN_OR_RETURN(uint8_t decomposition_byte, reader.GetU8());
  if (decomposition_byte != 0) {
    return Status::InvalidArgument(
        "snapshot uses the retired Z-order decomposition mode");
  }
  PPC_ASSIGN_OR_RETURN(uint64_t interval_budget, reader.GetU64());
  PPC_ASSIGN_OR_RETURN(config.transform_generation, reader.GetU32());
  PPC_ASSIGN_OR_RETURN(uint32_t range_count, reader.GetU32());
  if (range_count != 0 && range_count != dimensions) {
    return Status::InvalidArgument(
        "snapshot input-range count mismatches dimensions");
  }
  config.input_lo.reserve(range_count);
  config.input_hi.reserve(range_count);
  for (uint32_t i = 0; i < range_count; ++i) {
    double lo, hi;
    PPC_ASSIGN_OR_RETURN(lo, reader.GetDouble());
    PPC_ASSIGN_OR_RETURN(hi, reader.GetDouble());
    // A fitted range must be a finite, non-degenerate interval: the
    // normalization divides by (hi - lo) inside the transform fold and a
    // bad span would otherwise trip a PPC_CHECK abort downstream.
    if (!std::isfinite(lo) || !std::isfinite(hi) || !(hi > lo)) {
      return Status::InvalidArgument(
          "snapshot input range is degenerate or non-finite");
    }
    config.input_lo.push_back(lo);
    config.input_hi.push_back(hi);
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument(
        "snapshot config section has trailing bytes");
  }

  // Validate the full configuration before constructing anything: a
  // malformed snapshot must fail as InvalidArgument here, not trip
  // PPC_CHECK aborts inside ZOrderCurve / StreamingHistogram downstream.
  // Bounds derive from the substrate: a Z-order curve holds at most 62
  // bits, histograms need >= 2 buckets, and the raw u32 fields must not
  // wrap negative when cast to int.
  constexpr uint64_t kMaxSaneCount = uint64_t{1} << 20;
  if (dimensions == 0 || dimensions > 62 ||
      transform_count == 0 || transform_count > 4096 ||
      output_dims > 62 ||
      bits_per_dim == 0 || bits_per_dim > 62 ||
      config.histogram_buckets < 2 ||
      config.histogram_buckets > kMaxSaneCount ||
      interval_budget < 1 || interval_budget > kMaxSaneCount) {
    return Status::InvalidArgument(
        "snapshot predictor configuration out of range");
  }
  const uint64_t effective_dims =
      output_dims > 0
          ? output_dims
          : static_cast<uint64_t>(DefaultOutputDims(config.dimensions));
  if (effective_dims * bits_per_dim > 62) {
    return Status::InvalidArgument(
        "snapshot Z-order resolution exceeds 62 bits");
  }

  LshHistogramsPredictor predictor(config);
  ByteReader data_reader(data_bytes);
  PPC_ASSIGN_OR_RETURN(predictor.total_samples_, data_reader.GetU64());
  PPC_ASSIGN_OR_RETURN(uint32_t plan_count, data_reader.GetU32());
  for (uint32_t i = 0; i < plan_count; ++i) {
    PPC_ASSIGN_OR_RETURN(uint64_t plan, data_reader.GetU64());
    PPC_ASSIGN_OR_RETURN(PlanSynopsis synopsis,
                         PlanSynopsis::Deserialize(&data_reader));
    if (synopsis.transform_count() != predictor.transforms_.size()) {
      return Status::InvalidArgument(
          "synopsis transform count mismatches configuration");
    }
    // Insert sizes every histogram from the config, so a data section
    // stitched to another predictor's config section is malformed.
    for (size_t t = 0; t < synopsis.transform_count(); ++t) {
      if (synopsis.histogram(t).max_buckets() != config.histogram_buckets) {
        return Status::InvalidArgument(
            "synopsis bucket budget mismatches configuration");
      }
    }
    predictor.synopses_.emplace(plan, std::move(synopsis));
  }
  if (!data_reader.AtEnd()) {
    return Status::InvalidArgument(
        "snapshot data section has trailing bytes");
  }
  return predictor;
}

Status LshHistogramsPredictor::AdoptState(
    const LshHistogramsPredictor& snapshot) {
  const Config& a = config_;
  const Config& b = snapshot.config_;
  // Generation first, with a dedicated error: adopting histograms built
  // under a different transform generation is the cross-generation mixing
  // the warm handoff must prevent (a refit draws new transforms, so the
  // incoming Z-order positions are meaningless here even when every other
  // config field matches).
  if (a.transform_generation != b.transform_generation) {
    return Status::InvalidArgument(
        "snapshot transform generation " +
        std::to_string(b.transform_generation) +
        " differs from local generation " +
        std::to_string(a.transform_generation));
  }
  // The transforms are a pure function of (config, seed); any mismatch
  // means the incoming histograms were built over different intermediate
  // spaces and would answer garbage here.
  if (a.dimensions != b.dimensions ||
      a.transform_count != b.transform_count ||
      a.output_dims != b.output_dims || a.bits_per_dim != b.bits_per_dim ||
      a.histogram_buckets != b.histogram_buckets || a.radius != b.radius ||
      a.confidence_threshold != b.confidence_threshold ||
      a.noise_fraction != b.noise_fraction ||
      a.merge_policy != b.merge_policy || a.seed != b.seed ||
      a.input_lo != b.input_lo || a.input_hi != b.input_hi) {
    return Status::InvalidArgument(
        "snapshot predictor configuration differs from local configuration");
  }
  // Copy out of the snapshot under its read lock, then swap in under our
  // write lock. Not intended for two live predictors adopting each other
  // concurrently (warm-start sources are freshly restored locals).
  std::map<PlanId, PlanSynopsis> synopses;
  size_t total_samples;
  {
    std::shared_lock<std::shared_mutex> source_lock(snapshot.mu_);
    synopses = snapshot.synopses_;
    total_samples = snapshot.total_samples_;
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  synopses_ = std::move(synopses);
  total_samples_ = total_samples;
  return Status::OK();
}

}  // namespace ppc
