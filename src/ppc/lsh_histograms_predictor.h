#ifndef PPC_PPC_LSH_HISTOGRAMS_PREDICTOR_H_
#define PPC_PPC_LSH_HISTOGRAMS_PREDICTOR_H_

#include <map>
#include <shared_mutex>
#include <vector>

#include "clustering/predictor.h"
#include "lsh/transform.h"
#include "ppc/plan_synopsis.h"

namespace ppc {

/// The APPROXIMATE-LSH-HISTOGRAMS algorithm (paper Sec. IV-C): like
/// APPROXIMATE-LSH, but instead of a grid of cells, each intermediate
/// space's per-plan point distribution is linearized with a Z-order curve
/// and summarized in a bounded-bucket database histogram (count + average
/// cost per bucket). Density queries become histogram range queries on
/// [T_ij(x) - delta, T_ij(x) + delta], where 2*delta equals the volume of
/// the radius-d hypersphere.
///
/// Two Z-order artifacts are countered (Sec. IV-C): *noise elimination*
/// discounts a fixed fraction of the total sample count from every plan's
/// local density (distant points mapped into the queried range), and the
/// *confidence sanity check* suppresses predictions where bucket
/// consolidation makes a plan's support ambiguous.
///
/// Space: t * n * b_h * 12 bytes. Prediction: O(t * n * b_h), constant in
/// the sample count |X|.
///
/// Thread safety: reads (Predict, EstimateCost, Serialize, accessors) take
/// a shared lock; writes (Insert, Reset) take an exclusive lock, so many
/// concurrent sessions can predict against one template's histograms while
/// optimizer feedback briefly serializes. Moving or copying a predictor is
/// NOT synchronized with concurrent use.
class LshHistogramsPredictor : public PlanPredictor {
 public:
  struct Config {
    /// Plan-space dimensionality r.
    int dimensions = 2;
    /// Number of randomized transformations t.
    int transform_count = 5;
    /// Intermediate-space dimensionality s; <= 0 picks the paper default.
    int output_dims = 0;
    /// Grid resolution per axis as a power of two.
    int bits_per_dim = 5;
    /// Maximum buckets per database histogram (the paper's b_h).
    size_t histogram_buckets = 40;
    /// Query radius d.
    double radius = 0.1;
    /// Confidence threshold gamma.
    double confidence_threshold = 0.7;
    /// Noise elimination: fraction of the total sample count subtracted
    /// from each plan's local density estimate; <= 0 disables.
    double noise_fraction = 0.0;
    /// Z-range querying mode. false: the paper's single interval
    /// [T(x) - delta, T(x) + delta]. true (extension): the query box is
    /// decomposed into up to max_z_intervals exact curve ranges via
    /// quadtree descent. Exact ranges stop distant cells that the curve
    /// interleaves into the single smeared interval from contributing
    /// counts (the flip side of Sec. IV-C's contiguity artifacts), which
    /// measurably raises precision at some cost in recall
    /// (bench_ext_zorder_decomposition).
    bool interval_decomposition = false;
    size_t max_z_intervals = 8;
    StreamingHistogram::MergePolicy merge_policy =
        StreamingHistogram::MergePolicy::kMinVarianceIncrease;
    uint64_t seed = 23;
    /// Transform generation (DESIGN.md §17). Generation 0 is the
    /// construction-time fit; each adaptive refit installs generation+1.
    /// The ensemble seed is derived from (seed, transform_generation), so
    /// distinct generations draw independent transforms, and histograms
    /// from one generation can never be adopted into another.
    uint32_t transform_generation = 0;
    /// Per-dimension plan-space ranges the transforms normalize onto the
    /// unit cube before hashing (see TransformConfig::input_lo). Empty =
    /// identity, the paper's fixed fit; a refit zooms these onto the
    /// observed workload span. Both must have exactly `dimensions`
    /// entries when non-empty, with input_lo[i] < input_hi[i].
    std::vector<double> input_lo;
    std::vector<double> input_hi;
  };

  explicit LshHistogramsPredictor(Config config);
  LshHistogramsPredictor(Config config,
                         const std::vector<LabeledPoint>& sample);

  LshHistogramsPredictor(const LshHistogramsPredictor& other);
  LshHistogramsPredictor(LshHistogramsPredictor&& other) noexcept;
  LshHistogramsPredictor& operator=(const LshHistogramsPredictor& other);
  LshHistogramsPredictor& operator=(LshHistogramsPredictor&& other) noexcept;

  /// A batch of one: PredictBatchInto(x.data(), 1, ...). `x` must have
  /// config().dimensions coordinates.
  Prediction Predict(const std::vector<double>& x) const override;

  /// Batched Predict over `count` points stored contiguously row-major
  /// (point p occupies points[p*r .. (p+1)*r) with r = config().dimensions).
  /// Returns one Prediction per point, in order, bit-identical to calling
  /// Predict on each point separately. The batch pays the shared lock
  /// once, applies each randomized transform as one matrix-times-batch
  /// kernel, and probes each plan histogram with one SIMD range-kernel
  /// call over the whole batch (range queries grouped per intermediate
  /// space; the AVX2 tier sweeps the buckets once per four points). The
  /// kernels read the histogram's own bucket array, so every batch size,
  /// one included, takes this same path.
  std::vector<Prediction> PredictBatch(const double* points,
                                       size_t count) const;

  /// PredictBatch into caller-provided storage (`out` holds `count`
  /// Predictions). This is the zero-allocation serving entry point: all
  /// scratch comes from a thread-local per-request arena plus
  /// capacity-retaining thread-local buffers, so after a warm-up call the
  /// whole prediction performs no heap allocation (verified by the
  /// allocation-counting test; in interval_decomposition mode the exact
  /// Z-range decomposition still allocates its interval lists).
  void PredictBatchInto(const double* points, size_t count,
                        Prediction* out) const;

  void Insert(const LabeledPoint& point) override;
  uint64_t SpaceBytes() const override;
  std::string Name() const override { return "APPROXIMATE-LSH-HISTOGRAMS"; }

  /// Estimated average execution cost of `plan` near `x` (the input to the
  /// negative-feedback misprediction test). 0 when the plan has no support
  /// near x.
  double EstimateCost(const std::vector<double>& x, PlanId plan) const;

  /// Drops every histogram and restarts sampling from scratch (paper
  /// Sec. IV-E: drift response).
  void Reset();

  /// Binary snapshot of the full predictor state (configuration +
  /// per-plan synopses). The randomized transforms are reconstructed
  /// deterministically from the serialized seed, so a restored predictor
  /// answers every query identically to the original. Enables a plan
  /// cache whose learned state survives server restarts and, via
  /// PredictorState, replicates across shards. Format v2 (DESIGN.md
  /// §15): magic, format version, length-prefixed config and data
  /// sections, trailing FNV-1a checksum over everything preceding it.
  std::string Serialize() const;

  /// Rebuilds a predictor from Serialize() output. Fails with
  /// InvalidArgument on malformed, truncated, corrupted, or
  /// stale-version input (the unversioned v1 layout is rejected, not
  /// misparsed).
  static Result<LshHistogramsPredictor> Restore(const std::string& bytes);

  /// Replaces this predictor's learned state (synopses + sample count)
  /// with `snapshot`'s, in place under the write lock, so references held
  /// by concurrent readers stay valid. The two configurations must be
  /// identical — the transforms are derived from (config, seed), and
  /// adopting histograms built under different transforms would silently
  /// answer garbage. Fails with InvalidArgument on any config mismatch.
  /// This is the warm-start path: a joining shard restores a leader
  /// snapshot and adopts it into its registered predictors.
  Status AdoptState(const LshHistogramsPredictor& snapshot);

  size_t TotalSamples() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return total_samples_;
  }
  size_t DistinctPlans() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return synopses_.size();
  }
  const Config& config() const { return config_; }
  /// Transform generation this predictor's ensemble was drawn for.
  uint32_t transform_generation() const {
    return config_.transform_generation;
  }

  /// Curve intervals to query for `x`, one list per transform (a single
  /// interval in the paper's mode, a decomposition in extension mode),
  /// built by the same range builder as the predict path. All intervals
  /// lie within the histogram domain [0, 1]. Public for tests and
  /// diagnostics.
  std::vector<std::vector<ZInterval>> QueryRanges(
      const std::vector<double>& x) const;

 private:
  /// Parses the checksum-verified config and data section payloads. Kept
  /// separate from Restore so envelope validation (magic, version,
  /// section lengths, checksum) and content validation cannot interleave.
  static Result<LshHistogramsPredictor> RestoreParsed(
      const std::string& config_bytes, const std::string& data_bytes);

  Config config_;
  TransformEnsemble transforms_;
  std::map<PlanId, PlanSynopsis> synopses_;
  size_t total_samples_ = 0;
  /// Guards synopses_ and total_samples_ (config_ and transforms_ are
  /// immutable after construction).
  mutable std::shared_mutex mu_;
};

}  // namespace ppc

#endif  // PPC_PPC_LSH_HISTOGRAMS_PREDICTOR_H_
