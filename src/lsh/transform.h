#ifndef PPC_LSH_TRANSFORM_H_
#define PPC_LSH_TRANSFORM_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "lsh/zorder.h"

namespace ppc {

/// Configuration of one randomized locality-preserving transform
/// (paper Sec. IV-B, after Tao et al.).
struct TransformConfig {
  /// Plan-space dimensionality r.
  int input_dims = 2;
  /// Intermediate-space dimensionality s. The paper uses s = r at low
  /// dimensions and s << r when dimensionality reduction is needed.
  int output_dims = 2;
  /// Grid resolution per axis as a power of two: Delta = 2^bits_per_dim.
  int bits_per_dim = 5;
  /// Per-dimension plan-space ranges [input_lo[i], input_hi[i]] that the
  /// transform normalizes onto the unit cube before the paper's pipeline
  /// runs. Empty means the identity fit ([0,1] per dimension) — the
  /// paper's fixed construction, bit-identical to the historical
  /// behavior. A retuning refit (DESIGN.md §17) zooms these onto the
  /// span actually covered by recent queries; the normalization folds
  /// into the projection matrix and shifts, so the SIMD kernels are
  /// untouched and the query radius is interpreted in range-relative
  /// units (a fitted transform behaves exactly like the paper's over the
  /// normalized workload).
  std::vector<double> input_lo;
  std::vector<double> input_hi;
};

/// Returns the paper's default projection dimensionality for a plan space
/// of `input_dims` dimensions: s = r for r <= 3, s = 3 above.
int DefaultOutputDims(int input_dims);

/// One randomized locality-preserving geometrical transformation of the
/// plan space (Sec. IV-B):
///
///  1. translate points by (-0.5, ..., -0.5) and scale by 2*lambda/sqrt(r),
///     where lambda is the radius of the hypersphere S whose volume equals
///     that of [-1,1]^r, placing the hypercube's vertices on S;
///  2. project onto s random unit vectors a_1..a_s (components drawn from a
///     normal distribution, then normalized);
///  3. shift each projection by b_j drawn uniformly from one grid-cell
///     width — "a much smaller interval" than Tao et al.'s, enough to
///     randomize bucket boundaries without breaking plan-choice
///     predictability;
///  4. bucket each coordinate on a fixed grid and linearize the cell with a
///     Z-order curve.
class RandomizedTransform {
 public:
  /// Draws the random projection vectors and shifts from `rng`.
  RandomizedTransform(const TransformConfig& config, Rng* rng);

  /// Steps 1-2-3: the transformed s-dimensional coordinates of `point`.
  /// Delegates to ApplyBatch with a batch of one, so scalar and batched
  /// callers share one arithmetic path and agree bit-for-bit.
  std::vector<double> Apply(const std::vector<double>& point) const;

  /// Steps 1-2-3 for `count` points stored contiguously row-major in
  /// `points` (point p is points[p*r .. p*r+r)). Writes the transformed
  /// coordinates row-major into `out` (point p at out[p*s .. p*s+s)); the
  /// caller provides count*s doubles. This is the matrix-times-batch
  /// kernel of the serving fast path: one pass over the s x r projection
  /// matrix per point, contiguous reads and writes, no per-point
  /// allocation. The per-coordinate accumulation order is identical to
  /// the historical scalar loop.
  void ApplyBatch(const double* points, size_t count, double* out) const;

  /// Step 4 cell coordinates of `point` on the grid.
  std::vector<uint32_t> Cell(const std::vector<double>& point) const;

  /// Step 4 from already-transformed coordinates `y` (s doubles), writing
  /// the cell into `cell` (s entries), so a caller holding an ApplyBatch
  /// result need not transform again.
  void CellFromTransformed(const double* y, uint32_t* cell) const;

  /// Z-order-linearized grid position of `point`, in [0, 1).
  double LinearizedPosition(const std::vector<double>& point) const;

  /// Z-order positions of `count` row-major points (layout as in
  /// ApplyBatch), written to `out[0 .. count)`. One transform pass, then
  /// per-point cell bucketing and Z-order linearization. Allocation-free:
  /// the caller provides the transform workspace (`transformed_ws`, count
  /// * output_dims doubles) and the cell scratch (`cell_ws`, output_dims
  /// entries) — typically from a per-request arena.
  void LinearizedPositionBatch(const double* points, size_t count,
                               double* out, double* transformed_ws,
                               uint32_t* cell_ws) const;

  /// Factor by which the transform scales Euclidean distances (projections
  /// onto unit vectors preserve lengths, so this is the step-1 scale).
  double distance_scale() const { return scale_; }

  /// Half-width, in normalized Z-order position, of the range covering the
  /// same volume fraction as a plan-space hypersphere of radius `d`
  /// (Sec. IV-C: "2*delta is equal to the volume of a hypersphere with
  /// radius d"), expressed relative to the grid's bounding box.
  double RangeHalfWidth(double d) const;

  const TransformConfig& config() const { return config_; }
  const ZOrderCurve& curve() const { return curve_; }
  /// Grid lower bound / extent along each transformed axis.
  double grid_lo() const { return grid_lo_; }
  double grid_extent() const { return grid_extent_; }

 private:
  TransformConfig config_;
  ZOrderCurve curve_;
  double scale_;        // step-1 distance scale
  double grid_lo_;      // transformed-axis grid origin
  double grid_extent_;  // transformed-axis grid span
  /// The s x r projection matrix, row-major (row j is unit vector a_j).
  /// Stored flat so ApplyBatch streams it without pointer chasing.
  std::vector<double> projections_;
  std::vector<double> shifts_;  // s per-axis shifts
};

/// An ensemble of t independently randomized transforms sharing one
/// configuration — the "t randomized transformations producing t
/// intermediate data spaces I_1..I_t" of Sec. IV-B.
class TransformEnsemble {
 public:
  TransformEnsemble(const TransformConfig& config, int count, uint64_t seed);

  const std::vector<RandomizedTransform>& transforms() const {
    return transforms_;
  }
  size_t size() const { return transforms_.size(); }
  const RandomizedTransform& operator[](size_t i) const {
    return transforms_[i];
  }

 private:
  std::vector<RandomizedTransform> transforms_;
};

}  // namespace ppc

#endif  // PPC_LSH_TRANSFORM_H_
