#include "lsh/transform.h"

#include <cmath>

#include "common/macros.h"
#include "common/math_utils.h"
#include "lsh/simd.h"

namespace ppc {

int DefaultOutputDims(int input_dims) {
  // The paper permits s << r "when dimensionality reduction is necessary";
  // empirically (bench_ablation_projection) projecting away dimensions
  // collapses far-apart plan regions onto each other and destroys the
  // density ratios the confidence model needs, so the default keeps s = r.
  // Callers that want reduction set output_dims explicitly.
  return input_dims;
}

RandomizedTransform::RandomizedTransform(const TransformConfig& config,
                                         Rng* rng)
    : config_(config),
      curve_(config.output_dims, config.bits_per_dim) {
  PPC_CHECK(rng != nullptr);
  PPC_CHECK(config.input_dims >= 1 && config.output_dims >= 1);
  const int r = config.input_dims;
  const int s = config.output_dims;

  // lambda: radius of the hypersphere with the volume of [-1,1]^r.
  const double lambda =
      HypersphereRadiusForVolume(r, std::pow(2.0, static_cast<double>(r)));
  // Step 1: [0,1]^r - 0.5 -> [-0.5,0.5]^r, scaled so vertices reach S.
  scale_ = 2.0 * lambda / std::sqrt(static_cast<double>(r));

  // Transformed coordinates satisfy |a_j . x'| <= ||x'|| <= lambda.
  const uint32_t cells = curve_.cells_per_dim();
  const double raw_extent = 2.0 * lambda;
  const double cell_width = raw_extent / static_cast<double>(cells);
  // Shifts stay within one cell width; widen the grid by one cell so
  // shifted points cannot fall off the high end.
  grid_lo_ = -lambda;
  grid_extent_ = raw_extent + cell_width;

  projections_.resize(static_cast<size_t>(s) * static_cast<size_t>(r));
  shifts_.resize(static_cast<size_t>(s));
  for (int j = 0; j < s; ++j) {
    double* a = projections_.data() +
                static_cast<size_t>(j) * static_cast<size_t>(r);
    double norm = 0.0;
    for (int i = 0; i < r; ++i) {
      a[i] = rng->Gaussian();
      norm += a[i] * a[i];
    }
    norm = std::sqrt(std::max(norm, 1e-12));
    for (int i = 0; i < r; ++i) a[i] /= norm;
    shifts_[static_cast<size_t>(j)] = rng->Uniform(0.0, cell_width);
  }

  // Fold the per-dimension range normalization x'_i = (x_i - lo_i)/span_i
  // into the projection matrix and shifts. The kernel computes
  //   y_j = sum_i a_ji * (x_i - 0.5) * scale + b_j,
  // and a_ji * (x'_i - 0.5) = (a_ji/span_i) * (x_i - 0.5)
  //                           + a_ji * ((0.5 - lo_i)/span_i - 0.5),
  // so dividing each column by its span and absorbing the constant term
  // into b_j reproduces the transform over normalized coordinates with
  // zero kernel changes. The identity fit skips the fold entirely, so
  // generation-0 transforms stay bit-identical to the historical ones.
  if (!config.input_lo.empty()) {
    PPC_CHECK(static_cast<int>(config.input_lo.size()) == r &&
              static_cast<int>(config.input_hi.size()) == r);
    for (int j = 0; j < s; ++j) {
      double* a = projections_.data() +
                  static_cast<size_t>(j) * static_cast<size_t>(r);
      double correction = 0.0;
      for (int i = 0; i < r; ++i) {
        const double lo = config.input_lo[static_cast<size_t>(i)];
        const double span = config.input_hi[static_cast<size_t>(i)] - lo;
        PPC_CHECK(span > 0.0);
        correction += a[i] * ((0.5 - lo) / span - 0.5);
        a[i] /= span;
      }
      shifts_[static_cast<size_t>(j)] += scale_ * correction;
    }
  }
}

void RandomizedTransform::ApplyBatch(const double* points, size_t count,
                                     double* out) const {
  // Runtime-dispatched kernel (src/lsh/simd.*): AVX2 across points when
  // the CPU has it, the historical scalar loop otherwise — bit-identical
  // either way, which the side-by-side kernel tests enforce.
  simd::ApplyBatch(projections_.data(), shifts_.data(), scale_,
                   static_cast<size_t>(config_.input_dims),
                   static_cast<size_t>(config_.output_dims), points, count,
                   out);
}

std::vector<double> RandomizedTransform::Apply(
    const std::vector<double>& point) const {
  PPC_DCHECK(static_cast<int>(point.size()) == config_.input_dims);
  std::vector<double> out(static_cast<size_t>(config_.output_dims));
  ApplyBatch(point.data(), 1, out.data());
  return out;
}

void RandomizedTransform::CellFromTransformed(const double* y,
                                              uint32_t* cell) const {
  const uint32_t cells = curve_.cells_per_dim();
  const size_t s = static_cast<size_t>(config_.output_dims);
  for (size_t j = 0; j < s; ++j) {
    const double frac = (y[j] - grid_lo_) / grid_extent_;
    const double idx = std::floor(frac * static_cast<double>(cells));
    cell[j] = static_cast<uint32_t>(
        Clamp(idx, 0.0, static_cast<double>(cells - 1)));
  }
}

std::vector<uint32_t> RandomizedTransform::Cell(
    const std::vector<double>& point) const {
  const std::vector<double> y = Apply(point);
  std::vector<uint32_t> cell(y.size());
  CellFromTransformed(y.data(), cell.data());
  return cell;
}

double RandomizedTransform::LinearizedPosition(
    const std::vector<double>& point) const {
  return curve_.Linearize(Cell(point));
}

void RandomizedTransform::LinearizedPositionBatch(
    const double* points, size_t count, double* out, double* transformed_ws,
    uint32_t* cell_ws) const {
  const size_t s = static_cast<size_t>(config_.output_dims);
  ApplyBatch(points, count, transformed_ws);
  // Elementwise cell bucketing across the whole batch (bit-identical to
  // CellFromTransformed), reusing the transform workspace in place: the
  // transformed coordinates are dead once bucketed.
  const uint32_t cells = curve_.cells_per_dim();
  simd::CellIndexBatch(transformed_ws, count * s, grid_lo_, grid_extent_,
                       static_cast<double>(cells),
                       static_cast<double>(cells - 1), transformed_ws);
  for (size_t p = 0; p < count; ++p) {
    const double* idx = transformed_ws + p * s;
    for (size_t j = 0; j < s; ++j) {
      cell_ws[j] = static_cast<uint32_t>(idx[j]);
    }
    out[p] = curve_.Linearize(cell_ws);
  }
}

double RandomizedTransform::RangeHalfWidth(double d) const {
  const int s = config_.output_dims;
  // Radius d in the plan space becomes d * scale_ in the transformed space
  // (unit-vector projections preserve lengths). The Z-order position is a
  // volume-fraction coordinate over the grid box, so the hypersphere's
  // share of the box volume gives the interval width 2*delta.
  const double dt = d * scale_;
  const double sphere = HypersphereVolume(s, dt);
  const double box = std::pow(grid_extent_, static_cast<double>(s));
  return Clamp(0.5 * sphere / box, 0.0, 0.5);
}

TransformEnsemble::TransformEnsemble(const TransformConfig& config, int count,
                                     uint64_t seed) {
  PPC_CHECK(count >= 1);
  Rng rng(seed);
  transforms_.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    transforms_.emplace_back(config, &rng);
  }
}

}  // namespace ppc
