#ifndef PPC_LSH_ZORDER_H_
#define PPC_LSH_ZORDER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ppc {

/// A half-open interval [lo, hi) of normalized Z-order curve positions.
struct ZInterval {
  double lo = 0.0;
  double hi = 0.0;

  double width() const { return hi - lo; }
  bool operator==(const ZInterval& other) const = default;
};

/// Z-order (Morton) space-filling curve over a fixed-resolution grid
/// (paper Sec. IV-C: intermediate spaces are "linearized on [0,1] according
/// to their z-orders" so multi-dimensional plan-space distributions can be
/// stored in unidimensional database histograms).
class ZOrderCurve {
 public:
  /// A curve over `dimensions`-dimensional cells with `bits_per_dim` bits
  /// of resolution per dimension. dimensions * bits_per_dim must be <= 62.
  ZOrderCurve(int dimensions, int bits_per_dim);

  /// Bit-interleaves the cell coordinates into a Morton code. Coordinates
  /// are masked to bits_per_dim bits. The pointer overload (cells must
  /// hold dimensions() entries) serves allocation-free callers on the
  /// serving fast path.
  uint64_t Interleave(const std::vector<uint32_t>& cells) const;
  uint64_t Interleave(const uint32_t* cells) const;

  /// Inverse of Interleave.
  std::vector<uint32_t> Deinterleave(uint64_t code) const;

  /// Morton code normalized to [0, 1): Interleave / 2^(total bits).
  double Linearize(const std::vector<uint32_t>& cells) const;
  double Linearize(const uint32_t* cells) const;

  int dimensions() const { return dimensions_; }
  int bits_per_dim() const { return bits_per_dim_; }
  int total_bits() const { return dimensions_ * bits_per_dim_; }
  /// Number of cells along one axis (2^bits_per_dim).
  uint32_t cells_per_dim() const { return uint32_t{1} << bits_per_dim_; }

 private:
  int dimensions_;
  int bits_per_dim_;
  /// Per-dimension scatter masks for the BMI2 pdep Interleave fast path:
  /// patterns_[d] has a bit at position b * dimensions + d for each
  /// b < bits_per_dim. Precomputed once; the scalar bit loop remains the
  /// fallback and produces identical codes.
  std::vector<uint64_t> pdep_patterns_;
  /// CPU capability cached at construction (immutable per process); the
  /// per-call check in Interleave then reduces to one atomic tier load.
  bool cpu_has_bmi2_ = false;
};

}  // namespace ppc

#endif  // PPC_LSH_ZORDER_H_
