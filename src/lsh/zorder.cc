#include "lsh/zorder.h"

#include <cmath>

#include "common/macros.h"
#include "lsh/simd.h"

namespace ppc {

ZOrderCurve::ZOrderCurve(int dimensions, int bits_per_dim)
    : dimensions_(dimensions), bits_per_dim_(bits_per_dim) {
  PPC_CHECK(dimensions >= 1 && bits_per_dim >= 1);
  PPC_CHECK_MSG(dimensions * bits_per_dim <= 62,
                "Morton code must fit in 62 bits");
  cpu_has_bmi2_ = simd::CpuSupportsBmi2();
  pdep_patterns_.resize(static_cast<size_t>(dimensions));
  for (int d = 0; d < dimensions; ++d) {
    uint64_t pattern = 0;
    for (int b = 0; b < bits_per_dim; ++b) {
      pattern |= uint64_t{1} << (b * dimensions + d);
    }
    pdep_patterns_[static_cast<size_t>(d)] = pattern;
  }
}

uint64_t ZOrderCurve::Interleave(const std::vector<uint32_t>& cells) const {
  PPC_DCHECK(static_cast<int>(cells.size()) == dimensions_);
  return Interleave(cells.data());
}

uint64_t ZOrderCurve::Interleave(const uint32_t* cells) const {
  const uint32_t mask = (bits_per_dim_ >= 32)
                            ? ~uint32_t{0}
                            : ((uint32_t{1} << bits_per_dim_) - 1);
  // pdep scatters each dimension's masked bits in one instruction; being
  // pure integer it is exactly the bit loop below, so it stays on even
  // when the FP kernels are forced scalar — except via PPC_DISABLE_AVX2,
  // which doubles as the "run the portable code" switch for tests.
  if (cpu_has_bmi2_ && simd::ActiveTier() == simd::Tier::kAvx2) {
    return simd::InterleavePdep(cells, dimensions_, mask,
                                pdep_patterns_.data());
  }
  uint64_t code = 0;
  // Bit b of dimension d lands at position b * dimensions + d, so the most
  // significant interleaved bits come from the most significant coordinate
  // bits — the property that makes the curve locality-preserving.
  for (int b = 0; b < bits_per_dim_; ++b) {
    for (int d = 0; d < dimensions_; ++d) {
      const uint64_t bit = (cells[static_cast<size_t>(d)] & mask) >> b & 1u;
      code |= bit << (b * dimensions_ + d);
    }
  }
  return code;
}

std::vector<uint32_t> ZOrderCurve::Deinterleave(uint64_t code) const {
  std::vector<uint32_t> cells(static_cast<size_t>(dimensions_), 0);
  for (int b = 0; b < bits_per_dim_; ++b) {
    for (int d = 0; d < dimensions_; ++d) {
      const uint32_t bit =
          static_cast<uint32_t>(code >> (b * dimensions_ + d) & 1u);
      cells[static_cast<size_t>(d)] |= bit << b;
    }
  }
  return cells;
}

double ZOrderCurve::Linearize(const std::vector<uint32_t>& cells) const {
  PPC_DCHECK(static_cast<int>(cells.size()) == dimensions_);
  return Linearize(cells.data());
}

double ZOrderCurve::Linearize(const uint32_t* cells) const {
  const double denom = std::ldexp(1.0, total_bits());
  return static_cast<double>(Interleave(cells)) / denom;
}

}  // namespace ppc
