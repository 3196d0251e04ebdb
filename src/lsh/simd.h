#ifndef PPC_LSH_SIMD_H_
#define PPC_LSH_SIMD_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "lsh/zorder.h"

namespace ppc {
namespace simd {

/// Runtime-dispatched vector kernels for the two measured hot spots of the
/// serving path: the LSH projection (RandomizedTransform::ApplyBatch) and
/// the histogram range probe. Every histogram range query — a lone
/// EstimateCount, a served batch, a cost estimate — runs one of the two
/// many-query range kernels over the histogram's own bucket array.
///
/// Contract: every AVX2 kernel is BIT-IDENTICAL to its scalar counterpart
/// on all inputs, including NaNs and signed zeros. The AVX2 kernels get
/// there by vectorizing ACROSS points or queries — each SIMD lane performs
/// exactly the scalar operation sequence, in the scalar order — and by
/// never using FMA in an accumulation (a fused multiply-add rounds once
/// where the scalar code rounds twice). The scalar kernels are both the
/// portable fallback and the oracle the bit-identity tests compare
/// against; the build keeps -ffp-contract at its strict-ISO default (off)
/// so the compiler cannot fuse the scalar side either.
///
/// Dispatch picks AVX2 when the CPU reports AVX2+FMA and the environment
/// variable PPC_DISABLE_AVX2 is unset (or "0"); anything else falls back
/// to scalar. The choice is made once and cached in an atomic; tests that
/// change the environment mid-process call ReinitializeDispatchForTest().

enum class Tier {
  kScalar = 0,
  kAvx2 = 1,
};

/// The tier the dispatched entry points will use (cached; cheap).
Tier ActiveTier();

/// "scalar" / "avx2" — recorded in benchmark JSON so the perf trajectory
/// distinguishes kernel wins from IO wins.
const char* TierName(Tier tier);

/// True iff the CPU supports the AVX2+FMA kernels (env override ignored).
bool CpuSupportsAvx2();

/// Drops the cached dispatch decision so the next ActiveTier() re-reads
/// the CPU and PPC_DISABLE_AVX2. Test-only; not thread-safe against
/// concurrent kernel use.
void ReinitializeDispatchForTest();

/// The LSH projection kernel behind RandomizedTransform::ApplyBatch.
/// `projections` is the output_dims x input_dims matrix (row-major),
/// `points` holds `count` row-major input_dims-dimensional points, and the
/// transformed coordinates land row-major in `out` (count * output_dims
/// doubles). Per point p and output j:
///   out[p*s + j] = sum_i projections[j*r + i] * (points[p*r + i] - 0.5)
///                  * scale  + shifts[j]
/// with left-to-right accumulation over i.
void ApplyBatch(const double* projections, const double* shifts, double scale,
                size_t input_dims, size_t output_dims, const double* points,
                size_t count, double* out);
void ApplyBatchScalar(const double* projections, const double* shifts,
                      double scale, size_t input_dims, size_t output_dims,
                      const double* points, size_t count, double* out);
/// Requires CpuSupportsAvx2(); exposed for side-by-side identity tests.
void ApplyBatchAvx2(const double* projections, const double* shifts,
                    double scale, size_t input_dims, size_t output_dims,
                    const double* points, size_t count, double* out);

/// One bucket of a StreamingHistogram, in the layout the range kernels
/// sweep: the histogram's own bucket array is their probe table.
struct HistogramBucket {
  double centroid = 0.0;
  double count = 0.0;
  double cost_sum = 0.0;
};

/// Extent [*left, *right) over which bucket i of the `n` centroid-sorted
/// `buckets` spreads its mass: midpoints to the neighbouring centroids,
/// the outer edges mirroring the gap to the single neighbour and clamped
/// to [0, 1]. A lone bucket is a point mass (left == right == centroid);
/// spreading it over the domain would fabricate support far from any
/// observation. Both tiers of both range kernels and the equi-width merge
/// policy share this one copy of the rule.
inline void BucketExtent(const HistogramBucket* buckets, size_t n, size_t i,
                         double* left, double* right) {
  const double c = buckets[i].centroid;
  if (n == 1) {
    *left = *right = c;
    return;
  }
  *left = (i == 0) ? std::max(0.0, c - 0.5 * (buckets[1].centroid - c))
                   : 0.5 * (buckets[i - 1].centroid + c);
  *right = (i + 1 == n)
               ? std::min(1.0, c + 0.5 * (c - buckets[i - 1].centroid))
               : 0.5 * (c + buckets[i + 1].centroid);
  if (*right < *left) std::swap(*left, *right);
}

/// The histogram range-count kernel: StreamingHistogram::EstimateCount
/// for the `queries` ranges in `ranges` against one bucket array; out[q]
/// receives the estimated count in [ranges[q].lo, ranges[q].hi]. Per
/// bucket, with its extent from BucketExtent,
///   width <= 0 ? (centroid in [lo, hi] ? count : skipped)
///              : count * (max(0, min(hi, right) - max(lo, left)) / width)
/// summed in bucket order; an empty table or lo > hi gives 0.0. One
/// query is EstimateCount itself; a batch of any size runs the same
/// per-query sequence. The AVX2 tier vectorizes ACROSS QUERIES — one query
/// per lane, buckets swept in order with the extent computed in scalar
/// code and broadcast — so every lane runs the exact scalar accumulation
/// sequence and bit-identity is structural. Lanes with inverted or NaN
/// bounds are masked to the scalar's 0.0.
void HistogramRangeCountMany(const HistogramBucket* buckets,
                             size_t bucket_count, const ZInterval* ranges,
                             size_t queries, double* out);
void HistogramRangeCountManyScalar(const HistogramBucket* buckets,
                                   size_t bucket_count, const ZInterval* ranges,
                                   size_t queries, double* out);
/// Requires CpuSupportsAvx2(); exposed for side-by-side identity tests.
void HistogramRangeCountManyAvx2(const HistogramBucket* buckets,
                                 size_t bucket_count, const ZInterval* ranges,
                                 size_t queries, double* out);

/// The combined count + cost kernel behind cost estimation: per query,
/// EstimateCount(lo, hi) into counts_out[q] and the cost-sum side of
/// EstimateAverageCost(lo, hi) into costs_out[q], in one bucket sweep.
/// Per bucket the coverage fraction is
///   frac = width <= 0 ? (centroid in [lo,hi] ? 1.0 : 0.0)
///                     : max(0, min(hi,right) - max(lo,left)) / width
/// and the kernel accumulates count*frac and cost_sum*frac, both in
/// bucket order. counts_out[q] is bit-identical to
/// HistogramRangeCountMany's answer (x*1.0 is exact; the out-of-range
/// x*0.0 = +0.0 terms the frac form adds cannot change a non-negative
/// sum) and costs_out[q]/counts_out[q] is EstimateAverageCost.
/// Vectorized across queries like HistogramRangeCountMany.
void HistogramRangeCountCostMany(const HistogramBucket* buckets,
                                 size_t bucket_count, const ZInterval* ranges,
                                 size_t queries, double* counts_out,
                                 double* costs_out);
void HistogramRangeCountCostManyScalar(const HistogramBucket* buckets,
                                       size_t bucket_count,
                                       const ZInterval* ranges, size_t queries,
                                       double* counts_out, double* costs_out);
/// Requires CpuSupportsAvx2(); exposed for side-by-side identity tests.
void HistogramRangeCountCostManyAvx2(const HistogramBucket* buckets,
                                     size_t bucket_count,
                                     const ZInterval* ranges, size_t queries,
                                     double* counts_out, double* costs_out);

/// Elementwise grid-cell bucketing behind
/// RandomizedTransform::LinearizedPositionBatch:
///   out[k] = Clamp(floor((y[k] - grid_lo) / grid_extent * cells),
///                  0.0, max_index)
/// kept in the double domain (the caller performs the uint32 cast) so the
/// AVX2 tier — sub/div/mul/floor and clamp via maxpd/minpd with operand
/// order matching std::max/std::min — is bit-identical to the scalar
/// expression, NaN propagation included. `out` may alias `y`.
void CellIndexBatch(const double* y, size_t n, double grid_lo,
                    double grid_extent, double cells, double max_index,
                    double* out);
void CellIndexBatchScalar(const double* y, size_t n, double grid_lo,
                          double grid_extent, double cells, double max_index,
                          double* out);
/// Requires CpuSupportsAvx2(); exposed for side-by-side identity tests.
void CellIndexBatchAvx2(const double* y, size_t n, double grid_lo,
                        double grid_extent, double cells, double max_index,
                        double* out);

/// True iff the CPU supports the BMI2 pdep Morton-interleave fast path.
bool CpuSupportsBmi2();

/// Morton interleave via one pdep per dimension: patterns[d] has a bit at
/// position b * dims + d for each b < bits_per_dim, so
/// _pdep_u64(cells[d] & mask, patterns[d]) scatters dimension d's bits to
/// their interleaved positions. Pure integer — identical to the scalar
/// bit loop on every input. Requires CpuSupportsBmi2().
uint64_t InterleavePdep(const uint32_t* cells, int dims, uint32_t mask,
                        const uint64_t* patterns);

}  // namespace simd
}  // namespace ppc

#endif  // PPC_LSH_SIMD_H_
