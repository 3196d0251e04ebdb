#include "lsh/simd.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>

#if defined(__x86_64__) || defined(__i386__)
#define PPC_SIMD_X86 1
#include <immintrin.h>
#endif

namespace ppc {
namespace simd {

namespace {

constexpr int kTierUnresolved = -1;
std::atomic<int> g_tier{kTierUnresolved};

/// The across-points projection kernel keeps one __m256d of centered
/// coordinates per input dimension on the stack; points wider than this
/// take the scalar path (plan spaces are <= 62-dimensional by the Z-order
/// bit budget, so this is not a practical limit).
constexpr size_t kMaxAvx2InputDims = 64;

Tier ResolveTier() {
  const char* env = std::getenv("PPC_DISABLE_AVX2");
  const bool disabled =
      env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
  if (disabled || !CpuSupportsAvx2()) return Tier::kScalar;
  return Tier::kAvx2;
}

}  // namespace

Tier ActiveTier() {
  int tier = g_tier.load(std::memory_order_relaxed);
  if (tier == kTierUnresolved) {
    // Benign race: ResolveTier is deterministic, concurrent first calls
    // store the same value.
    tier = static_cast<int>(ResolveTier());
    g_tier.store(tier, std::memory_order_relaxed);
  }
  return static_cast<Tier>(tier);
}

const char* TierName(Tier tier) {
  return tier == Tier::kAvx2 ? "avx2" : "scalar";
}

bool CpuSupportsAvx2() {
#ifdef PPC_SIMD_X86
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

void ReinitializeDispatchForTest() {
  g_tier.store(kTierUnresolved, std::memory_order_relaxed);
}

void ApplyBatchScalar(const double* projections, const double* shifts,
                      double scale, size_t input_dims, size_t output_dims,
                      const double* points, size_t count, double* out) {
  const size_t r = input_dims;
  const size_t s = output_dims;
  for (size_t p = 0; p < count; ++p) {
    const double* x = points + p * r;
    double* y = out + p * s;
    for (size_t j = 0; j < s; ++j) {
      const double* a = projections + j * r;
      double dot = 0.0;
      for (size_t i = 0; i < r; ++i) {
        dot += a[i] * (x[i] - 0.5) * scale;
      }
      y[j] = dot + shifts[j];
    }
  }
}

void HistogramRangeCountManyScalar(const HistogramBucket* buckets,
                                   size_t bucket_count, const ZInterval* ranges,
                                   size_t queries, double* out) {
  for (size_t q = 0; q < queries; ++q) {
    const double lo = ranges[q].lo;
    const double hi = ranges[q].hi;
    if (lo > hi) {
      out[q] = 0.0;
      continue;
    }
    double total = 0.0;
    for (size_t i = 0; i < bucket_count; ++i) {
      double left, right;
      BucketExtent(buckets, bucket_count, i, &left, &right);
      const double width = right - left;
      if (width <= 0.0) {
        // Point mass: counted iff inside the range.
        const double c = buckets[i].centroid;
        if (c >= lo && c <= hi) total += buckets[i].count;
        continue;
      }
      const double overlap =
          std::max(0.0, std::min(hi, right) - std::max(lo, left));
      total += buckets[i].count * (overlap / width);
    }
    out[q] = total;
  }
}

void HistogramRangeCountCostManyScalar(const HistogramBucket* buckets,
                                       size_t bucket_count,
                                       const ZInterval* ranges, size_t queries,
                                       double* counts_out, double* costs_out) {
  for (size_t q = 0; q < queries; ++q) {
    const double lo = ranges[q].lo;
    const double hi = ranges[q].hi;
    if (lo > hi) {
      counts_out[q] = 0.0;
      costs_out[q] = 0.0;
      continue;
    }
    double total_count = 0.0;
    double total_cost = 0.0;
    for (size_t i = 0; i < bucket_count; ++i) {
      double left, right;
      BucketExtent(buckets, bucket_count, i, &left, &right);
      const double width = right - left;
      double frac;
      if (width <= 0.0) {
        const double c = buckets[i].centroid;
        frac = (c >= lo && c <= hi) ? 1.0 : 0.0;
      } else {
        const double overlap =
            std::max(0.0, std::min(hi, right) - std::max(lo, left));
        frac = overlap / width;
      }
      total_count += buckets[i].count * frac;
      total_cost += buckets[i].cost_sum * frac;
    }
    counts_out[q] = total_count;
    costs_out[q] = total_cost;
  }
}

void CellIndexBatchScalar(const double* y, size_t n, double grid_lo,
                          double grid_extent, double cells, double max_index,
                          double* out) {
  for (size_t k = 0; k < n; ++k) {
    const double frac = (y[k] - grid_lo) / grid_extent;
    out[k] = std::min(std::max(std::floor(frac * cells), 0.0), max_index);
  }
}

#ifdef PPC_SIMD_X86

__attribute__((target("avx2,fma"))) void ApplyBatchAvx2(
    const double* projections, const double* shifts, double scale,
    size_t input_dims, size_t output_dims, const double* points, size_t count,
    double* out) {
  const size_t r = input_dims;
  const size_t s = output_dims;
  if (r > kMaxAvx2InputDims) {
    ApplyBatchScalar(projections, shifts, scale, r, s, points, count, out);
    return;
  }
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d vscale = _mm256_set1_pd(scale);
  __m256d centered[kMaxAvx2InputDims];
  size_t p = 0;
  for (; p + 4 <= count; p += 4) {
    // Four points per iteration, one per lane. Each lane runs the exact
    // scalar operation sequence — subtract, multiply, multiply, add, in
    // the same i order — so the lanes are bit-identical to four scalar
    // evaluations. (x[i] - 0.5) is hoisted out of the j loop; the scalar
    // code recomputes it per j, but subtraction is deterministic, so the
    // hoisted value is the same bits.
    const double* x0 = points + p * r;
    const double* x1 = x0 + r;
    const double* x2 = x1 + r;
    const double* x3 = x2 + r;
    for (size_t i = 0; i < r; ++i) {
      centered[i] =
          _mm256_sub_pd(_mm256_set_pd(x3[i], x2[i], x1[i], x0[i]), half);
    }
    for (size_t j = 0; j < s; ++j) {
      const double* a = projections + j * r;
      __m256d dot = _mm256_setzero_pd();
      for (size_t i = 0; i < r; ++i) {
        // Two explicit multiplies, never an FMA: fusing would round once
        // where the scalar oracle rounds twice and break bit-identity.
        const __m256d term = _mm256_mul_pd(
            _mm256_mul_pd(_mm256_set1_pd(a[i]), centered[i]), vscale);
        dot = _mm256_add_pd(dot, term);
      }
      const __m256d y = _mm256_add_pd(dot, _mm256_set1_pd(shifts[j]));
      double lanes[4];
      _mm256_storeu_pd(lanes, y);
      out[(p + 0) * s + j] = lanes[0];
      out[(p + 1) * s + j] = lanes[1];
      out[(p + 2) * s + j] = lanes[2];
      out[(p + 3) * s + j] = lanes[3];
    }
  }
  if (p < count) {
    ApplyBatchScalar(projections, shifts, scale, r, s, points + p * r,
                     count - p, out + p * s);
  }
}

__attribute__((target("avx2,fma"))) void HistogramRangeCountManyAvx2(
    const HistogramBucket* buckets, size_t bucket_count,
    const ZInterval* ranges, size_t queries, double* out) {
  const __m256d zero = _mm256_setzero_pd();
  size_t q = 0;
  for (; q + 4 <= queries; q += 4) {
    // One query per lane; every lane sweeps the buckets in order, running
    // the exact scalar accumulation sequence, so bit-identity needs no
    // per-bucket summation tricks. The extent is computed once per bucket
    // in scalar code (the scalar tier's own BucketExtent) and broadcast
    // with the bucket's count and centroid; being bucket-uniform, it also
    // lets the point-mass branch stay a scalar branch instead of a blend.
    const __m256d vlo = _mm256_set_pd(ranges[q + 3].lo, ranges[q + 2].lo,
                                      ranges[q + 1].lo, ranges[q].lo);
    const __m256d vhi = _mm256_set_pd(ranges[q + 3].hi, ranges[q + 2].hi,
                                      ranges[q + 1].hi, ranges[q].hi);
    __m256d acc = zero;
    for (size_t i = 0; i < bucket_count; ++i) {
      double left, right;
      BucketExtent(buckets, bucket_count, i, &left, &right);
      const double width = right - left;
      __m256d contrib;
      if (width <= 0.0) {
        const __m256d cen = _mm256_set1_pd(buckets[i].centroid);
        const __m256d in_range =
            _mm256_and_pd(_mm256_cmp_pd(cen, vlo, _CMP_GE_OQ),
                          _mm256_cmp_pd(cen, vhi, _CMP_LE_OQ));
        contrib = _mm256_and_pd(_mm256_set1_pd(buckets[i].count), in_range);
      } else {
        // minpd(r, vhi) and maxpd(l, vlo) return their SECOND operand on
        // equality and NaN, matching std::min(hi, right) / std::max(lo,
        // left); maxpd(zero, x)'s zero-sign and NaN differences are
        // handled by the non-negative-sum argument and the validity mask
        // below.
        const __m256d overlap = _mm256_max_pd(
            zero, _mm256_sub_pd(_mm256_min_pd(_mm256_set1_pd(right), vhi),
                                _mm256_max_pd(_mm256_set1_pd(left), vlo)));
        contrib = _mm256_mul_pd(
            _mm256_set1_pd(buckets[i].count),
            _mm256_div_pd(overlap, _mm256_set1_pd(width)));
      }
      acc = _mm256_add_pd(acc, contrib);
    }
    // Inverted lanes accumulate exactly +0.0 on their own; NaN-bound
    // lanes do not (maxpd(0, NaN) yields NaN where std::max picks 0), so
    // mask every !(lo <= hi) lane to the scalar's 0.0.
    acc = _mm256_and_pd(acc, _mm256_cmp_pd(vlo, vhi, _CMP_LE_OQ));
    _mm256_storeu_pd(out + q, acc);
  }
  if (q < queries) {
    HistogramRangeCountManyScalar(buckets, bucket_count, ranges + q,
                                  queries - q, out + q);
  }
}

__attribute__((target("avx2,fma"))) void HistogramRangeCountCostManyAvx2(
    const HistogramBucket* buckets, size_t bucket_count,
    const ZInterval* ranges, size_t queries, double* counts_out,
    double* costs_out) {
  const __m256d zero = _mm256_setzero_pd();
  size_t q = 0;
  for (; q + 4 <= queries; q += 4) {
    // One query per lane, both accumulators swept in bucket order — the
    // same structural bit-identity argument as HistogramRangeCountManyAvx2
    // applied to the frac formulation of the scalar tier.
    const __m256d vlo = _mm256_set_pd(ranges[q + 3].lo, ranges[q + 2].lo,
                                      ranges[q + 1].lo, ranges[q].lo);
    const __m256d vhi = _mm256_set_pd(ranges[q + 3].hi, ranges[q + 2].hi,
                                      ranges[q + 1].hi, ranges[q].hi);
    __m256d acc_count = zero;
    __m256d acc_cost = zero;
    for (size_t i = 0; i < bucket_count; ++i) {
      double left, right;
      BucketExtent(buckets, bucket_count, i, &left, &right);
      const double width = right - left;
      __m256d frac;
      if (width <= 0.0) {
        const __m256d cen = _mm256_set1_pd(buckets[i].centroid);
        const __m256d in_range =
            _mm256_and_pd(_mm256_cmp_pd(cen, vlo, _CMP_GE_OQ),
                          _mm256_cmp_pd(cen, vhi, _CMP_LE_OQ));
        frac = _mm256_and_pd(_mm256_set1_pd(1.0), in_range);
      } else {
        const __m256d overlap = _mm256_max_pd(
            zero, _mm256_sub_pd(_mm256_min_pd(_mm256_set1_pd(right), vhi),
                                _mm256_max_pd(_mm256_set1_pd(left), vlo)));
        frac = _mm256_div_pd(overlap, _mm256_set1_pd(width));
      }
      acc_count = _mm256_add_pd(
          acc_count, _mm256_mul_pd(_mm256_set1_pd(buckets[i].count), frac));
      acc_cost = _mm256_add_pd(
          acc_cost, _mm256_mul_pd(_mm256_set1_pd(buckets[i].cost_sum), frac));
    }
    // Mask !(lo <= hi) lanes to the scalar's (0.0, 0.0) — see
    // HistogramRangeCountManyAvx2 for why NaN lanes need this.
    const __m256d valid = _mm256_cmp_pd(vlo, vhi, _CMP_LE_OQ);
    _mm256_storeu_pd(counts_out + q, _mm256_and_pd(acc_count, valid));
    _mm256_storeu_pd(costs_out + q, _mm256_and_pd(acc_cost, valid));
  }
  if (q < queries) {
    HistogramRangeCountCostManyScalar(buckets, bucket_count, ranges + q,
                                      queries - q, counts_out + q,
                                      costs_out + q);
  }
}

__attribute__((target("avx2,fma"))) void CellIndexBatchAvx2(
    const double* y, size_t n, double grid_lo, double grid_extent,
    double cells, double max_index, double* out) {
  const __m256d vlo = _mm256_set1_pd(grid_lo);
  const __m256d vextent = _mm256_set1_pd(grid_extent);
  const __m256d vcells = _mm256_set1_pd(cells);
  const __m256d vmax = _mm256_set1_pd(max_index);
  const __m256d zero = _mm256_setzero_pd();
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256d frac =
        _mm256_div_pd(_mm256_sub_pd(_mm256_loadu_pd(y + k), vlo), vextent);
    const __m256d idx = _mm256_floor_pd(_mm256_mul_pd(frac, vcells));
    // Clamp(idx, 0, max) = std::min(std::max(idx, 0.0), max_index);
    // maxpd/minpd with idx as the second operand return idx on equality
    // and NaN exactly as the std:: forms do.
    const __m256d clamped =
        _mm256_min_pd(vmax, _mm256_max_pd(zero, idx));
    _mm256_storeu_pd(out + k, clamped);
  }
  if (k < n) {
    CellIndexBatchScalar(y + k, n - k, grid_lo, grid_extent, cells,
                         max_index, out + k);
  }
}

bool CpuSupportsBmi2() { return __builtin_cpu_supports("bmi2"); }

__attribute__((target("bmi2"))) uint64_t InterleavePdep(
    const uint32_t* cells, int dims, uint32_t mask,
    const uint64_t* patterns) {
  uint64_t code = 0;
  for (int d = 0; d < dims; ++d) {
    code |= _pdep_u64(cells[d] & mask, patterns[d]);
  }
  return code;
}

#else  // !PPC_SIMD_X86

void ApplyBatchAvx2(const double* projections, const double* shifts,
                    double scale, size_t input_dims, size_t output_dims,
                    const double* points, size_t count, double* out) {
  ApplyBatchScalar(projections, shifts, scale, input_dims, output_dims,
                   points, count, out);
}

void HistogramRangeCountManyAvx2(const HistogramBucket* buckets,
                                 size_t bucket_count, const ZInterval* ranges,
                                 size_t queries, double* out) {
  HistogramRangeCountManyScalar(buckets, bucket_count, ranges, queries, out);
}

void HistogramRangeCountCostManyAvx2(const HistogramBucket* buckets,
                                     size_t bucket_count,
                                     const ZInterval* ranges, size_t queries,
                                     double* counts_out, double* costs_out) {
  HistogramRangeCountCostManyScalar(buckets, bucket_count, ranges, queries,
                                    counts_out, costs_out);
}

void CellIndexBatchAvx2(const double* y, size_t n, double grid_lo,
                        double grid_extent, double cells, double max_index,
                        double* out) {
  CellIndexBatchScalar(y, n, grid_lo, grid_extent, cells, max_index, out);
}

bool CpuSupportsBmi2() { return false; }

uint64_t InterleavePdep(const uint32_t* cells, int dims, uint32_t mask,
                        const uint64_t* patterns) {
  // Unreachable off x86 (CpuSupportsBmi2() is false); the scalar bit loop
  // in ZOrderCurve::Interleave is the only path.
  (void)cells;
  (void)dims;
  (void)mask;
  (void)patterns;
  return 0;
}

#endif  // PPC_SIMD_X86

void ApplyBatch(const double* projections, const double* shifts, double scale,
                size_t input_dims, size_t output_dims, const double* points,
                size_t count, double* out) {
  if (ActiveTier() == Tier::kAvx2) {
    ApplyBatchAvx2(projections, shifts, scale, input_dims, output_dims,
                   points, count, out);
  } else {
    ApplyBatchScalar(projections, shifts, scale, input_dims, output_dims,
                     points, count, out);
  }
}

void HistogramRangeCountMany(const HistogramBucket* buckets,
                             size_t bucket_count, const ZInterval* ranges,
                             size_t queries, double* out) {
  if (ActiveTier() == Tier::kAvx2) {
    HistogramRangeCountManyAvx2(buckets, bucket_count, ranges, queries, out);
  } else {
    HistogramRangeCountManyScalar(buckets, bucket_count, ranges, queries,
                                  out);
  }
}

void HistogramRangeCountCostMany(const HistogramBucket* buckets,
                                 size_t bucket_count, const ZInterval* ranges,
                                 size_t queries, double* counts_out,
                                 double* costs_out) {
  if (ActiveTier() == Tier::kAvx2) {
    HistogramRangeCountCostManyAvx2(buckets, bucket_count, ranges, queries,
                                    counts_out, costs_out);
  } else {
    HistogramRangeCountCostManyScalar(buckets, bucket_count, ranges, queries,
                                      counts_out, costs_out);
  }
}

void CellIndexBatch(const double* y, size_t n, double grid_lo,
                    double grid_extent, double cells, double max_index,
                    double* out) {
  if (ActiveTier() == Tier::kAvx2) {
    CellIndexBatchAvx2(y, n, grid_lo, grid_extent, cells, max_index, out);
  } else {
    CellIndexBatchScalar(y, n, grid_lo, grid_extent, cells, max_index, out);
  }
}

}  // namespace simd
}  // namespace ppc
