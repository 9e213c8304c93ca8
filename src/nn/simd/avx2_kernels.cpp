// AVX2 backend of the kernel dispatch table.
//
// Only compiled on x86-64 builds (this translation unit gets -mavx2);
// only *executed* when detect_cpu_features().avx2 is true and the
// scalar override is off.  Every kernel is pinned to the scalar
// backend's semantics:
//
//   - quantize_convert_row computes llround(x/Δ) as
//     floor(|x/Δ| + 0.5) with an explicit overshoot correction (the
//     +0.5 add can round up across an integer; subtract 1 when
//     t - |y| > 0.5), which makes the vector rounding exactly
//     round-half-away-from-zero — bitwise equal to std::llround.
//   - reduce_stats implements the canonical 4-lane schedule: one ymm
//     double lane per (i mod 4) class, combined in the fixed scalar
//     order, so even the float sums match the scalar backend bitwise.
//   - gemm_f32_block gathers each row's nonzero a[i,k] once, in
//     ascending k, then runs 16-, 8- and 4-column strips (and a masked
//     strip for the last 1-3 columns) of double accumulators held in
//     registers across that list.  A lane is one output, so each output
//     sees the scalar loop's multiplies and adds in the scalar loop's
//     order (_mm256_mul_pd then _mm256_add_pd; the TU is built with
//     -ffp-contract=off).
#ifdef DRIFT_SIMD_BUILD_AVX2

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "nn/simd/kernel_tables.hpp"

namespace drift::nn::simd {

namespace {

/// round-half-away-from-zero of the non-negative lanes of `ay`:
/// floor(ay + 0.5), minus 1 where the add rounded up past the true sum
/// (detectable as t - ay > 0.5; the subtraction is exact in that
/// region by Sterbenz).
inline __m256d round_half_away_nonneg(__m256d ay) {
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d one = _mm256_set1_pd(1.0);
  __m256d t = _mm256_floor_pd(_mm256_add_pd(ay, half));
  const __m256d over =
      _mm256_cmp_pd(_mm256_sub_pd(t, ay), half, _CMP_GT_OQ);
  return _mm256_sub_pd(t, _mm256_and_pd(over, one));
}

void quantize_convert_row(const float* x, std::int64_t n, double delta,
                          std::int64_t hp_limit, bool use_low, int lc,
                          std::int64_t lp_limit, std::int32_t* out) {
  const __m256d vdelta = _mm256_set1_pd(delta);
  const __m256d vhp = _mm256_set1_pd(static_cast<double>(hp_limit));
  const __m256d vlp = _mm256_set1_pd(static_cast<double>(lp_limit));
  // 2^-lc is exact, so t * 2^-lc == t / 2^lc bit for bit.
  const __m256d vinv = _mm256_set1_pd(
      1.0 / static_cast<double>(std::int64_t{1} << lc));
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 xf = _mm_loadu_ps(x + i);
    const __m256d y = _mm256_div_pd(_mm256_cvtps_pd(xf), vdelta);
    const __m256d ay = _mm256_andnot_pd(sign_mask, y);
    // Magnitude pipeline: symmetric clamps and odd-symmetric rounding
    // commute with the sign, which is re-applied at the end.
    __m256d t = _mm256_min_pd(round_half_away_nonneg(ay), vhp);
    if (use_low) {
      t = _mm256_min_pd(round_half_away_nonneg(_mm256_mul_pd(t, vinv)),
                        vlp);
    }
    __m128i q = _mm256_cvttpd_epi32(t);  // t is integral and >= 0
    const __m128i neg = _mm_srai_epi32(_mm_castps_si128(xf), 31);
    q = _mm_sub_epi32(_mm_xor_si128(q, neg), neg);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), q);
  }
  if (i < n) {
    kScalarTable.quantize_convert_row(x + i, n - i, delta, hp_limit,
                                      use_low, lc, lp_limit, out + i);
  }
}

RawStats reduce_stats(const float* x, std::int64_t n) {
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  __m256d vmax = _mm256_setzero_pd();
  __m256d vsa = _mm256_setzero_pd();
  __m256d vs = _mm256_setzero_pd();
  __m256d vsq = _mm256_setzero_pd();
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_cvtps_pd(_mm_loadu_ps(x + i));
    const __m256d a = _mm256_andnot_pd(sign_mask, v);
    vmax = _mm256_max_pd(vmax, a);
    vsa = _mm256_add_pd(vsa, a);
    vs = _mm256_add_pd(vs, v);
    vsq = _mm256_add_pd(vsq, _mm256_mul_pd(v, v));
  }
  alignas(32) double mx[4], sa[4], s[4], sq[4];
  _mm256_store_pd(mx, vmax);
  _mm256_store_pd(sa, vsa);
  _mm256_store_pd(s, vs);
  _mm256_store_pd(sq, vsq);
  // Tail element n0 + t lands in lane t — identical to the scalar
  // backend's (i mod 4) schedule because n0 is a multiple of 4.
  for (; i < n; ++i) {
    const double v = static_cast<double>(x[i]);
    const double a = std::abs(v);
    const auto l = static_cast<std::size_t>(i & 3);
    mx[l] = std::max(mx[l], a);
    sa[l] += a;
    s[l] += v;
    sq[l] += v * v;
  }
  RawStats r;
  r.max_abs = std::max(std::max(std::max(mx[0], mx[1]), mx[2]), mx[3]);
  r.sum_abs = ((sa[0] + sa[1]) + sa[2]) + sa[3];
  r.sum = ((s[0] + s[1]) + s[2]) + s[3];
  r.sum_sq = ((sq[0] + sq[1]) + sq[2]) + sq[3];
  return r;
}

/// acc + av * double(b[0..4)), multiply then add.
inline __m256d mul_add_4(__m256d acc, __m256d av, __m128 b) {
  return _mm256_add_pd(acc, _mm256_mul_pd(av, _mm256_cvtps_pd(b)));
}

/// Adds a row's gathered terms (av[t] times row boff[t] of b) into the
/// 4*V accumulators c[0, 4V), held in V registers across the list.
template <int V>
inline void gemm_strip(const double* av, const std::int64_t* boff,
                       std::int64_t nnz, const float* b, double* c) {
  __m256d acc[V];
  for (int v = 0; v < V; ++v) acc[v] = _mm256_loadu_pd(c + 4 * v);
  for (std::int64_t t = 0; t < nnz; ++t) {
    const __m256d s = _mm256_broadcast_sd(av + t);
    const float* bk = b + boff[t];
    for (int v = 0; v < V; ++v) {
      acc[v] = mul_add_4(acc[v], s, _mm_loadu_ps(bk + 4 * v));
    }
  }
  for (int v = 0; v < V; ++v) _mm256_storeu_pd(c + 4 * v, acc[v]);
}

/// gemm_strip<1> over the first n < 4 columns only: masked-off lanes
/// are neither loaded nor stored.
inline void gemm_tail(const double* av, const std::int64_t* boff,
                      std::int64_t nnz, const float* b, double* c,
                      std::int64_t n) {
  const __m128i mask_ps = _mm_cmpgt_epi32(
      _mm_set1_epi32(static_cast<int>(n)), _mm_set_epi32(3, 2, 1, 0));
  const __m256i mask = _mm256_cvtepi32_epi64(mask_ps);
  __m256d acc = _mm256_maskload_pd(c, mask);
  for (std::int64_t t = 0; t < nnz; ++t) {
    acc = mul_add_4(acc, _mm256_broadcast_sd(av + t),
                    _mm_maskload_ps(b + boff[t], mask_ps));
  }
  _mm256_maskstore_pd(c, mask, acc);
}

void gemm_f32_block(const float* a, std::int64_t lda, const float* b,
                    std::int64_t ldb, std::int64_t rows, std::int64_t depth,
                    std::int64_t cols, double* acc, std::int64_t ldacc) {
  constexpr std::int64_t kChunk = 256;
  // Gather lists, written below before any read; clearing them per
  // call would cost more than the narrow GEMMs they serve.
  double av[kChunk];
  std::int64_t boff[kChunk];
  for (std::int64_t i = 0; i < rows; ++i) {
    const float* ai = a + i * lda;
    double* c = acc + i * ldacc;
    for (std::int64_t k0 = 0; k0 < depth; k0 += kChunk) {
      // The row's nonzero terms of this chunk, in ascending k; the slot
      // of a zero is overwritten by the next term.
      const std::int64_t k1 = std::min(k0 + kChunk, depth);
      std::int64_t nnz = 0;
      for (std::int64_t k = k0; k < k1; ++k) {
        const float v = ai[k];
        av[nnz] = static_cast<double>(v);
        boff[nnz] = k * ldb;
        nnz += v != 0.0f ? 1 : 0;
      }
      std::int64_t j = 0;
      for (; j + 16 <= cols; j += 16) {
        gemm_strip<4>(av, boff, nnz, b + j, c + j);
      }
      if (j + 8 <= cols) {
        gemm_strip<2>(av, boff, nnz, b + j, c + j);
        j += 8;
      }
      if (j + 4 <= cols) {
        gemm_strip<1>(av, boff, nnz, b + j, c + j);
        j += 4;
      }
      if (j < cols) gemm_tail(av, boff, nnz, b + j, c + j, cols - j);
    }
  }
}

}  // namespace

const KernelTable kAvx2Table = {
    "avx2", quantize_convert_row, reduce_stats, gemm_f32_block,
};

}  // namespace drift::nn::simd

#endif  // DRIFT_SIMD_BUILD_AVX2
