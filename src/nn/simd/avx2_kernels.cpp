// AVX2 backend of the kernel dispatch table.
//
// Only compiled on x86-64 builds (this translation unit gets -mavx2);
// only *executed* when detect_cpu_features().avx2 is true and the
// scalar override is off.  Every kernel is pinned to the scalar
// backend's semantics:
//
//   - Integer dots widen int8 operands to int16 (_mm256_cvtepi8_epi16),
//     multiply-accumulate pairs into int32 lanes (_mm256_madd_epi16 —
//     the maddubs-style inner product without the unsigned-operand
//     asymmetry), and horizontal-sum into int64.  Integer addition is
//     associative, so the result equals the scalar int64 loop bit for
//     bit; kMaxDotLength keeps the int32 lanes from wrapping (worst
//     case here: n/8 products of |p| <= 127^2 per lane).
//   - Packed-nibble operands are unpacked in-register: low nibble
//     (v & 0x0F) and high nibble ((v >> 4) & 0x0F), sign-extended with
//     the (x ^ 8) - 8 two's-complement trick, nibble pairs re-
//     interleaved where natural element order is needed.
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

/// Horizontal sum of 8 int32 lanes into int64 (exact).
inline std::int64_t hsum_epi32(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i s = _mm_add_epi32(lo, hi);
  // Lane sums fit int32 individually but the cross-lane total may not:
  // widen before the final adds.
  alignas(16) std::int32_t lanes[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), s);
  return static_cast<std::int64_t>(lanes[0]) + lanes[1] + lanes[2] +
         lanes[3];
}

/// Widen 32 int8 codes to int16 and multiply-accumulate with the
/// matching 32 codes of `vb` into 8 int32 lanes of `acc`.
inline __m256i madd_s8_block(__m256i acc, __m256i va, __m256i vb) {
  const __m256i a0 = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(va));
  const __m256i b0 = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(vb));
  const __m256i a1 = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(va, 1));
  const __m256i b1 = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(vb, 1));
  acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a0, b0));
  return _mm256_add_epi32(acc, _mm256_madd_epi16(a1, b1));
}

/// Sign-extends the low nibble of each byte ((v & 0xF) ^ 8) - 8.
inline __m256i sign_extend_nibbles(__m256i nibbles) {
  const __m256i k8 = _mm256_set1_epi8(0x08);
  return _mm256_sub_epi8(_mm256_xor_si256(nibbles, k8), k8);
}

inline std::int32_t nibble_at(const std::uint8_t* packed, std::int64_t i) {
  const std::uint8_t byte = packed[i / 2];
  const int nib = (i & 1) ? (byte >> 4) : (byte & 0x0F);
  // drift-lint: allow(narrow) — nib is a masked 4-bit value, so the
  // sign-extended result lies in [-8, 7] and always fits.
  return static_cast<std::int32_t>((nib ^ 0x08) - 0x08);
}

std::int64_t dot_s8s8(const std::int8_t* a, const std::int8_t* b,
                      std::int64_t n) {
  // Four independent accumulators (128 codes per step) keep the madd
  // units busy instead of serializing on one add chain.  Folding them
  // back together is an exact int32 lane sum: the combined lane load is
  // the same n/8-products bound as a single accumulator.
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  __m256i acc2 = _mm256_setzero_si256();
  __m256i acc3 = _mm256_setzero_si256();
  std::int64_t k = 0;
  for (; k + 128 <= n; k += 128) {
    const auto* pa = reinterpret_cast<const __m256i*>(a + k);
    const auto* pb = reinterpret_cast<const __m256i*>(b + k);
    acc0 = madd_s8_block(acc0, _mm256_loadu_si256(pa + 0),
                         _mm256_loadu_si256(pb + 0));
    acc1 = madd_s8_block(acc1, _mm256_loadu_si256(pa + 1),
                         _mm256_loadu_si256(pb + 1));
    acc2 = madd_s8_block(acc2, _mm256_loadu_si256(pa + 2),
                         _mm256_loadu_si256(pb + 2));
    acc3 = madd_s8_block(acc3, _mm256_loadu_si256(pa + 3),
                         _mm256_loadu_si256(pb + 3));
  }
  __m256i acc = _mm256_add_epi32(_mm256_add_epi32(acc0, acc1),
                                 _mm256_add_epi32(acc2, acc3));
  for (; k + 32 <= n; k += 32) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + k));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + k));
    acc = madd_s8_block(acc, va, vb);
  }
  std::int64_t total = hsum_epi32(acc);
  for (; k < n; ++k) {
    total +=
        static_cast<std::int64_t>(a[k]) * static_cast<std::int64_t>(b[k]);
  }
  return total;
}

std::int64_t dot_s8s4(const std::int8_t* a, const std::uint8_t* b_packed,
                      std::int64_t n) {
  const __m128i kMask = _mm_set1_epi8(0x0F);
  const __m128i k8 = _mm_set1_epi8(0x08);
  __m256i acc = _mm256_setzero_si256();
  std::int64_t k = 0;
  // 16 packed bytes = 32 codes per step, re-interleaved to natural
  // element order so they line up with the int8 operand.
  for (; k + 32 <= n; k += 32) {
    const __m128i mb = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(b_packed + k / 2));
    const __m128i lo =
        _mm_sub_epi8(_mm_xor_si128(_mm_and_si128(mb, kMask), k8), k8);
    const __m128i hi = _mm_sub_epi8(
        _mm_xor_si128(_mm_and_si128(_mm_srli_epi16(mb, 4), kMask), k8), k8);
    const __m128i n0 = _mm_unpacklo_epi8(lo, hi);  // codes k .. k+15
    const __m128i n1 = _mm_unpackhi_epi8(lo, hi);  // codes k+16 .. k+31
    const __m256i vb = _mm256_set_m128i(n1, n0);
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + k));
    acc = madd_s8_block(acc, va, vb);
  }
  std::int64_t total = hsum_epi32(acc);
  for (; k < n; ++k) {
    total += static_cast<std::int64_t>(a[k]) *
             static_cast<std::int64_t>(nibble_at(b_packed, k));
  }
  return total;
}

std::int64_t dot_s4s4(const std::uint8_t* a_packed,
                      const std::uint8_t* b_packed, std::int64_t n) {
  const __m256i kMask = _mm256_set1_epi8(0x0F);
  __m256i acc = _mm256_setzero_si256();
  // Both operands share the packing, so low nibbles pair with low
  // nibbles and high with high — no re-interleave needed; the padding
  // nibble of an odd-length row is zero on both sides.  32 bytes = 64
  // codes per step.
  const std::int64_t bytes = (n + 1) / 2;
  std::int64_t i = 0;
  for (; i + 32 <= bytes; i += 32) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a_packed + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b_packed + i));
    const __m256i a_lo = sign_extend_nibbles(_mm256_and_si256(va, kMask));
    const __m256i b_lo = sign_extend_nibbles(_mm256_and_si256(vb, kMask));
    const __m256i a_hi = sign_extend_nibbles(
        _mm256_and_si256(_mm256_srli_epi16(va, 4), kMask));
    const __m256i b_hi = sign_extend_nibbles(
        _mm256_and_si256(_mm256_srli_epi16(vb, 4), kMask));
    acc = madd_s8_block(acc, a_lo, b_lo);
    acc = madd_s8_block(acc, a_hi, b_hi);
  }
  std::int64_t total = hsum_epi32(acc);
  for (; i < bytes; ++i) {
    const std::int32_t alo = ((a_packed[i] & 0x0F) ^ 0x08) - 0x08;
    const std::int32_t blo = ((b_packed[i] & 0x0F) ^ 0x08) - 0x08;
    const std::int32_t ahi = ((a_packed[i] >> 4) ^ 0x08) - 0x08;
    const std::int32_t bhi = ((b_packed[i] >> 4) ^ 0x08) - 0x08;
    total += static_cast<std::int64_t>(alo) * blo +
             static_cast<std::int64_t>(ahi) * bhi;
  }
  return total;
}

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
    "avx2", dot_s8s8, dot_s8s4, dot_s4s4, quantize_convert_row,
    reduce_stats, gemm_f32_block,
};

}  // namespace drift::nn::simd

#endif  // DRIFT_SIMD_BUILD_AVX2
