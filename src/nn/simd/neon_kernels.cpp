// NEON (AArch64 Advanced SIMD) backend of the kernel dispatch table.
//
// Only compiled on AArch64 builds.  Pinned to the same semantics as the
// scalar backend (see avx2_kernels.cpp for the shared reasoning):
// quantize_convert_row reproduces llround via floor(|y| + 0.5) with
// the overshoot correction; reduce_stats implements the canonical
// 4-lane double schedule as two float64x2 register pairs (lanes {0,1}
// and {2,3}), combined in the fixed scalar order.  gemm_f32_block runs
// the scalar loop nest until a float64x2 version earns its place.
#ifdef DRIFT_SIMD_BUILD_NEON

#include <arm_neon.h>

#include <algorithm>
#include <cmath>

#include "nn/simd/kernel_tables.hpp"

namespace drift::nn::simd {

namespace {

/// round-half-away-from-zero of non-negative lanes (see
/// avx2_kernels.cpp for the overshoot-correction argument).
inline float64x2_t round_half_away_nonneg(float64x2_t ay) {
  const float64x2_t half = vdupq_n_f64(0.5);
  const float64x2_t one = vdupq_n_f64(1.0);
  float64x2_t t = vrndmq_f64(vaddq_f64(ay, half));  // floor
  const uint64x2_t over = vcgtq_f64(vsubq_f64(t, ay), half);
  return vsubq_f64(
      t, vreinterpretq_f64_u64(vandq_u64(
             over, vreinterpretq_u64_f64(one))));
}

inline float64x2_t quantize_pair(float64x2_t y, float64x2_t vhp,
                                 float64x2_t vlp, float64x2_t vinv,
                                 bool use_low) {
  float64x2_t t = vminq_f64(round_half_away_nonneg(vabsq_f64(y)), vhp);
  if (use_low) {
    t = vminq_f64(round_half_away_nonneg(vmulq_f64(t, vinv)), vlp);
  }
  return t;
}

void quantize_convert_row(const float* x, std::int64_t n, double delta,
                          std::int64_t hp_limit, bool use_low, int lc,
                          std::int64_t lp_limit, std::int32_t* out) {
  const float64x2_t vdelta = vdupq_n_f64(delta);
  const float64x2_t vhp = vdupq_n_f64(static_cast<double>(hp_limit));
  const float64x2_t vlp = vdupq_n_f64(static_cast<double>(lp_limit));
  const float64x2_t vinv =
      vdupq_n_f64(1.0 / static_cast<double>(std::int64_t{1} << lc));
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t xf = vld1q_f32(x + i);
    const float64x2_t y0 =
        vdivq_f64(vcvt_f64_f32(vget_low_f32(xf)), vdelta);
    const float64x2_t y1 =
        vdivq_f64(vcvt_f64_f32(vget_high_f32(xf)), vdelta);
    const float64x2_t t0 = quantize_pair(y0, vhp, vlp, vinv, use_low);
    const float64x2_t t1 = quantize_pair(y1, vhp, vlp, vinv, use_low);
    // Magnitudes are integral; re-apply the sign of x.
    const int32x4_t mag = vcombine_s32(vmovn_s64(vcvtq_s64_f64(t0)),
                                       vmovn_s64(vcvtq_s64_f64(t1)));
    const int32x4_t neg =
        vshrq_n_s32(vreinterpretq_s32_f32(xf), 31);
    vst1q_s32(out + i, vsubq_s32(veorq_s32(mag, neg), neg));
  }
  if (i < n) {
    kScalarTable.quantize_convert_row(x + i, n - i, delta, hp_limit,
                                      use_low, lc, lp_limit, out + i);
  }
}

RawStats reduce_stats(const float* x, std::int64_t n) {
  // Lanes {0,1} live in the *01 registers, lanes {2,3} in *23 — the
  // same four logical accumulators as the scalar schedule.
  float64x2_t mx01 = vdupq_n_f64(0.0), mx23 = vdupq_n_f64(0.0);
  float64x2_t sa01 = vdupq_n_f64(0.0), sa23 = vdupq_n_f64(0.0);
  float64x2_t s01 = vdupq_n_f64(0.0), s23 = vdupq_n_f64(0.0);
  float64x2_t sq01 = vdupq_n_f64(0.0), sq23 = vdupq_n_f64(0.0);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t xf = vld1q_f32(x + i);
    const float64x2_t v01 = vcvt_f64_f32(vget_low_f32(xf));
    const float64x2_t v23 = vcvt_f64_f32(vget_high_f32(xf));
    const float64x2_t a01 = vabsq_f64(v01);
    const float64x2_t a23 = vabsq_f64(v23);
    mx01 = vmaxq_f64(mx01, a01);
    mx23 = vmaxq_f64(mx23, a23);
    sa01 = vaddq_f64(sa01, a01);
    sa23 = vaddq_f64(sa23, a23);
    s01 = vaddq_f64(s01, v01);
    s23 = vaddq_f64(s23, v23);
    sq01 = vaddq_f64(sq01, vmulq_f64(v01, v01));
    sq23 = vaddq_f64(sq23, vmulq_f64(v23, v23));
  }
  double mx[4] = {vgetq_lane_f64(mx01, 0), vgetq_lane_f64(mx01, 1),
                  vgetq_lane_f64(mx23, 0), vgetq_lane_f64(mx23, 1)};
  double sa[4] = {vgetq_lane_f64(sa01, 0), vgetq_lane_f64(sa01, 1),
                  vgetq_lane_f64(sa23, 0), vgetq_lane_f64(sa23, 1)};
  double s[4] = {vgetq_lane_f64(s01, 0), vgetq_lane_f64(s01, 1),
                 vgetq_lane_f64(s23, 0), vgetq_lane_f64(s23, 1)};
  double sq[4] = {vgetq_lane_f64(sq01, 0), vgetq_lane_f64(sq01, 1),
                  vgetq_lane_f64(sq23, 0), vgetq_lane_f64(sq23, 1)};
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

void gemm_f32_block(const float* a, std::int64_t lda, const float* b,
                    std::int64_t ldb, std::int64_t rows, std::int64_t depth,
                    std::int64_t cols, double* acc, std::int64_t ldacc) {
  kScalarTable.gemm_f32_block(a, lda, b, ldb, rows, depth, cols, acc, ldacc);
}

}  // namespace

const KernelTable kNeonTable = {
    "neon", quantize_convert_row, reduce_stats, gemm_f32_block,
};

}  // namespace drift::nn::simd

#endif  // DRIFT_SIMD_BUILD_NEON
