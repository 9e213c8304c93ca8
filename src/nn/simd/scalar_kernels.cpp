// Scalar backend of the kernel dispatch table.
//
// This is both the portable fallback and the differential oracle the
// vector backends are pinned against: quantize_convert_row reproduces
// the llround-based composition in core/quantizer.cpp verbatim,
// reduce_stats implements the canonical 4-lane accumulation schedule
// that the AVX2 reductions must match bit for bit, and
// gemm_f32_block is the plain zero-skipping k-ascending loop nest of
// invariant 3.
#include <algorithm>
#include <cmath>

#include "nn/simd/kernel_tables.hpp"

namespace drift::nn::simd {

namespace {

void quantize_convert_row(const float* x, std::int64_t n, double delta,
                          std::int64_t hp_limit, bool use_low, int lc,
                          std::int64_t lp_limit, std::int32_t* out) {
  const double shift = static_cast<double>(std::int64_t{1} << lc);
  for (std::int64_t i = 0; i < n; ++i) {
    // Exactly core::quantize_value: llround of the IEEE quotient.
    const double scaled = static_cast<double>(x[i]) / delta;
    std::int64_t q = std::clamp<std::int64_t>(std::llround(scaled),
                                              -hp_limit, hp_limit);
    if (use_low) {
      // Exactly core::convert_to_low: q / 2^lc is an exact dyadic
      // rational in double, rounded half away from zero.
      const double shifted = static_cast<double>(q) / shift;
      q = std::clamp<std::int64_t>(std::llround(shifted), -lp_limit,
                                   lp_limit);
    }
    // drift-lint: allow(narrow) — clamped to ±hp_limit / ±lp_limit
    // (≤ 2^15 - 1 for the widest Precision) above, so the value fits.
    out[i] = static_cast<std::int32_t>(q);
  }
}

RawStats reduce_stats(const float* x, std::int64_t n) {
  // The canonical 4-lane schedule (see kernel_dispatch.hpp): element i
  // accumulates into lane (i mod 4); lanes combine left to right.
  double mx[4] = {0.0, 0.0, 0.0, 0.0};
  double sa[4] = {0.0, 0.0, 0.0, 0.0};
  double s[4] = {0.0, 0.0, 0.0, 0.0};
  double sq[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::int64_t i = 0; i < n; ++i) {
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
  for (std::int64_t i = 0; i < rows; ++i) {
    double* acc_row = acc + i * ldacc;
    for (std::int64_t k = 0; k < depth; ++k) {
      const float aik = a[i * lda + k];
      if (aik == 0.0f) continue;
      const double av = static_cast<double>(aik);
      const float* brow = b + k * ldb;
      for (std::int64_t j = 0; j < cols; ++j) {
        acc_row[j] += av * static_cast<double>(brow[j]);
      }
    }
  }
}

}  // namespace

const KernelTable kScalarTable = {
    "scalar", quantize_convert_row, reduce_stats, gemm_f32_block,
};

}  // namespace drift::nn::simd
