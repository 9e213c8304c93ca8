// Runtime-dispatched SIMD kernel backend (AVX2 / scalar).
//
// The Drift pipeline's hot loops — the hi->lo quantization rendering,
// the selector's max|Y| / avg|Y| reductions and the accuracy path's
// fp32 GEMM — run through the function-pointer table returned by
// active(), selected once per call from the CPU features detected at
// startup.  Three invariants make this safe to drop underneath the
// existing bit-pinned pipeline:
//
//   1. *quantize_convert_row is pinned to llround semantics.*  Every
//      backend computes round-half-away-from-zero of the exactly
//      rounded IEEE quotient x/Δ (and of the exact dyadic q/2^lc), so
//      integer codes are bitwise identical across backends.
//   2. *reduce_stats fixes a 4-lane accumulation order.*  Element i
//      accumulates into double lane (i mod 4); lanes combine as
//      ((l0+l1)+l2)+l3.  Scalar and vector backends implement the same
//      schedule, so even the float sums agree bitwise across backends
//      (they differ from a plain sequential sum by a documented
//      rounding re-association; see DESIGN.md "SIMD backend").
//   3. *gemm_f32_block keeps one k-ascending double sum per output.*
//      Each output adds double(a[i,k]) * double(b[k,j]) into its own
//      double accumulator in ascending k, skipping a[i,k] == 0 (either
//      sign), as one multiply then one add — never fused (src/nn/simd/
//      builds with -ffp-contract=off).  Vector lanes only run different
//      outputs side by side, so every backend produces the scalar
//      backend's bits.
//
// Backend choice: AVX2 when the binary carries the AVX2 kernels and the
// CPU reports the feature, scalar otherwise.
// DRIFT_FORCE_SCALAR=1 in the environment (or set_force_scalar(true))
// pins the scalar table for differential testing.
#pragma once

#include <cstdint>

namespace drift::nn::simd {

/// CPU features relevant to kernel selection, detected at startup.
struct CpuFeatures {
  bool avx2 = false;  ///< x86-64 AVX2 (implies the SSE4 baseline)
};

/// Features of the machine this process is running on.
CpuFeatures detect_cpu_features();

/// Raw single-pass reduction over a contiguous float run, before the
/// divide-by-n that turns sums into the SubTensorStats means.
struct RawStats {
  double max_abs = 0.0;
  double sum_abs = 0.0;
  double sum = 0.0;
  double sum_sq = 0.0;
};

/// One backend's kernel set.  All pointers are always non-null.
struct KernelTable {
  const char* name;  ///< "scalar" or "avx2"

  /// core::render's inner loop: out[i] = clamp(llround(x[i]/delta),
  /// ±hp_limit), then when lc/lp_limit describe a low rendering
  /// (use_low), out[i] = clamp(llround(out[i]/2^lc), ±lp_limit).
  /// Bitwise identical across backends (invariant 1 above).
  void (*quantize_convert_row)(const float* x, std::int64_t n, double delta,
                               std::int64_t hp_limit, bool use_low, int lc,
                               std::int64_t lp_limit, std::int32_t* out);

  /// 4-lane-scheduled single-pass reduction (invariant 2 above).
  RawStats (*reduce_stats)(const float* x, std::int64_t n);

  /// One block of nn::matmul (invariant 3 above): for each row i in
  /// [0, rows) and each k in [0, depth) ascending with a[i*lda + k]
  /// != 0, acc[i*ldacc + j] += double(a[i*lda + k]) *
  /// double(b[k*ldb + j]) for every j in [0, cols).
  void (*gemm_f32_block)(const float* a, std::int64_t lda, const float* b,
                         std::int64_t ldb, std::int64_t rows,
                         std::int64_t depth, std::int64_t cols, double* acc,
                         std::int64_t ldacc);
};

/// The table for the current backend: scalar when forced, otherwise the
/// best table the build and the CPU support.  Cheap enough to call per
/// GEMM; cache the reference outside per-element loops.
const KernelTable& active();

/// Pins (or unpins) the scalar table, overriding feature detection.
/// Initialized from the DRIFT_FORCE_SCALAR environment variable
/// (non-empty and not "0" means forced).  Tests and the bench sweep
/// toggle this at runtime; safe to call concurrently with kernel use.
void set_force_scalar(bool force);

/// Current force-scalar state.
bool force_scalar();

}  // namespace drift::nn::simd
