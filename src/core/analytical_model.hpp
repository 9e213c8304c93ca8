// Weight-stationary systolic latency model (Section 4.3, Equation 7),
// extended from SCALE-Sim's analytical characterization.
//
// For a GEMM of dimensions M x K x N executed on an R x C array of
// BitGroups (BG = 4x4 BitBricks; a BitBrick multiplies 1-bit input by
// 4-bit weight), with activation precision `pa` and weight precision
// `pw`:
//
//   T_pre   = R                      (top-down weight preload)
//   T_exe   = M + R + C - 2          (stream M rows + wavefront drain)
//   T_total = (T_pre + T_exe) * ceil(pa*K / 4R) * ceil(pw*N / 16C)
//
// The repetition factors express how many weight tiles the array must
// iterate over: each BG row covers 4 activation bits x K-slice, each BG
// column covers 16 weight bits x N-slice.
#pragma once

#include <cstdint>
#include <limits>

namespace drift::core {

/// GEMM problem dimensions.
struct GemmDims {
  std::int64_t M = 0;  ///< rows streamed through the array
  std::int64_t K = 0;  ///< reduction dimension (mapped to array rows)
  std::int64_t N = 0;  ///< output columns (mapped to array columns)

  std::int64_t macs() const { return M * K * N; }
  bool empty() const { return M == 0 || K == 0 || N == 0; }
};

/// Systolic array dimensions, in BitGroups.
struct ArrayDims {
  std::int64_t rows = 0;  ///< R
  std::int64_t cols = 0;  ///< C

  std::int64_t units() const { return rows * cols; }
};

/// Sentinel for "this mapping is infeasible" (zero-sized array with
/// non-empty work).  Chosen so sums of a few sentinels cannot overflow.
inline constexpr std::int64_t kInfeasibleLatency =
    std::numeric_limits<std::int64_t>::max() / 16;

/// Equation 7.  Returns 0 for empty work, kInfeasibleLatency when the
/// work is non-empty but the array has no rows or columns.
std::int64_t ws_latency_cycles(const GemmDims& gemm, int pa, int pw,
                               const ArrayDims& array);

/// Number of weight-tile repetitions, ceil(pa*K/4R) * ceil(pw*N/16C);
/// exposed separately because the energy model scales preload traffic
/// by it.
std::int64_t ws_tile_repetitions(const GemmDims& gemm, int pa, int pw,
                                 const ArrayDims& array);

/// The per-axis ceilings behind ws_tile_repetitions, exposed so the
/// accelerator models and benches share one formula instead of
/// re-deriving them.  `pa_bits`/`pw_bits` may be fractional
/// (mix-weighted operand widths); integral widths take the exact
/// integer ceil-div path.  Results are clamped to >= 1: the traffic
/// model always streams at least one tile per axis.
std::int64_t ws_k_tiles(std::int64_t k, double pa_bits, std::int64_t rows);
std::int64_t ws_n_tiles(std::int64_t n, double pw_bits, std::int64_t cols);

/// The integral-width path of ws_k_tiles/ws_n_tiles, unchecked:
/// ceil(bits * extent / span_bits) by exact integer ceil-division,
/// clamped to >= 1 (span_bits = 4R on the K axis, 16C on the N axis).
/// The scheduler tabulates it once per cut.
inline std::int64_t ws_axis_tiles(std::int64_t extent, std::int64_t bits,
                                  std::int64_t span_bits) {
  const std::int64_t tiles = (bits * extent + span_bits - 1) / span_bits;
  return tiles > 1 ? tiles : 1;
}

}  // namespace drift::core
