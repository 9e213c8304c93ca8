#include "core/analytical_model.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace drift::core {
namespace {

std::int64_t axis_tiles(std::int64_t extent, double bits,
                        std::int64_t span_bits) {
  DRIFT_CHECK(bits > 0.0, "operand width must be positive");
  DRIFT_CHECK(span_bits > 0, "array axis must be positive");
  if (bits == std::floor(bits)) {
    // Integral widths stay in exact integer arithmetic (the scheduler
    // and cycle model depend on these ceilings being exact).
    return ws_axis_tiles(extent, static_cast<std::int64_t>(bits), span_bits);
  }
  const auto tiles = static_cast<std::int64_t>(std::ceil(
      bits * static_cast<double>(extent) / static_cast<double>(span_bits)));
  return std::max<std::int64_t>(tiles, 1);
}

}  // namespace

std::int64_t ws_k_tiles(std::int64_t k, double pa_bits, std::int64_t rows) {
  return axis_tiles(k, pa_bits, 4 * rows);
}

std::int64_t ws_n_tiles(std::int64_t n, double pw_bits, std::int64_t cols) {
  return axis_tiles(n, pw_bits, 16 * cols);
}

std::int64_t ws_tile_repetitions(const GemmDims& gemm, int pa, int pw,
                                 const ArrayDims& array) {
  DRIFT_CHECK(pa > 0 && pw > 0, "precisions must be positive");
  if (gemm.empty()) return 0;
  if (array.rows <= 0 || array.cols <= 0) return kInfeasibleLatency;
  return ws_k_tiles(gemm.K, pa, array.rows) *
         ws_n_tiles(gemm.N, pw, array.cols);
}

std::int64_t ws_latency_cycles(const GemmDims& gemm, int pa, int pw,
                               const ArrayDims& array) {
  if (gemm.empty()) return 0;
  if (array.rows <= 0 || array.cols <= 0) return kInfeasibleLatency;
  const std::int64_t reps = ws_tile_repetitions(gemm, pa, pw, array);
  const std::int64_t t_pre = array.rows;
  const std::int64_t t_exe = gemm.M + array.rows + array.cols - 2;
  return (t_pre + t_exe) * reps;
}

}  // namespace drift::core
