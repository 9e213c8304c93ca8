// Cycle-level weight-stationary systolic array simulation.
//
// This is the reproduction's analogue of the paper's "cycle-accurate
// simulator ... cross-verified with the RTL implementation": a
// register-level simulation of the WS dataflow that both *computes the
// GEMM* (verifying the dataflow wiring) and *counts cycles* (verifying
// the analytical model of Equation 7 and the stall closed forms in
// stall_model.hpp).
//
// Dataflow (one tile, array R x C):
//   - cycle 0..R-1: weights preload top-down, W[r][c] lands in PE(r,c).
//   - input row m's element a[m][r] is injected into PE(r, 0) at cycle
//     preload + inject(m) + r (skewed), then propagates right one PE
//     per cycle; psums accumulate down the column.
//   - output (m, c) exits PE(R-1, c) at preload + inject(m) + (R-1) + c.
// With unit-cost rows inject(m) = m, so a tile costs
//   R + (M-1) + (R-1) + (C-1) + 1 = R + M + R + C - 2  cycles,
// exactly T_pre + T_exe of Equation 7.
//
// Mixed-precision rows (the DRQ scenario) carry a per-row cost k_m (an
// 8-bit row on a 4-bit-rhythm array needs k=2 passes).  The array is a
// single pipeline: it throttles to the slowest row still in flight, so
//   inject(m) = inject(m-1) + max(k_i : i in the in-flight window),
// with the window spanning the R rows resident in the array.  This is
// the data-flow stall of Section 2.3 / Figure 2.
#pragma once

#include <cstdint>
#include <vector>

#include "core/analytical_model.hpp"
#include "tensor/tensor.hpp"

namespace drift::systolic {

/// Result of simulating one GEMM tile (or whole small GEMM).
struct SimResult {
  TensorI32 output;              ///< [M, N] products (int32 accumulate)
  std::int64_t cycles = 0;       ///< total, including preload and drain
  std::int64_t preload_cycles = 0;
  std::int64_t stall_cycles = 0; ///< cycles lost to precision throttling
};

/// Register-level simulation of one R x C weight-stationary pass over
/// A [M, K=R] and W [K=R, N=C].  `row_cost[m]` is the occupancy (in
/// cycles) of row m; pass all-ones for uniform precision.  K must equal
/// the array rows and N the array columns (callers tile larger GEMMs).
SimResult simulate_tile(const TensorI32& a, const TensorI32& w,
                        const std::vector<std::int64_t>& row_cost);

/// Full (small) GEMM on an R x C array with tiling along K and N, all
/// rows unit-cost.  Cross-checks ws_latency_cycles on arbitrary shapes.
// drift-lint: allow(dead-api) — the Eq. 7 cross-check; its sim.*
// counters are what tests/obs/golden/metrics.json and the report
// goldens (tests/report/golden/summary_a.*) hold.
SimResult simulate_gemm(const TensorI32& a, const TensorI32& w,
                        const core::ArrayDims& array);

}  // namespace drift::systolic
