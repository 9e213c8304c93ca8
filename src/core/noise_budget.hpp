// Automatic per-tensor threshold selection under an excess-noise
// budget.
//
// Section 3.3 selects "the minimum threshold with negligible impact on
// model accuracy" via a Hessian-aware strategy.  Every artifact picks δ
// here instead: only sub-tensor statistics exist for the full-size
// hardware workloads, so this module implements the same rule with the
// Hessian weight replaced by a quantization-noise proxy:
//
//   A sub-tensor converted with low-end clip lc adds rounding noise
//   ((2^lc Δ)^2 - Δ^2) / 12 per element *beyond* the INT8 rendering
//   (lc = 0 conversions are INT8-density-equivalent: free).
//
// The selection that keeps total excess noise within `budget` x signal
// variance while maximizing 4-bit coverage is computed exactly: rank
// range-feasible sub-tensors by their Eq. 6 ratio and include greedily
// until the budget binds.  The resulting cut ratio *is* the minimum δ;
// running Equations 5-6 at that δ reproduces the same selection.
#pragma once

#include <span>
#include <vector>

#include "core/selector.hpp"

namespace drift::core {

/// Outcome of the automatic threshold selection.
struct AutoThresholdResult {
  double delta_threshold = 0.0;      ///< the implied minimum δ
  double excess_relative_mse = 0.0;  ///< accepted excess noise / signal
  std::vector<PrecisionDecision> decisions;  ///< one per sub-tensor
  double low_fraction_by_elements = 0.0;
};

/// Selects precision for every sub-tensor, maximizing low-precision
/// coverage subject to two constraints:
///   - global: total excess rounding noise (vs INT8) at most `budget`
///     times the total signal variance, and
///   - local (`noise_cap`, Eq. 6's per-sub-tensor density role): a
///     sub-tensor's own excess noise per element must stay below
///     noise_cap times its variance — a conversion that would wipe out
///     a quiet sub-tensor is rejected even when it is globally cheap.
/// `sizes[i]` is the element count of sub-tensor i.
AutoThresholdResult select_auto_threshold(
    std::span<const SubTensorStats> stats,
    std::span<const std::int64_t> sizes, const QuantParams& params,
    const SelectorConfig& base, double budget, double noise_cap = 0.125);

/// Convenience: builds a PrecisionMap from the auto selection.
PrecisionMap auto_threshold_map(std::span<const SubTensorStats> stats,
                                std::span<const std::int64_t> sizes,
                                const QuantParams& params,
                                const SelectorConfig& base, double budget,
                                double noise_cap = 0.125);

}  // namespace drift::core
