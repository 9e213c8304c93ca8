// Reference precision-mix builder: the fused per-layer loop that built
// one algorithm's mixes by drawing every statistic of every layer, with
// its scale-field sampler, its Eq. 5/6 selector and its noise-budget
// selection copied whole.  nn::build_mixes draws each statistic once for
// all algorithms, keeps only max|Y| and avg|Y|, and skips the draws no
// decision reads; the differential suite (tests/prop/prop_mix.cpp)
// checks it against this loop bit for bit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

// drift-lint: allow(oracle-include) — type-only include: WorkloadSpec,
// MixConfig and LayerMix, so the suite compares LayerMix field by
// field; no sampler, selector or mix code is shared.
#include "nn/precision_mix.hpp"

namespace drift::ref {

/// The noise-budget selection's outcome, field for field.
struct AutoThreshold {
  std::vector<core::PrecisionDecision> decisions;  ///< one per sub-tensor
  double delta_threshold = 0.0;
  double excess_relative_mse = 0.0;
  double low_fraction_by_elements = 0.0;
};

/// Minimum-δ selection under an excess-noise budget: every sub-tensor
/// probed at δ = 0, range-feasible ones whose excess noise per element
/// stays within 0.125 x their variance ranked (free first, then by
/// decreasing Eq. 6 ratio) and taken until the budget binds.  The
/// excess is summed in that ranked order.
AutoThreshold select_auto_threshold(std::span<const core::SubTensorStats> stats,
                                    std::span<const std::int64_t> sizes,
                                    const core::QuantParams& params,
                                    const core::SelectorConfig& base,
                                    double budget);

/// One algorithm's mix of every layer: layer i samples its activation
/// and then its weight statistics from Rng(config.seed).fork(i), all of
/// them whatever the algorithm reads.
std::vector<nn::LayerMix> build_mixes(const nn::WorkloadSpec& spec,
                                      const nn::MixConfig& config);

}  // namespace drift::ref
