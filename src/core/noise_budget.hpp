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

#include <cstdint>
#include <span>
#include <vector>

#include "core/selector.hpp"

namespace drift::core {

/// The statistics one selection reads, without copying them: the
/// pooling unit's SubTensorStats with one element count per sub-tensor
/// (real tensors, whose edge views may be smaller), or the sampler's
/// AbsStats with one element count shared by all.
class StatsView {
 public:
  StatsView(std::span<const SubTensorStats> stats,
            std::span<const std::int64_t> sizes);
  StatsView(std::span<const AbsStats> stats, std::int64_t elements);

  std::size_t size() const { return size_; }
  SubTensorStats operator[](std::size_t i) const {
    return abs_.empty() ? full_[i] : abs_[i].full();
  }
  std::int64_t elements(std::size_t i) const {
    return sizes_.empty() ? elements_ : sizes_[i];
  }

 private:
  std::span<const SubTensorStats> full_;
  std::span<const AbsStats> abs_;
  std::span<const std::int64_t> sizes_;
  std::int64_t elements_ = 0;
  std::size_t size_ = 0;
};

/// Outcome of the automatic threshold selection.
struct AutoThresholdSummary {
  double delta_threshold = 0.0;      ///< the implied minimum δ
  double excess_relative_mse = 0.0;  ///< accepted excess noise / signal
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
/// `low` is resized to stats.size(); low[i] is set iff sub-tensor i
/// goes to the low precision.
AutoThresholdSummary select_auto_threshold(const StatsView& stats,
                                           const QuantParams& params,
                                           const SelectorConfig& base,
                                           double budget,
                                           std::vector<bool>& low,
                                           double noise_cap = 0.125);

/// The selection above plus each sub-tensor's Eq. 5 (hc, lc) choice,
/// which rendering needs.  `sizes[i]` is the element count of
/// sub-tensor i.
struct AutoThresholdResult : AutoThresholdSummary {
  std::vector<PrecisionDecision> decisions;  ///< one per sub-tensor
};

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
