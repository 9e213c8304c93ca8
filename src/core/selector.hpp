// Dynamic precision selection (Sections 3.2-3.3, Equations 3, 5 and 6),
// the noise-budget rule that picks δ, and the DRQ baseline's region
// test: the one selection module.
//
// Per sub-tensor Y the selector consumes exactly the two statistics the
// hardware pooling unit produces — max(|Y|) and avg(|Y|) — and decides:
//
//   1. The conversion choice: the largest high-end clip hc whose RR
//      still covers max(|Y|) (Equation 5), with lc = hp - lp - hc.
//      Clipping from the high end first preserves resolution, which is
//      what Laplace-distributed (small-value-dominated) data wants.
//   2. Whether the resulting density is adequate: accept the low
//      rendering iff var(Y) / RD = 2*avg(|Y|)^2 / (2^lc * Δ) >= δ
//      (Equation 6), where RD = 2^lc * Δ is Equation 3's representation
//      density and var(Y) uses the Laplace identity var = 2*E|Y|^2 from
//      Equation 4.
//
// δ is a per-layer hyperparameter.  Section 3.3 picks "the minimum
// threshold with negligible impact on model accuracy" with a
// Hessian-aware search; every artifact here picks it with the
// noise-budget rule instead, because only sub-tensor statistics exist
// for the full-size hardware workloads.  The Hessian weight becomes a
// quantization-noise proxy:
//
//   A sub-tensor converted with low-end clip lc adds rounding noise
//   ((2^lc Δ)^2 - Δ^2) / 12 per element *beyond* the INT8 rendering
//   (lc = 0 conversions are INT8-density-equivalent: free).
//
// The selection that keeps total excess noise within `budget` x signal
// variance while maximizing 4-bit coverage is computed exactly: rank
// the range-feasible sub-tensors by their Eq. 6 ratio and include
// greedily until the budget binds.  The resulting cut ratio *is* the
// minimum δ; running Equations 5-6 at that δ reproduces the same
// selection.  select_drift and select_drq are what the accuracy path
// (nn/quant_engine.hpp) and the hardware mixes (nn/precision_mix.hpp)
// both classify through.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/precision.hpp"
#include "core/quantizer.hpp"
#include "tensor/subtensor.hpp"

namespace drift::core {

/// Pooling-unit statistics of one sub-tensor.  max(|Y|) and avg(|Y|)
/// are the two the paper's selector consumes; the mean and mean-square
/// accumulators additionally give the *true* variance, which the
/// noise-budget rule uses because post-ReLU sub-tensors are not
/// zero-mean and the Laplace proxy overestimates their variation.
struct SubTensorStats {
  double max_abs = 0.0;   ///< max(|Y|), in dequantized (float) units
  double mean_abs = 0.0;  ///< avg(|Y|), in dequantized (float) units
  double mean = 0.0;      ///< avg(Y) (signed)
  double mean_sq = 0.0;   ///< avg(Y^2)

  /// Laplace-model variance (Equation 4): var(Y) = 2*avg(|Y|)^2.
  double laplace_variance() const { return 2.0 * mean_abs * mean_abs; }

  /// True population variance from the accumulators.
  double true_variance() const {
    return std::max(mean_sq - mean * mean, 0.0);
  }
};

/// Only the two statistics Equations 5-6 read: what the synthetic
/// sampler (nn/synthetic.hpp) draws for a zero-mean Laplace sub-tensor,
/// in half a SubTensorStats.
struct AbsStats {
  double max_abs = 0.0;   ///< max(|Y|)
  double mean_abs = 0.0;  ///< avg(|Y|)
};

/// Computes SubTensorStats for one sub-tensor view of a float buffer.
SubTensorStats compute_stats(const SubTensorView& view,
                             std::span<const float> buffer);

/// Computes SubTensorStats for all views of a buffer.
std::vector<SubTensorStats> compute_stats(
    const std::vector<SubTensorView>& views, std::span<const float> buffer);

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
  /// An AbsStats record reads as the zero-mean Laplace sub-tensor's
  /// full statistics: E[Y] = 0 and E[Y^2] = 2b^2 (sampling noise on the
  /// second moment mirrors the first's).
  SubTensorStats operator[](std::size_t i) const {
    if (abs_.empty()) return full_[i];
    const AbsStats& a = abs_[i];
    return SubTensorStats{a.max_abs, a.mean_abs, 0.0,
                          2.0 * a.mean_abs * a.mean_abs};
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

/// Selector configuration.
struct SelectorConfig {
  Precision hp = kInt8;           ///< storage precision after Eq. 1
  Precision lp = kInt4;           ///< candidate low precision
  double density_threshold = 1.0; ///< δ in Equation 6

  bool operator==(const SelectorConfig&) const = default;
};

/// DRQ baseline configuration (Song et al., ISCA 2020).  DRQ classifies
/// each region as sensitive or not by its mean(|Y|) and renders the
/// insensitive ones at lp by truncating the low bits of the tensor-wide
/// hp code (hc = 0, lc = hp - lp).  On transformer activations a few
/// outlier tokens inflate the tensor-wide Δ, so the truncation zeroes
/// the small-magnitude tokens: the accuracy collapse of Figure 6.
struct DrqConfig {
  Precision hp = kInt8;
  Precision lp = kInt4;
  /// A region is sensitive when its mean(|Y|) reaches `sensitivity`
  /// times the tensor's reference mean(|X|).  DRQ calibrates this on
  /// CNN validation data; 1.0 reproduces its published behaviour
  /// (large-activation regions stay 8-bit).
  double sensitivity = 1.0;

  bool operator==(const DrqConfig&) const = default;
};

/// Equation 5 alone: the (hc, lc) a sub-tensor with this max(|Y|)
/// converts with — the largest hc whose exact lp range covers it,
/// (hp - lp, 0) for an all-zero one and (0, hp - lp) when no lp
/// rendering covers it.  It does not depend on δ.
ConversionChoice conversion_choice(double max_abs, const QuantParams& params,
                                   const SelectorConfig& config);

/// Runs Equations 5–6 for one sub-tensor.  Total: every input yields a
/// decision (all-zero sub-tensors trivially go low at maximal clip).
// drift-lint: allow(dead-api) — the fixed-δ decision with its Eq. 5
// conversion, which PropSelector.* and SelectPrecision.* check against
// brute-force Eq. 5/6 oracles; select_drift keeps only its bit.
PrecisionDecision select_precision(const SubTensorStats& stats,
                                   const QuantParams& params,
                                   const SelectorConfig& config);

/// The local density guard of the noise-budget rule (Eq. 6's
/// per-sub-tensor role): a conversion whose excess noise per element
/// exceeds kDefaultNoiseCap times the sub-tensor's own variance stays
/// high even when the global budget affords it, so a quiet sub-tensor
/// is never wiped out.
inline constexpr double kDefaultNoiseCap = 0.125;

/// Drift's selection over every sub-tensor: low[i] is set iff
/// sub-tensor i goes to config.lp.  Without a budget it runs Equations
/// 5-6 at the fixed δ config.density_threshold.  With one it applies
/// the noise-budget rule: maximize low-precision coverage subject to
///   - global: total excess rounding noise (vs INT8) at most `budget`
///     times the total signal variance, and
///   - local: the kDefaultNoiseCap guard above.
/// The signal variance is the true one where the accumulators give it
/// (mean_sq > 0) and the Laplace one otherwise.  When the budget
/// provably cannot bind every guarded, range-feasible sub-tensor goes
/// low without ranking.  `low` is resized to stats.size().
void select_drift(const StatsView& stats, const QuantParams& params,
                  const SelectorConfig& config, std::optional<double> budget,
                  std::vector<bool>& low);

/// What a finished Drift selection amounts to.
struct AutoThresholdSummary {
  /// The implied minimum δ: the smallest Eq. 6 ratio among the selected
  /// sub-tensors whose conversion adds noise (0 when none does).
  double delta_threshold = 0.0;
  /// The selected sub-tensors' excess noise, summed in index order,
  /// over the signal variance.
  double excess_relative_mse = 0.0;
  double low_fraction_by_elements = 0.0;
};

/// Describes the selection `low` (one bit per sub-tensor, as
/// select_drift writes it) under the noise-budget rule's measures.
AutoThresholdSummary summarize_selection(const StatsView& stats,
                                         const QuantParams& params,
                                         const SelectorConfig& config,
                                         const std::vector<bool>& low);

/// DRQ's region test: low[i] is set iff sub-tensor i is insensitive,
/// i.e. its mean(|Y|) stays below config.sensitivity * reference.  The
/// caller supplies the tensor's reference mean(|X|).  `low` is resized
/// to stats.size().
void select_drq(const StatsView& stats, const DrqConfig& config,
                double reference, std::vector<bool>& low);

/// The per-layer outcome: one decision per sub-tensor plus the element
/// counts needed for computation-weighted fractions.
class PrecisionMap {
 public:
  PrecisionMap(std::vector<PrecisionDecision> decisions,
               std::vector<std::int64_t> sizes, SelectorConfig config);

  std::size_t num_subtensors() const { return decisions_.size(); }
  const PrecisionDecision& decision(std::size_t i) const;
  const SelectorConfig& config() const { return config_; }

  /// Fraction of sub-tensors that selected the low precision.
  double low_fraction_by_count() const;

  /// Fraction of *elements* (== MACs for a fixed K) at low precision;
  /// this is the "% of 4-bit computation" the paper reports.
  double low_fraction_by_elements() const;

 private:
  std::vector<PrecisionDecision> decisions_;
  std::vector<std::int64_t> sizes_;
  SelectorConfig config_;
  std::int64_t total_elements_ = 0;
  std::int64_t low_elements_ = 0;
  std::size_t low_count_ = 0;
};

}  // namespace drift::core
