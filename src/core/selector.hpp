// Dynamic precision selection (Section 3.3, Equations 5 and 6) and the
// DRQ baseline's region test: the one selection entry per algorithm.
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
//      (Equation 6), where var(Y) uses the Laplace identity
//      var = 2*E|Y|^2 from Equation 4.
//
// δ is a per-layer hyperparameter; every artifact picks it with the
// noise-budget rule in core/noise_budget.hpp.  select_drift and
// select_drq are what the accuracy path (nn/quant_engine.hpp) and the
// hardware mixes (nn/precision_mix.hpp) both classify through.
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
/// noise-budget selection (core/noise_budget.hpp) uses because
/// post-ReLU sub-tensors are not zero-mean and the Laplace proxy
/// overestimates their variation.
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
PrecisionDecision select_precision(const SubTensorStats& stats,
                                   const QuantParams& params,
                                   const SelectorConfig& config);

/// Drift's selection over every sub-tensor: low[i] is set iff
/// sub-tensor i goes to config.lp.  Without a budget it runs Equations
/// 5-6 at the fixed δ config.density_threshold; with one, the
/// noise-budget selection (core/noise_budget.hpp) picks δ.  `low` is
/// resized to stats.size().
void select_drift(const StatsView& stats, const QuantParams& params,
                  const SelectorConfig& config, std::optional<double> budget,
                  std::vector<bool>& low);

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

  std::int64_t total_elements() const { return total_elements_; }
  std::int64_t low_elements() const { return low_elements_; }

 private:
  std::vector<PrecisionDecision> decisions_;
  std::vector<std::int64_t> sizes_;
  SelectorConfig config_;
  std::int64_t total_elements_ = 0;
  std::int64_t low_elements_ = 0;
  std::size_t low_count_ = 0;
};

}  // namespace drift::core
