// Dynamic precision selection (Section 3.3, Equations 5 and 6).
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
// noise-budget rule in core/noise_budget.hpp.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "core/precision.hpp"
#include "core/quantizer.hpp"
#include "stats/summary.hpp"
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

  /// The zero-mean Laplace sub-tensor's full statistics: E[Y] = 0 and
  /// E[Y^2] = 2b^2 (sampling noise on the second moment mirrors the
  /// first's).
  SubTensorStats full() const {
    return SubTensorStats{max_abs, mean_abs, 0.0,
                          2.0 * mean_abs * mean_abs};
  }
};

/// Computes SubTensorStats for one sub-tensor view of a float buffer.
SubTensorStats compute_stats(const SubTensorView& view,
                             std::span<const float> buffer);

/// Computes SubTensorStats for all views of a buffer.
std::vector<SubTensorStats> compute_stats(
    const std::vector<SubTensorView>& views, std::span<const float> buffer);

/// Selector configuration.
struct SelectorConfig {
  Precision hp = kInt8;           ///< storage precision after Eq. 1
  Precision lp = kInt4;           ///< candidate low precision
  double density_threshold = 1.0; ///< δ in Equation 6

  bool operator==(const SelectorConfig&) const = default;
};

/// Runs Equations 5–6 for one sub-tensor.  Total: every input yields a
/// decision (all-zero sub-tensors trivially go low at maximal clip).
PrecisionDecision select_precision(const SubTensorStats& stats,
                                   const QuantParams& params,
                                   const SelectorConfig& config);

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

/// End-to-end dynamic quantization of one tensor:
///   float tensor --Eq.1--> INT-hp codes --Eq.5/6 per sub-tensor-->
///   PrecisionMap (+ optionally the effective dequantized tensor the
///   hardware would compute with, for accuracy evaluation).
class DynamicQuantizer {
 public:
  explicit DynamicQuantizer(SelectorConfig config) : config_(config) {}

  const SelectorConfig& config() const { return config_; }

  /// Selects precision for every view.  `values` is the float tensor;
  /// `params` its Eq. 1 calibration.
  PrecisionMap select(std::span<const float> values,
                      const std::vector<SubTensorView>& views,
                      const QuantParams& params) const;

  /// Produces the dequantized tensor as the accelerator would see it:
  /// low-selected sub-tensors go through hp->lp conversion, the rest
  /// stay at hp.  Output has the same layout as `values`.
  std::vector<float> apply(std::span<const float> values,
                           const std::vector<SubTensorView>& views,
                           const QuantParams& params,
                           const PrecisionMap& map) const;

 private:
  SelectorConfig config_;
};

}  // namespace drift::core
