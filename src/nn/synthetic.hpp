// Distribution-faithful synthetic data (the paper-data substitution).
//
// We do not have ImageNet, GLUE, WikiText or the pretrained
// checkpoints; what the Drift algorithm actually consumes is the
// *statistical structure* of activations: zero-mean Laplace sub-tensors
// whose scale b varies widely across sub-tensors (Figure 1), with the
// sub-tensor scale field being
//   - spatially smooth for CNN feature maps (objects vs background:
//     DRQ's home turf), and
//   - spiky for transformer token streams (a few outlier tokens with
//     10-50x scale, the LLM.int8 phenomenon that defeats tensor-wide
//     scaling).
// A SubTensorScaleProfile captures that structure; generators emit
// concrete activation tensors and per-sub-tensor statistics from it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/selector.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace drift::nn {

/// How the Laplace scale b varies across sub-tensors of one tensor.
struct SubTensorScaleProfile {
  double log_mean = 0.0;    ///< mean of ln(b)
  double log_sigma = 0.8;   ///< stddev of ln(b): inter-sub-tensor spread
  double outlier_fraction = 0.0;  ///< share of outlier sub-tensors
  double outlier_scale = 10.0;    ///< scale multiplier for outliers
  /// AR(1) correlation of ln(b) across adjacent sub-tensors: near 1 for
  /// CNN spatial fields (contiguous low/high regions), near 0 for token
  /// streams (scattered).
  double correlation = 0.0;
};

/// Canonical profiles used across benches.
SubTensorScaleProfile cnn_profile();          ///< smooth, no outliers
SubTensorScaleProfile vit_profile();          ///< moderate outlier patches
SubTensorScaleProfile bert_profile();         ///< outlier tokens
SubTensorScaleProfile llm_profile();          ///< strong outlier tokens
SubTensorScaleProfile weight_profile();       ///< per-channel spread

/// Draws the per-sub-tensor scale sequence b[0..count) from a profile
/// (AR(1) log-normal field with outlier injection).
std::vector<double> sample_scales(Rng& rng, std::int64_t count,
                                  const SubTensorScaleProfile& profile);

/// Synthesizes a [rows, cols] activation matrix: row i ~ Laplace(b_i)
/// with b from sample_scales.
TensorF synth_rows(Rng& rng, std::int64_t rows, std::int64_t cols,
                   const SubTensorScaleProfile& profile);

/// Synthesizes a [C, H, W] feature map whose g-region scale field
/// follows the profile (regions enumerated row-major over H/W blocks).
TensorF synth_chw(Rng& rng, std::int64_t channels, std::int64_t height,
                  std::int64_t width, std::int64_t region,
                  const SubTensorScaleProfile& profile);

/// Samples per-sub-tensor statistics *directly* (no element storage):
/// for a sub-tensor of `elements` i.i.d. Laplace(b) values,
///   avg|Y| ~ b * Gamma(n, 1/n)   (mean b, relative sd 1/sqrt(n))
///   max|Y| ~ b * (ln n + Gumbel) (exponential order statistic)
/// Used by the hardware benches to derive precision mixes for full-size
/// models (GPT2-XL etc.) without materializing billion-element tensors;
/// core::StatsView completes each record with the Laplace moments.
std::vector<core::AbsStats> sample_subtensor_stats(
    Rng& rng, std::int64_t count, std::int64_t elements,
    const SubTensorScaleProfile& profile);

}  // namespace drift::nn
