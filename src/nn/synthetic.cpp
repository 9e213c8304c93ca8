#include "nn/synthetic.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace drift::nn {

SubTensorScaleProfile cnn_profile() {
  SubTensorScaleProfile p;
  // Post-ReLU CNN feature maps have enormous inter-region dynamic
  // range: background regions sit near zero while object regions carry
  // values orders of magnitude larger (Figure 1a: "the maximum value
  // of some sub-tensors is nearly 0 while others exceed 3"; DRQ's
  // "sparse sensitive areas" premise).
  p.log_mean = -3.2;
  p.log_sigma = 0.7;
  // "Objects": a quarter of the regions carry activations ~25x the
  // background scale — the bimodal loud/quiet structure of post-ReLU
  // feature maps.
  p.outlier_fraction = 0.25;
  p.outlier_scale = 25.0;
  p.correlation = 0.9;  // spatially smooth: objects vs background
  return p;
}

SubTensorScaleProfile vit_profile() {
  SubTensorScaleProfile p;
  p.log_mean = -1.2;
  p.log_sigma = 0.9;
  p.outlier_fraction = 0.08;  // salient patches + [CLS]-adjacent tokens
  p.outlier_scale = 12.0;
  p.correlation = 0.2;
  return p;
}

SubTensorScaleProfile bert_profile() {
  SubTensorScaleProfile p;
  p.log_mean = -1.0;
  p.log_sigma = 0.8;
  p.outlier_fraction = 0.05;  // separator / high-norm tokens
  p.outlier_scale = 15.0;
  p.correlation = 0.1;
  return p;
}

SubTensorScaleProfile llm_profile() {
  SubTensorScaleProfile p;
  p.log_mean = -0.8;
  p.log_sigma = 0.7;
  p.outlier_fraction = 0.03;  // LLM.int8-style outlier features
  p.outlier_scale = 30.0;
  p.correlation = 0.05;
  return p;
}

SubTensorScaleProfile weight_profile() {
  SubTensorScaleProfile p;
  p.log_mean = -2.5;
  p.log_sigma = 0.5;  // per-output-channel spread
  p.outlier_fraction = 0.01;
  p.outlier_scale = 4.0;
  p.correlation = 0.0;
  return p;
}

std::vector<double> sample_scales(Rng& rng, std::int64_t count,
                                  const SubTensorScaleProfile& profile) {
  DRIFT_CHECK(count > 0, "need at least one sub-tensor");
  DRIFT_CHECK(profile.correlation >= 0.0 && profile.correlation < 1.0,
              "correlation must be in [0, 1)");
  std::vector<double> scales(static_cast<std::size_t>(count));
  // AR(1) over ln(b): x_{i} = rho*x_{i-1} + sqrt(1-rho^2)*eps keeps the
  // marginal N(log_mean, log_sigma^2) while controlling contiguity.
  const double rho = profile.correlation;
  const double innovation = std::sqrt(1.0 - rho * rho);
  double x = rng.normal();
  for (std::int64_t i = 0; i < count; ++i) {
    if (i > 0) x = rho * x + innovation * rng.normal();
    double b = std::exp(profile.log_mean + profile.log_sigma * x);
    if (profile.outlier_fraction > 0.0 &&
        rng.bernoulli(profile.outlier_fraction)) {
      b *= profile.outlier_scale;
    }
    scales[static_cast<std::size_t>(i)] = b;
  }
  return scales;
}

TensorF synth_rows(Rng& rng, std::int64_t rows, std::int64_t cols,
                   const SubTensorScaleProfile& profile) {
  DRIFT_CHECK(rows > 0 && cols > 0, "invalid matrix shape");
  const auto scales = sample_scales(rng, rows, profile);
  TensorF out(Shape{rows, cols});
  auto d = out.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const double b = scales[static_cast<std::size_t>(r)];
    for (std::int64_t c = 0; c < cols; ++c) {
      d[static_cast<std::size_t>(r * cols + c)] =
          static_cast<float>(rng.laplace(b));
    }
  }
  return out;
}

TensorF synth_chw(Rng& rng, std::int64_t channels, std::int64_t height,
                  std::int64_t width, std::int64_t region,
                  const SubTensorScaleProfile& profile) {
  DRIFT_CHECK(channels > 0 && height > 0 && width > 0 && region > 0,
              "invalid feature-map shape");
  const std::int64_t rh = (height + region - 1) / region;
  const std::int64_t rw = (width + region - 1) / region;
  const auto scales = sample_scales(rng, rh * rw, profile);
  TensorF out(Shape{channels, height, width});
  for (std::int64_t c = 0; c < channels; ++c) {
    for (std::int64_t h = 0; h < height; ++h) {
      for (std::int64_t w = 0; w < width; ++w) {
        const std::int64_t region_idx = (h / region) * rw + (w / region);
        const double b = scales[static_cast<std::size_t>(region_idx)];
        out(c, h, w) = static_cast<float>(rng.laplace(b));
      }
    }
  }
  return out;
}

std::vector<core::AbsStats> sample_subtensor_stats(
    Rng& rng, std::int64_t count, std::int64_t elements,
    const SubTensorScaleProfile& profile) {
  DRIFT_CHECK(elements > 1, "need at least two elements per sub-tensor");
  const auto scales = sample_scales(rng, count, profile);
  const double n = static_cast<double>(elements);
  const double sqrt_n = std::sqrt(n);
  const double log_n = std::log(n);
  std::vector<core::AbsStats> stats;
  stats.reserve(scales.size());
  for (double b : scales) {
    // avg|Y|: Gamma(n)/n, normal approximation for the n's we use.
    const double mean_abs = b * std::max(1.0 + rng.normal() / sqrt_n, 0.05);
    // max|Y|: exponential order statistic, b*(ln n + Gumbel).
    const double gumbel = -std::log(-std::log(
        std::clamp(rng.uniform(), 1e-12, 1.0 - 1e-12)));
    const double max_abs = std::max(b * (log_n + gumbel), mean_abs);
    stats.push_back(core::AbsStats{max_abs, mean_abs});
  }
  return stats;
}

}  // namespace drift::nn
