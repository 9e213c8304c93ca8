#include "nn/linear.hpp"

#include <cmath>

#include "nn/gemm.hpp"
#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace drift::nn {

Linear::Linear(std::string name, TensorF weight, TensorF bias)
    : name_(std::move(name)), weight_(std::move(weight)),
      bias_(std::move(bias)) {
  DRIFT_CHECK(weight_.shape().rank() == 2, "weight must be [out, in]");
  DRIFT_CHECK(bias_.shape().rank() == 1 &&
                  bias_.shape().dim(0) == weight_.shape().dim(0),
              "bias must be [out]");
}

Linear::Linear(std::string name, std::int64_t in_features,
               std::int64_t out_features, Rng& rng)
    : name_(std::move(name)), weight_(Shape{out_features, in_features}),
      bias_(Shape{out_features}, 0.0f) {
  DRIFT_CHECK(in_features > 0 && out_features > 0, "invalid layer size");
  // Kaiming-flavoured base scale; per-channel lognormal spread mirrors
  // the heterogeneous sub-tensor scales real checkpoints exhibit.
  const double base =
      std::sqrt(2.0 / static_cast<double>(in_features)) / std::sqrt(2.0);
  auto wd = weight_.data();
  for (std::int64_t o = 0; o < out_features; ++o) {
    const double channel_scale = base * std::exp(rng.normal(0.0, 0.4));
    for (std::int64_t i = 0; i < in_features; ++i) {
      wd[static_cast<std::size_t>(o * in_features + i)] =
          static_cast<float>(rng.laplace(channel_scale));
    }
  }
}

TensorF Linear::forward(const TensorF& input, QuantEngine& engine) {
  DRIFT_OBS_LAYER_SCOPE(name_);
  DRIFT_CHECK(input.shape().rank() == 2, "Linear expects [M, K]");
  DRIFT_CHECK(input.shape().dim(1) == in_features(),
              "Linear input width mismatch");
  const OperandResult act = engine.process_activation_rows(input);
  const auto wgt = prepared_.get(engine, weight_);
  TensorF out = matmul(act.effective, wgt->weight);
  add_bias(out, bias_);
  engine.record(name_, input.shape().dim(0), in_features(), out_features(),
                act.low_fraction, wgt->low_fraction_rows);
  return out;
}

}  // namespace drift::nn
