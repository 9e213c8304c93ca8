// Fully-connected layer: y = x W^T + b, weights output-major [N, K].
#pragma once

#include "nn/layer.hpp"
#include "util/rng.hpp"

namespace drift::nn {

class Linear : public Layer {
 public:
  /// Takes ownership of explicit parameters.
  Linear(std::string name, TensorF weight, TensorF bias);

  /// Randomly initialized layer: per-output-channel Laplace weights
  /// whose scale varies across channels (matching the inter-sub-tensor
  /// spread profiled in Figure 1), Kaiming-style magnitude.
  Linear(std::string name, std::int64_t in_features,
         std::int64_t out_features, Rng& rng);

  TensorF forward(const TensorF& input, QuantEngine& engine) override;
  const std::string& name() const override { return name_; }

  std::int64_t in_features() const { return weight_.shape().dim(1); }
  std::int64_t out_features() const { return weight_.shape().dim(0); }
  const TensorF& weight() const { return weight_; }
  const TensorF& bias() const { return bias_; }

 private:
  std::string name_;
  TensorF weight_;  ///< [out, in]
  TensorF bias_;    ///< [out]
  WeightSlot prepared_;
};

}  // namespace drift::nn
