// Model containers and composite blocks.
#pragma once

#include <memory>
#include <vector>

#include "nn/activations.hpp"
#include "nn/attention.hpp"
#include "nn/conv2d.hpp"
#include "nn/layer.hpp"
#include "nn/linear.hpp"
#include "nn/norm.hpp"

namespace drift::nn {

/// Straight-line layer container.
class Sequential : public Layer {
 public:
  explicit Sequential(std::string name) : name_(std::move(name)) {}

  /// Appends a layer; returns *this for chaining.
  Sequential& add(LayerPtr layer);

  /// Constructs and appends a layer in place.
  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  TensorF forward(const TensorF& input, QuantEngine& engine) override;
  const std::string& name() const override { return name_; }

  std::size_t size() const { return layers_.size(); }

 private:
  std::string name_;
  std::vector<LayerPtr> layers_;
};

/// ResNet basic block: conv-BN-ReLU-conv-BN + skip (with optional 1x1
/// projection when shape changes), final ReLU.
class ResidualBlock : public Layer {
 public:
  ResidualBlock(std::string name, std::int64_t in_channels,
                std::int64_t out_channels, std::int64_t stride, Rng& rng);

  TensorF forward(const TensorF& input, QuantEngine& engine) override;
  const std::string& name() const override { return name_; }

 private:
  std::string name_;
  Conv2d conv1_;
  BatchNorm2d bn1_;
  ReLU relu1_;
  Conv2d conv2_;
  BatchNorm2d bn2_;
  ReLU relu2_;
  std::unique_ptr<Conv2d> projection_;  ///< 1x1 shortcut when needed
};

/// Pre-norm transformer encoder block: LN -> MHA -> residual,
/// LN -> FFN(GELU) -> residual.
class TransformerBlock : public Layer {
 public:
  TransformerBlock(std::string name, std::int64_t dim, std::int64_t heads,
                   std::int64_t ffn_dim, Rng& rng);

  TensorF forward(const TensorF& input, QuantEngine& engine) override;
  const std::string& name() const override { return name_; }

 private:
  std::string name_;
  LayerNorm ln1_;
  MultiHeadAttention attn_;
  LayerNorm ln2_;
  Linear ffn1_;
  GELU gelu_;
  Linear ffn2_;
};

}  // namespace drift::nn
