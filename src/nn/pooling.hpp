// Pooling layers for CNN proxies.
#pragma once

#include "nn/layer.hpp"

namespace drift::nn {

/// Max pooling over [C, H, W] with square kernel and stride.
class MaxPool2d : public Layer {
 public:
  MaxPool2d(std::string name, std::int64_t kernel, std::int64_t stride);

  TensorF forward(const TensorF& input, QuantEngine& engine) override;
  const std::string& name() const override { return name_; }

 private:
  std::string name_;
  std::int64_t kernel_, stride_;
};

/// Global average pooling: [C, H, W] -> [1, C] (GEMM-ready row vector).
class GlobalAvgPool : public Layer {
 public:
  explicit GlobalAvgPool(std::string name) : name_(std::move(name)) {}

  TensorF forward(const TensorF& input, QuantEngine& engine) override;
  const std::string& name() const override { return name_; }

 private:
  std::string name_;
};

/// Mean over tokens: [T, D] -> [1, D], the classification pooling of
/// the transformer proxies.
class MeanPoolTokens : public Layer {
 public:
  explicit MeanPoolTokens(std::string name) : name_(std::move(name)) {}

  TensorF forward(const TensorF& input, QuantEngine& engine) override;
  const std::string& name() const override { return name_; }

 private:
  std::string name_;
};

}  // namespace drift::nn
