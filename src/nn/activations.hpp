// Elementwise nonlinearities and softmax.
#pragma once

#include "nn/layer.hpp"

namespace drift::nn {

/// ReLU over any shape.
class ReLU : public Layer {
 public:
  explicit ReLU(std::string name) : name_(std::move(name)) {}
  TensorF forward(const TensorF& input, QuantEngine& engine) override;
  const std::string& name() const override { return name_; }

 private:
  std::string name_;
};

/// Tanh-approximation GELU over any shape.
class GELU : public Layer {
 public:
  explicit GELU(std::string name) : name_(std::move(name)) {}
  TensorF forward(const TensorF& input, QuantEngine& engine) override;
  const std::string& name() const override { return name_; }

 private:
  std::string name_;
};

/// Numerically-stable softmax over the last axis of a [M, N] tensor.
TensorF softmax_rows(const TensorF& x);

/// Stand-alone scalar helpers (used by tests and attention).
float gelu_value(float x);

}  // namespace drift::nn
