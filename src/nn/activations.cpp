#include "nn/activations.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace drift::nn {

TensorF ReLU::forward(const TensorF& input, QuantEngine&) {
  DRIFT_OBS_LAYER_SCOPE(name_);
  TensorF out(input.shape());
  const float* src = input.data().data();
  float* dst = out.data().data();
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    dst[i] = std::max(src[i], 0.0f);
  }
  return out;
}

float gelu_value(float x) {
  constexpr float kSqrt2OverPi = 0.7978845608f;
  const float inner = kSqrt2OverPi * (x + 0.044715f * x * x * x);
  return 0.5f * x * (1.0f + std::tanh(inner));
}

TensorF GELU::forward(const TensorF& input, QuantEngine&) {
  DRIFT_OBS_LAYER_SCOPE(name_);
  TensorF out = input;
  for (float& v : out.data()) v = gelu_value(v);
  return out;
}

TensorF softmax_rows(const TensorF& x) {
  DRIFT_CHECK(x.shape().rank() == 2, "softmax_rows expects [M, N]");
  const std::int64_t M = x.shape().dim(0);
  const std::int64_t N = x.shape().dim(1);
  TensorF out(x.shape());
  for (std::int64_t i = 0; i < M; ++i) {
    auto row_in = x.row(i);
    auto row_out = out.row(i);
    float peak = row_in[0];
    for (float v : row_in) peak = std::max(peak, v);
    double denom = 0.0;
    for (std::int64_t j = 0; j < N; ++j) {
      const double e = std::exp(static_cast<double>(row_in[
          static_cast<std::size_t>(j)] - peak));
      row_out[static_cast<std::size_t>(j)] = static_cast<float>(e);
      denom += e;
    }
    for (float& v : row_out) v = static_cast<float>(v / denom);
  }
  return out;
}

}  // namespace drift::nn
