#include "nn/pooling.hpp"

#include <algorithm>
#include <limits>

#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace drift::nn {

MaxPool2d::MaxPool2d(std::string name, std::int64_t kernel,
                     std::int64_t stride)
    : name_(std::move(name)), kernel_(kernel), stride_(stride) {
  DRIFT_CHECK(kernel > 0 && stride > 0, "invalid pooling geometry");
}

TensorF MaxPool2d::forward(const TensorF& input, QuantEngine&) {
  DRIFT_OBS_LAYER_SCOPE(name_);
  DRIFT_CHECK(input.shape().rank() == 3, "MaxPool2d expects [C, H, W]");
  const std::int64_t C = input.shape().dim(0);
  const std::int64_t H = input.shape().dim(1);
  const std::int64_t W = input.shape().dim(2);
  const std::int64_t OH = (H - kernel_) / stride_ + 1;
  const std::int64_t OW = (W - kernel_) / stride_ + 1;
  DRIFT_CHECK(OH > 0 && OW > 0, "pooling kernel larger than input");

  TensorF out(Shape{C, OH, OW});
  const float* src = input.data().data();
  float* dst = out.data().data();
  for (std::int64_t c = 0; c < C; ++c) {
    const float* plane = src + c * H * W;
    for (std::int64_t oh = 0; oh < OH; ++oh) {
      for (std::int64_t ow = 0; ow < OW; ++ow) {
        // Window in (dh, dw) order: std::max(peak, v) keeps the earlier
        // of two equal values (so -0 vs +0 follows window order) and
        // skips NaN.  PropKernels.MaxPoolBitExactVsDirectLoop pins it.
        const float* window = plane + oh * stride_ * W + ow * stride_;
        float peak = -std::numeric_limits<float>::infinity();
        for (std::int64_t dh = 0; dh < kernel_; ++dh) {
          for (std::int64_t dw = 0; dw < kernel_; ++dw) {
            peak = std::max(peak, window[dh * W + dw]);
          }
        }
        *dst++ = peak;
      }
    }
  }
  return out;
}

TensorF GlobalAvgPool::forward(const TensorF& input, QuantEngine&) {
  DRIFT_OBS_LAYER_SCOPE(name_);
  DRIFT_CHECK(input.shape().rank() == 3, "GlobalAvgPool expects [C, H, W]");
  const std::int64_t C = input.shape().dim(0);
  const std::int64_t HW = input.shape().dim(1) * input.shape().dim(2);
  TensorF out(Shape{1, C});
  auto src = input.data();
  for (std::int64_t c = 0; c < C; ++c) {
    double acc = 0.0;
    for (std::int64_t p = 0; p < HW; ++p) {
      acc += src[static_cast<std::size_t>(c * HW + p)];
    }
    out(0, c) = static_cast<float>(acc / static_cast<double>(HW));
  }
  return out;
}

TensorF MeanPoolTokens::forward(const TensorF& input, QuantEngine&) {
  DRIFT_OBS_LAYER_SCOPE(name_);
  DRIFT_CHECK(input.shape().rank() == 2, "MeanPoolTokens expects [T, D]");
  const std::int64_t T = input.shape().dim(0);
  const std::int64_t D = input.shape().dim(1);
  TensorF out(Shape{1, D}, 0.0f);
  for (std::int64_t t = 0; t < T; ++t) {
    auto row = input.row(t);
    for (std::int64_t d = 0; d < D; ++d) {
      out(0, d) += row[static_cast<std::size_t>(d)] /
                   static_cast<float>(T);
    }
  }
  return out;
}

}  // namespace drift::nn
