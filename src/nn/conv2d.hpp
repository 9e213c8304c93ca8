// 2-D convolution via im2col + GEMM, single-sample [C, H, W] layout.
//
// Quantization is applied to the [C, H, W] input at DRQ-style region
// granularity *before* lowering (this is what both DRQ's and Drift's
// hardware see: the feature map in the global buffer), then the
// effective values are im2col'ed and multiplied.
#pragma once

#include "nn/layer.hpp"
#include "util/rng.hpp"

namespace drift::nn {

/// im2col lowering: input [C, H, W] with kernel (kh, kw), stride s and
/// symmetric zero padding p becomes a [OH*OW, C*kh*kw] matrix.
TensorF im2col(const TensorF& input, std::int64_t kh, std::int64_t kw,
               std::int64_t stride, std::int64_t pad);

class Conv2d : public Layer {
 public:
  Conv2d(std::string name, std::int64_t in_channels,
         std::int64_t out_channels, std::int64_t kernel, std::int64_t stride,
         std::int64_t pad, Rng& rng);

  TensorF forward(const TensorF& input, QuantEngine& engine) override;
  const std::string& name() const override { return name_; }

  std::int64_t in_channels() const { return in_channels_; }
  std::int64_t out_channels() const { return out_channels_; }
  std::int64_t kernel() const { return kernel_; }
  std::int64_t stride() const { return stride_; }
  std::int64_t pad() const { return pad_; }
  const TensorF& weight() const { return weight_; }
  const TensorF& bias() const { return bias_; }

  /// Output spatial size for a given input size.
  std::int64_t out_size(std::int64_t in_size) const;

 private:
  std::string name_;
  std::int64_t in_channels_, out_channels_, kernel_, stride_, pad_;
  TensorF weight_;  ///< [OC, IC*kh*kw] (output-major, im2col-ready)
  TensorF bias_;    ///< [OC]
  WeightSlot prepared_;
};

}  // namespace drift::nn
