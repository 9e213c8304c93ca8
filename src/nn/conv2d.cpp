#include "nn/conv2d.hpp"

#include <algorithm>
#include <cmath>

#include "nn/gemm.hpp"
#include "obs/metrics.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace drift::nn {

TensorF im2col(const TensorF& input, std::int64_t kh, std::int64_t kw,
               std::int64_t stride, std::int64_t pad) {
  DRIFT_CHECK(input.shape().rank() == 3, "im2col expects [C, H, W]");
  DRIFT_CHECK(kh > 0 && kw > 0 && stride > 0 && pad >= 0,
              "invalid conv geometry");
  const std::int64_t C = input.shape().dim(0);
  const std::int64_t H = input.shape().dim(1);
  const std::int64_t W = input.shape().dim(2);
  const std::int64_t OH = (H + 2 * pad - kh) / stride + 1;
  const std::int64_t OW = (W + 2 * pad - kw) / stride + 1;
  DRIFT_CHECK(OH > 0 && OW > 0, "kernel larger than padded input");

  TensorF out(Shape{OH * OW, C * kh * kw}, 0.0f);
  const float* src = input.data().data();
  float* dst = out.data().data();
  const std::int64_t row_width = C * kh * kw;
  // Each output row `oh` owns the rows [oh*OW, (oh+1)*OW) of the
  // lowered matrix, so parallelizing over oh writes disjoint slices.
  // Per output position the in-bounds kernel rows [dh0, dh1) and
  // columns [dw0, dw1) are fixed, so every (channel, kernel-row) tap is
  // one contiguous run of the input row; padding stays zero.
  util::parallel_for(0, OH, 8, [&](std::int64_t oh0, std::int64_t oh1) {
    for (std::int64_t oh = oh0; oh < oh1; ++oh) {
      const std::int64_t h0 = oh * stride - pad;
      const std::int64_t dh0 = std::max<std::int64_t>(0, -h0);
      const std::int64_t dh1 = std::min(kh, H - h0);
      for (std::int64_t ow = 0; ow < OW; ++ow) {
        const std::int64_t w0 = ow * stride - pad;
        const std::int64_t dw0 = std::max<std::int64_t>(0, -w0);
        const std::int64_t dw1 = std::min(kw, W - w0);
        if (dw1 <= dw0) continue;
        float* row = dst + (oh * OW + ow) * row_width;
        for (std::int64_t c = 0; c < C; ++c) {
          for (std::int64_t dh = dh0; dh < dh1; ++dh) {
            std::copy_n(src + (c * H + h0 + dh) * W + w0 + dw0, dw1 - dw0,
                        row + (c * kh + dh) * kw + dw0);
          }
        }
      }
    }
  });
  return out;
}

Conv2d::Conv2d(std::string name, std::int64_t in_channels,
               std::int64_t out_channels, std::int64_t kernel,
               std::int64_t stride, std::int64_t pad, Rng& rng)
    : name_(std::move(name)), in_channels_(in_channels),
      out_channels_(out_channels), kernel_(kernel), stride_(stride),
      pad_(pad),
      weight_(Shape{out_channels, in_channels * kernel * kernel}),
      bias_(Shape{out_channels}, 0.0f) {
  DRIFT_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0,
              "invalid conv shape");
  const std::int64_t fan_in = in_channels * kernel * kernel;
  const double base =
      std::sqrt(2.0 / static_cast<double>(fan_in)) / std::sqrt(2.0);
  auto wd = weight_.data();
  for (std::int64_t o = 0; o < out_channels; ++o) {
    const double channel_scale = base * std::exp(rng.normal(0.0, 0.4));
    for (std::int64_t i = 0; i < fan_in; ++i) {
      wd[static_cast<std::size_t>(o * fan_in + i)] =
          static_cast<float>(rng.laplace(channel_scale));
    }
  }
}

std::int64_t Conv2d::out_size(std::int64_t in_size) const {
  return (in_size + 2 * pad_ - kernel_) / stride_ + 1;
}

TensorF Conv2d::forward(const TensorF& input, QuantEngine& engine) {
  DRIFT_OBS_LAYER_SCOPE(name_);
  DRIFT_CHECK(input.shape().rank() == 3, "Conv2d expects [C, H, W]");
  DRIFT_CHECK(input.shape().dim(0) == in_channels_,
              "Conv2d channel mismatch");
  const OperandResult act = engine.process_activation_regions(input);
  const auto wgt = prepared_.get(engine, weight_);

  const TensorF lowered = im2col(act.effective, kernel_, kernel_, stride_,
                                 pad_);
  TensorF out2d = matmul(lowered, wgt->weight);
  add_bias(out2d, bias_);

  const std::int64_t OH = out_size(input.shape().dim(1));
  const std::int64_t OW = out_size(input.shape().dim(2));
  engine.record(name_, OH * OW, in_channels_ * kernel_ * kernel_,
                out_channels_, act.low_fraction, wgt->low_fraction_rows);

  // [OH*OW, OC] -> [OC, OH, OW].  Parallel over channels: each chunk
  // writes its own contiguous [c, :, :] planes.
  TensorF out(Shape{out_channels_, OH, OW});
  auto src = out2d.data();
  auto dst = out.data();
  const std::int64_t P = OH * OW;
  util::parallel_for(0, out_channels_, 4,
                     [&](std::int64_t c0, std::int64_t c1) {
    for (std::int64_t c = c0; c < c1; ++c) {
      float* plane = dst.data() + static_cast<std::size_t>(c * P);
      for (std::int64_t p = 0; p < P; ++p) {
        plane[p] = src[static_cast<std::size_t>(p * out_channels_ + c)];
      }
    }
  });
  return out;
}

}  // namespace drift::nn
