#include "ref/ref_kernels.hpp"

// drift-lint: allow(oracle-include) — assertion macro only; shares no
// computational code with the implementations under test.
#include "util/assert.hpp"

namespace drift::ref {

TensorF matmul(const TensorF& a, const TensorF& b) {
  DRIFT_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2,
              "matmul needs rank-2 operands");
  const std::int64_t M = a.shape().dim(0);
  const std::int64_t K = a.shape().dim(1);
  DRIFT_CHECK(b.shape().dim(0) == K, "inner dimension mismatch");
  const std::int64_t N = b.shape().dim(1);
  TensorF c(Shape{M, N});
  for (std::int64_t i = 0; i < M; ++i) {
    for (std::int64_t j = 0; j < N; ++j) {
      double acc = 0.0;
      for (std::int64_t k = 0; k < K; ++k) {
        if (a(i, k) == 0.0f) continue;
        acc += static_cast<double>(a(i, k)) * static_cast<double>(b(k, j));
      }
      c(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

TensorF matmul_nt(const TensorF& a, const TensorF& w) {
  DRIFT_CHECK(a.shape().rank() == 2 && w.shape().rank() == 2,
              "matmul_nt needs rank-2 operands");
  const std::int64_t M = a.shape().dim(0);
  const std::int64_t K = a.shape().dim(1);
  DRIFT_CHECK(w.shape().dim(1) == K, "inner dimension mismatch");
  const std::int64_t N = w.shape().dim(0);
  TensorF c(Shape{M, N});
  for (std::int64_t i = 0; i < M; ++i) {
    for (std::int64_t j = 0; j < N; ++j) {
      double acc = 0.0;
      for (std::int64_t k = 0; k < K; ++k) {
        if (a(i, k) == 0.0f) continue;
        acc += static_cast<double>(a(i, k)) * static_cast<double>(w(j, k));
      }
      c(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

TensorF conv2d(const TensorF& input, const TensorF& weight,
               const TensorF& bias, std::int64_t kh, std::int64_t kw,
               std::int64_t stride, std::int64_t pad) {
  DRIFT_CHECK(input.shape().rank() == 3, "conv2d expects [C, H, W]");
  DRIFT_CHECK(weight.shape().rank() == 2, "conv2d expects [OC, C*kh*kw]");
  const std::int64_t C = input.shape().dim(0);
  const std::int64_t H = input.shape().dim(1);
  const std::int64_t W = input.shape().dim(2);
  const std::int64_t OC = weight.shape().dim(0);
  DRIFT_CHECK(weight.shape().dim(1) == C * kh * kw,
              "conv2d weight width mismatch");
  DRIFT_CHECK(bias.shape().rank() == 1 && bias.shape().dim(0) == OC,
              "conv2d bias mismatch");
  const std::int64_t OH = (H + 2 * pad - kh) / stride + 1;
  const std::int64_t OW = (W + 2 * pad - kw) / stride + 1;
  DRIFT_CHECK(OH > 0 && OW > 0, "kernel larger than padded input");

  TensorF out(Shape{OC, OH, OW});
  for (std::int64_t o = 0; o < OC; ++o) {
    for (std::int64_t oh = 0; oh < OH; ++oh) {
      for (std::int64_t ow = 0; ow < OW; ++ow) {
        // k = (c*kh + dh)*kw + dw ascending: the lowered GEMM's order.
        double acc = 0.0;
        for (std::int64_t c = 0; c < C; ++c) {
          for (std::int64_t dh = 0; dh < kh; ++dh) {
            const std::int64_t h = oh * stride - pad + dh;
            if (h < 0 || h >= H) continue;
            for (std::int64_t dw = 0; dw < kw; ++dw) {
              const std::int64_t w = ow * stride - pad + dw;
              if (w < 0 || w >= W || input(c, h, w) == 0.0f) continue;
              acc += static_cast<double>(input(c, h, w)) *
                     static_cast<double>(
                         weight(o, (c * kh + dh) * kw + dw));
            }
          }
        }
        out(o, oh, ow) = static_cast<float>(acc) + bias.at(o);
      }
    }
  }
  return out;
}

TensorF int_gemm_nt(const TensorI32& act_codes, const TensorI32& wgt_codes,
                    const std::vector<double>& act_row_scale,
                    const std::vector<double>& wgt_row_scale) {
  const std::int64_t M = act_codes.shape().dim(0);
  const std::int64_t K = act_codes.shape().dim(1);
  DRIFT_CHECK(wgt_codes.shape().dim(1) == K, "inner dimension mismatch");
  const std::int64_t N = wgt_codes.shape().dim(0);
  DRIFT_CHECK(static_cast<std::int64_t>(act_row_scale.size()) == M &&
                  static_cast<std::int64_t>(wgt_row_scale.size()) == N,
              "one scale per operand row required");
  TensorF out(Shape{M, N});
  for (std::int64_t i = 0; i < M; ++i) {
    for (std::int64_t j = 0; j < N; ++j) {
      std::int64_t acc = 0;
      for (std::int64_t k = 0; k < K; ++k) {
        acc += static_cast<std::int64_t>(act_codes(i, k)) *
               static_cast<std::int64_t>(wgt_codes(j, k));
      }
      out(i, j) = static_cast<float>(
          static_cast<double>(acc) *
          act_row_scale[static_cast<std::size_t>(i)] *
          wgt_row_scale[static_cast<std::size_t>(j)]);
    }
  }
  return out;
}

}  // namespace drift::ref
