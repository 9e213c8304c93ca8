#include "nn/attention.hpp"

#include <algorithm>
#include <cmath>

#include "nn/activations.hpp"
#include "nn/gemm.hpp"
#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace drift::nn {

MultiHeadAttention::MultiHeadAttention(std::string name, std::int64_t dim,
                                       std::int64_t heads, Rng& rng)
    : name_(std::move(name)), dim_(dim), heads_(heads),
      head_dim_(dim / heads), qkv_(name_ + ".qkv", dim, 3 * dim, rng),
      proj_(name_ + ".proj", dim, dim, rng) {
  DRIFT_CHECK(dim > 0 && heads > 0 && dim % heads == 0,
              "dim must divide evenly into heads");
}

TensorF MultiHeadAttention::forward(const TensorF& input,
                                    QuantEngine& engine) {
  // The projections open their own scopes (name.qkv / name.proj), so
  // attention coverage is attributed per-GEMM exactly like the
  // hardware workload export names it.
  DRIFT_OBS_LAYER_SCOPE(name_);
  DRIFT_CHECK(input.shape().rank() == 2, "attention expects [T, D]");
  DRIFT_CHECK(input.shape().dim(1) == dim_, "attention width mismatch");
  const std::int64_t T = input.shape().dim(0);

  const TensorF qkv = qkv_.forward(input, engine);  // [T, 3D]
  const double inv_sqrt_d = 1.0 / std::sqrt(static_cast<double>(head_dim_));

  TensorF context(Shape{T, dim_}, 0.0f);
  const float* packed = qkv.data().data();
  float* ctx = context.data().data();
  for (std::int64_t h = 0; h < heads_; ++h) {
    // Slice Q, K, V for this head out of the packed [T, 3D] matrix.
    TensorF q(Shape{T, head_dim_});
    TensorF k(Shape{T, head_dim_});
    TensorF v(Shape{T, head_dim_});
    for (std::int64_t t = 0; t < T; ++t) {
      const float* row = packed + t * 3 * dim_ + h * head_dim_;
      const std::int64_t at = t * head_dim_;
      std::copy_n(row, head_dim_, q.data().data() + at);
      std::copy_n(row + dim_, head_dim_, k.data().data() + at);
      std::copy_n(row + 2 * dim_, head_dim_, v.data().data() + at);
    }
    TensorF scores = matmul_nt(q, k);  // [T, T]
    for (float& s : scores.data()) {
      s = static_cast<float>(s * inv_sqrt_d);
    }
    const TensorF probs = softmax_rows(scores);
    const TensorF head_ctx = matmul(probs, v);  // [T, head_dim]
    for (std::int64_t t = 0; t < T; ++t) {
      std::copy_n(head_ctx.data().data() + t * head_dim_, head_dim_,
                  ctx + t * dim_ + h * head_dim_);
    }
  }
  return proj_.forward(context, engine);
}

}  // namespace drift::nn
