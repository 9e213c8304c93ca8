// Dense float GEMM used by the functional (accuracy) simulation path.
//
// The hardware benches never execute this — they consume GEMM *shapes*
// through the analytical/cycle models — so a cache-blocked
// implementation is all the accuracy proxies need.  Both kernels are
// parallelized over output rows on the global thread pool
// (util/thread_pool.hpp) with fixed chunk boundaries, and each block
// runs the dispatched gemm_f32_block (nn/simd/kernel_dispatch.hpp,
// invariant 3: one k-ascending double sum per output, zero a[i,k]
// skipped, no FMA), so results are bit-identical at any thread count,
// on every SIMD backend and across the matmul / matmul_nt call paths.
#pragma once

#include "tensor/tensor.hpp"

namespace drift::nn {

/// C[M,N] = A[M,K] * B[K,N].
TensorF matmul(const TensorF& a, const TensorF& b);

/// C[M,N] = A[M,K] * W[N,K]^T (output-major weights, PyTorch layout);
/// exactly matmul(a, transpose(w)).
TensorF matmul_nt(const TensorF& a, const TensorF& w);

/// W^T: an [N, K] matrix as [K, N].  The weight-bearing layers store
/// their rendered weights in this layout once per engine config, so a
/// forward pass runs matmul directly.
TensorF transpose(const TensorF& w);

/// C += bias (bias broadcast over rows).  C is [M,N], bias is [N].
void add_bias(TensorF& c, const TensorF& bias);

}  // namespace drift::nn
