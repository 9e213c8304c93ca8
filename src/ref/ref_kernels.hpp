// Naive scalar reference kernels for differential testing.
//
// The float kernels here are deliberately simple re-implementations of
// production kernels in src/nn, written without blocking, threading, or
// layout tricks, so the two can be compared *bit-exactly*: the
// production GEMMs fix their accumulation policy (double accumulator,
// k-ascending order, a[i,k] == 0 terms skipped) independent of
// blocking, thread count and SIMD backend, and these references follow
// the same policy in the plainest possible loop nest.  Any divergence
// is a bug in one of the two.  The skip is visible only when the other
// operand holds an inf or NaN (0 * inf is NaN); with finite operands
// adding a +-0 product never changes a sum that starts at +0.
// int_gemm_nt has no src/nn twin: it is the model of what the integer
// array computes, the one core::render's rendering is pinned against
// (tests/test_int_gemm.cpp).
//
// Nothing in src/ links against this library; it exists for tests/
// and bench/ only.
#pragma once

#include <cstdint>
#include <vector>

// drift-lint: allow(oracle-include) — container-only include: Tensor
// is dumb row-major storage; the kernels differentiated against it
// (src/nn) never flow through this header.
#include "tensor/tensor.hpp"

namespace drift::ref {

/// C[M,N] = A[M,K] * B[K,N].  Double accumulation, k ascending, zero
/// a[i,k] skipped.
TensorF matmul(const TensorF& a, const TensorF& b);

/// C[M,N] = A[M,K] * W[N,K]^T (output-major weights).
TensorF matmul_nt(const TensorF& a, const TensorF& w);

/// Direct (no im2col) convolution of input [C, H, W] with im2col-ready
/// weights [OC, C*kh*kw] and bias [OC], producing [OC, OH, OW].  The
/// inner reduction runs in the exact k-order of the lowered GEMM, so
/// the result is bit-identical to im2col + matmul_nt + add_bias +
/// transpose (padding taps and zero inputs skipped, as the lowered
/// GEMM skips its zero A entries).
TensorF conv2d(const TensorF& input, const TensorF& weight,
               const TensorF& bias, std::int64_t kh, std::int64_t kw,
               std::int64_t stride, std::int64_t pad);

/// Integer GEMM with per-row rescaling: out[i,j] =
/// float(double(sum_k act[i,k]*wgt[j,k]) * act_scale[i] * wgt_scale[j]),
/// what the BitGroup array computes: integer MACs over hp or lc-shifted
/// lp codes, then one psum-exit multiply per output.
TensorF int_gemm_nt(const TensorI32& act_codes, const TensorI32& wgt_codes,
                    const std::vector<double>& act_row_scale,
                    const std::vector<double>& wgt_row_scale);

}  // namespace drift::ref
