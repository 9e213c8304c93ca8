#include "nn/gemm.hpp"

#include <algorithm>
#include <memory>

// drift-lint: allow(intrinsic) — the fp32 GEMM's inner block is the
// table's gemm_f32_block; only the dispatch entry point is used here.
#include "nn/simd/kernel_dispatch.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace drift::nn {

namespace {

// Cache-blocking parameters.  kMc is also the parallel grain: output
// rows are handed to the pool in fixed chunks of kMc, so the chunk
// decomposition — and therefore every accumulation order — is
// independent of the thread count.  Each chunk writes only its own
// rows of C; no atomics, no sharing.
constexpr std::int64_t kMc = 32;   ///< row chunk (parallel grain)
constexpr std::int64_t kKc = 256;  ///< K block kept hot in L1/L2
constexpr std::int64_t kNc = 128;  ///< column block of C accumulated in registers/L1

}  // namespace

TensorF matmul(const TensorF& a, const TensorF& b) {
  DRIFT_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2,
              "matmul needs rank-2 operands");
  const std::int64_t M = a.shape().dim(0);
  const std::int64_t K = a.shape().dim(1);
  DRIFT_CHECK(b.shape().dim(0) == K, "inner dimension mismatch");
  const std::int64_t N = b.shape().dim(1);

  TensorF c(Shape{M, N});
  auto ad = a.data();
  auto bd = b.data();
  auto cd = c.data();
  const simd::KernelTable& kt = simd::active();
  const std::int64_t tile_w = std::min(kNc, N);
  util::parallel_for(0, M, kMc, [&](std::int64_t i0, std::int64_t i1) {
    // Per-chunk double accumulator tile, (i1 - i0) x min(kNc, N).  The
    // block kernel adds each output's terms in k-ascending order
    // (kernel_dispatch.hpp invariant 3), matching matmul_nt's policy
    // regardless of blocking, threading or backend.
    const std::int64_t rows = i1 - i0;
    const auto acc = std::make_unique_for_overwrite<double[]>(
        static_cast<std::size_t>(rows * tile_w));
    for (std::int64_t jc = 0; jc < N; jc += kNc) {
      const std::int64_t jw = std::min(jc + kNc, N) - jc;
      std::fill_n(acc.get(), rows * jw, 0.0);
      for (std::int64_t kc = 0; kc < K; kc += kKc) {
        const std::int64_t kw = std::min(kc + kKc, K) - kc;
        kt.gemm_f32_block(ad.data() + i0 * K + kc, K,
                          bd.data() + kc * N + jc, N, rows, kw, jw,
                          acc.get(), jw);
      }
      for (std::int64_t i = 0; i < rows; ++i) {
        const double* acc_row = acc.get() + i * jw;
        float* crow = cd.data() + (i0 + i) * N + jc;
        for (std::int64_t j = 0; j < jw; ++j) {
          crow[j] = static_cast<float>(acc_row[j]);
        }
      }
    }
  });
  return c;
}

TensorF matmul_nt(const TensorF& a, const TensorF& w) {
  DRIFT_CHECK(a.shape().rank() == 2 && w.shape().rank() == 2,
              "matmul_nt needs rank-2 operands");
  DRIFT_CHECK(w.shape().dim(1) == a.shape().dim(1),
              "inner dimension mismatch");
  // Transpose w and run the shared blocked kernel.  The previous
  // one-chain-per-output loop ran at less than half of matmul's
  // throughput: with w row-major every inner step walks N strided
  // weight streams, where matmul streams its operand row-contiguously
  // with L1 reuse across the row chunk.  One O(N*K) transpose is noise
  // next to the O(M*N*K) multiply, and the two entry points share a
  // single accumulation policy, so matmul_nt(A, W) == matmul(A, W^T)
  // bit for bit (the property suite pins exactly this identity).
  return matmul(a, transpose(w));
}

TensorF transpose(const TensorF& w) {
  DRIFT_CHECK(w.shape().rank() == 2, "transpose needs a rank-2 tensor");
  const std::int64_t N = w.shape().dim(0);
  const std::int64_t K = w.shape().dim(1);
  constexpr std::int64_t kTile = 32;
  TensorF wt(Shape{K, N});
  const float* wd = w.data().data();
  float* td = wt.data().data();
  for (std::int64_t jt = 0; jt < N; jt += kTile) {
    const std::int64_t jend = std::min(jt + kTile, N);
    for (std::int64_t kt = 0; kt < K; kt += kTile) {
      const std::int64_t kend = std::min(kt + kTile, K);
      for (std::int64_t j = jt; j < jend; ++j) {
        for (std::int64_t k = kt; k < kend; ++k) {
          td[k * N + j] = wd[j * K + k];
        }
      }
    }
  }
  return wt;
}

void add_bias(TensorF& c, const TensorF& bias) {
  DRIFT_CHECK(c.shape().rank() == 2, "add_bias needs a rank-2 tensor");
  DRIFT_CHECK(bias.shape().rank() == 1 &&
                  bias.shape().dim(0) == c.shape().dim(1),
              "bias width mismatch");
  const std::int64_t M = c.shape().dim(0);
  const std::int64_t N = c.shape().dim(1);
  auto cd = c.data();
  auto bd = bias.data();
  util::parallel_for(0, M, kMc, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      float* crow = cd.data() + static_cast<std::size_t>(i * N);
      for (std::int64_t j = 0; j < N; ++j) {
        crow[j] += bd[static_cast<std::size_t>(j)];
      }
    }
  });
}

}  // namespace drift::nn
