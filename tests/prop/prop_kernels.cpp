// Differential suite: parallel blocked kernels (src/nn) vs. naive
// scalar references (src/ref), bit-exact on the scalar and the native
// SIMD backend at 1, 2, and 8 threads.
//
// The production kernels pin their accumulation policy (double
// accumulators, k-ascending order, zero a[i,k] skipped, fixed chunk
// decomposition; kernel_dispatch.hpp invariant 3), so any backend and
// thread count must reproduce the single-thread naive result bit for
// bit — these properties are the safety net under every future kernel
// optimization.  The generators plant exact +-0 in A and use widths
// that are never a multiple of 4, so every vector strip and every
// scalar tail column runs; some cases zero a whole column of A and put
// +-inf in the matching row of B, where only the zero skip keeps the
// output finite.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "nn/conv2d.hpp"
#include "nn/gemm.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
// drift-lint: allow(intrinsic) — the suite flips the force-scalar
// override to run each property on the scalar and the native table.
#include "nn/simd/kernel_dispatch.hpp"
#include "proptest/proptest_gtest.hpp"
#include "ref/ref_kernels.hpp"
#include "util/thread_pool.hpp"

namespace drift {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};
constexpr bool kForceScalar[] = {true, false};

/// Restores the process-wide pool to its default size on scope exit so
/// a failing property cannot leak a pinned thread count into later
/// tests.
struct PoolGuard {
  ~PoolGuard() { util::ThreadPool::instance().resize(0); }
};

/// Restores the dispatch override on scope exit.
struct ForceScalarGuard {
  bool prev = nn::simd::force_scalar();
  ~ForceScalarGuard() { nn::simd::set_force_scalar(prev); }
};

TensorF gen_matrix(Rng& rng, std::int64_t rows, std::int64_t cols) {
  TensorF t(Shape{rows, cols},
            proptest::gen_laplace_buffer(rng, rows * cols, 0.5));
  return t;
}

/// gen_matrix with roughly a fifth of the entries set to exact +0.0 or
/// -0.0 (the terms the GEMM must skip).
TensorF gen_matrix_with_zeros(Rng& rng, std::int64_t rows,
                              std::int64_t cols) {
  TensorF t = gen_matrix(rng, rows, cols);
  for (auto& v : t.data()) {
    if (rng.bernoulli(0.2)) v = rng.bernoulli(0.5) ? 0.0f : -0.0f;
  }
  return t;
}

/// An output width that is never a multiple of 4 (hence never of 16),
/// occasionally past the 128-column block.
std::int64_t gen_width(Rng& rng, int size) {
  std::int64_t n = rng.bernoulli(0.1) ? rng.uniform_int(120, 140)
                                      : proptest::gen_dim(rng, size);
  if (n % 4 == 0) n += rng.uniform_int(1, 3);
  return n;
}

/// A depth, occasionally past the 256-term K block.
std::int64_t gen_depth(Rng& rng, int size) {
  return rng.bernoulli(0.1) ? rng.uniform_int(250, 270)
                            : proptest::gen_dim(rng, size);
}

float signed_inf(Rng& rng) {
  const float inf = std::numeric_limits<float>::infinity();
  return rng.bernoulli(0.5) ? inf : -inf;
}

/// With probability 1/4, zeroes column k of `a` and sets some entries
/// b(k, j) — the terms that column multiplies — to +-inf.  `b_at`
/// addresses b by (k, j) so both B layouts can share this.
template <typename BAt>
void maybe_plant_inf(Rng& rng, TensorF& a, BAt&& b_at, std::int64_t n) {
  const std::int64_t m = a.shape().dim(0);
  const std::int64_t k_dim = a.shape().dim(1);
  if (m == 0 || n == 0 || !rng.bernoulli(0.25)) return;
  const std::int64_t k = rng.uniform_int(0, k_dim - 1);
  for (std::int64_t i = 0; i < m; ++i) {
    a(i, k) = rng.bernoulli(0.5) ? 0.0f : -0.0f;
  }
  for (std::int64_t j = 0; j < n; ++j) {
    if (rng.bernoulli(0.5)) b_at(k, j) = signed_inf(rng);
  }
}

proptest::Result expect_bitwise_equal(const TensorF& got, const TensorF& want,
                                      const char* what, int threads) {
  if (got.shape().numel() != want.shape().numel()) {
    return proptest::fail(what, ": shape mismatch");
  }
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    const float g = got.at(i);
    const float w = want.at(i);
    if (std::bit_cast<std::uint32_t>(g) != std::bit_cast<std::uint32_t>(w)) {
      return proptest::fail(what, " differs from scalar reference at flat ",
                            i, " on the ", nn::simd::active().name,
                            " backend with ", threads, " thread(s): ", g,
                            " vs ", w, " (delta=", std::abs(g - w), ")");
    }
  }
  return proptest::pass();
}

/// Runs `compute()` on the scalar and the native table at every thread
/// count and compares each result bitwise with `want`.
template <typename Compute>
proptest::Result expect_all_backends(const TensorF& want, const char* what,
                                     Compute&& compute) {
  for (const bool force : kForceScalar) {
    nn::simd::set_force_scalar(force);
    for (int threads : kThreadCounts) {
      util::ThreadPool::instance().resize(threads);
      if (auto r = expect_bitwise_equal(compute(), want, what, threads)) {
        return r;
      }
    }
  }
  return proptest::pass();
}

TEST(PropKernels, MatmulBitExactVsNaiveRefAcrossThreads) {
  PoolGuard guard;
  ForceScalarGuard backend;
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    const std::int64_t m = proptest::gen_dim(rng, size);
    const std::int64_t k = gen_depth(rng, size);
    const std::int64_t n = gen_width(rng, size);
    TensorF a = gen_matrix_with_zeros(rng, m, k);
    TensorF b = gen_matrix(rng, k, n);
    maybe_plant_inf(
        rng, a, [&](std::int64_t kk, std::int64_t j) -> float& {
          return b(kk, j);
        },
        n);
    const TensorF want = ref::matmul(a, b);
    return expect_all_backends(want, "matmul",
                               [&] { return nn::matmul(a, b); });
  });
}

TEST(PropKernels, MatmulNtBitExactVsNaiveRefAcrossThreads) {
  PoolGuard guard;
  ForceScalarGuard backend;
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    const std::int64_t m = proptest::gen_dim(rng, size);
    const std::int64_t k = gen_depth(rng, size);
    const std::int64_t n = gen_width(rng, size);
    TensorF a = gen_matrix_with_zeros(rng, m, k);
    TensorF w = gen_matrix(rng, n, k);
    maybe_plant_inf(
        rng, a, [&](std::int64_t kk, std::int64_t j) -> float& {
          return w(j, kk);
        },
        n);
    const TensorF want = ref::matmul_nt(a, w);
    return expect_all_backends(want, "matmul_nt",
                               [&] { return nn::matmul_nt(a, w); });
  });
}

TEST(PropKernels, MatmulAndMatmulNtAgreeOnTransposedWeights) {
  // The two GEMM entry points share one accumulation policy, so
  // A*B == A*(B^T)^T bit for bit.
  PoolGuard guard;
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    const std::int64_t m = proptest::gen_dim(rng, size);
    const std::int64_t k = proptest::gen_dim(rng, size);
    const std::int64_t n = proptest::gen_dim(rng, size);
    const TensorF a = gen_matrix(rng, m, k);
    const TensorF b = gen_matrix(rng, k, n);
    TensorF bt(Shape{n, k});
    for (std::int64_t i = 0; i < k; ++i) {
      for (std::int64_t j = 0; j < n; ++j) bt(j, i) = b(i, j);
    }
    return expect_bitwise_equal(nn::matmul_nt(a, bt), nn::matmul(a, b),
                                "matmul_nt(A, B^T)", 0);
  });
}

TEST(PropKernels, Conv2dLoweringBitExactVsDirectRefAcrossThreads) {
  PoolGuard guard;
  ForceScalarGuard backend;
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    const std::int64_t c = proptest::gen_dim(rng, std::min(size, 4));
    const std::int64_t h = proptest::gen_dim(rng, size, 2);
    const std::int64_t w = proptest::gen_dim(rng, size, 2);
    const std::int64_t kern = rng.uniform_int(1, std::min<std::int64_t>(
                                                     std::min(h, w), 4));
    const std::int64_t stride = rng.uniform_int(1, 2);
    const std::int64_t pad = rng.uniform_int(0, kern - 1);
    // Output channels are the lowered GEMM's width.
    const std::int64_t oc = gen_width(rng, std::min(size, 4));

    TensorF input = TensorF(
        Shape{c, h, w}, proptest::gen_laplace_buffer(rng, c * h * w, 0.5));
    for (auto& v : input.data()) {
      if (rng.bernoulli(0.2)) v = rng.bernoulli(0.5) ? 0.0f : -0.0f;
    }
    TensorF weight = gen_matrix(rng, oc, c * kern * kern);
    if (rng.bernoulli(0.25)) {
      // An all-zero input channel: every lowered A entry it feeds is
      // +-0 (or padding), so its +-inf weights must never be touched.
      const std::int64_t ch = rng.uniform_int(0, c - 1);
      for (std::int64_t i = 0; i < h * w; ++i) {
        input.at(ch * h * w + i) = rng.bernoulli(0.5) ? 0.0f : -0.0f;
      }
      for (std::int64_t o = 0; o < oc; ++o) {
        for (std::int64_t t = 0; t < kern * kern; ++t) {
          if (rng.bernoulli(0.5)) {
            weight(o, ch * kern * kern + t) = signed_inf(rng);
          }
        }
      }
    }
    TensorF bias(Shape{oc});
    for (auto& v : bias.data()) v = static_cast<float>(rng.laplace(0.1));

    const TensorF want =
        ref::conv2d(input, weight, bias, kern, kern, stride, pad);
    const std::int64_t oh = (h + 2 * pad - kern) / stride + 1;
    const std::int64_t ow = (w + 2 * pad - kern) / stride + 1;
    return expect_all_backends(want, "conv2d", [&] {
      // The production path: im2col lowering, transposed GEMM, bias,
      // then the [OH*OW, OC] -> [OC, OH, OW] transpose Conv2d applies.
      const TensorF lowered = nn::im2col(input, kern, kern, stride, pad);
      TensorF out2d = nn::matmul_nt(lowered, weight);
      nn::add_bias(out2d, bias);
      TensorF got(Shape{oc, oh, ow});
      for (std::int64_t o = 0; o < oc; ++o) {
        for (std::int64_t p = 0; p < oh * ow; ++p) {
          got.at(o * oh * ow + p) = out2d(p, o);
        }
      }
      return got;
    });
  });
}

// ---------------------------------------------------------------------
// Prepared weights.  Linear and Conv2d render their weight once per
// engine config (nn::WeightSlot); a layer whose slot has seen other
// configs must forward exactly like a freshly built twin and like the
// uncached path, process_weight + matmul_nt.

/// A random engine config drawn from small value pools, so a handful
/// of draws covers all four modes, budgets, dynamic_weights and hp/lp.
nn::QuantEngine::Config gen_engine_config(Rng& rng) {
  constexpr double kBudgets[] = {0.002, 0.02, 0.2};
  nn::QuantEngine::Config cfg;
  cfg.mode = static_cast<nn::QuantMode>(rng.uniform_int(0, 3));
  cfg.noise_budget = kBudgets[rng.uniform_int(0, 2)];
  cfg.auto_threshold = rng.bernoulli(0.7);
  cfg.drift.density_threshold = rng.bernoulli(0.5) ? 1.0 : 0.5;
  cfg.dynamic_weights = rng.bernoulli(0.5);
  const core::Precision hp(rng.bernoulli(0.7) ? 8 : 6);
  const core::Precision lp(rng.bernoulli(0.7) ? 4 : 3);
  cfg.drift.hp = cfg.drq.hp = hp;
  cfg.drift.lp = cfg.drq.lp = lp;
  return cfg;
}

/// One forward pass: the output and the records its engine logged.
struct Forward {
  TensorF out;
  std::vector<nn::GemmRecord> records;
};

template <typename Layer>
Forward forward_with(Layer& layer, const TensorF& x,
                     const nn::QuantEngine::Config& cfg) {
  nn::QuantEngine engine(cfg);
  Forward f;
  f.out = layer.forward(x, engine);
  f.records = engine.records();
  return f;
}

/// Linear without its slot: both operands rendered by the engine.
Forward uncached_linear(const nn::Linear& layer, const TensorF& x,
                        const nn::QuantEngine::Config& cfg) {
  const nn::QuantEngine engine(cfg);
  const nn::OperandResult act = engine.process_activation_rows(x);
  const nn::OperandResult wgt = engine.process_weight(layer.weight());
  Forward f;
  f.out = nn::matmul_nt(act.effective, wgt.effective);
  nn::add_bias(f.out, layer.bias());
  f.records.push_back({layer.name(), x.shape().dim(0), layer.in_features(),
                       layer.out_features(), act.low_fraction,
                       wgt.low_fraction_rows});
  return f;
}

/// Conv2d without its slot: region-rendered input, im2col, matmul_nt
/// with the engine's weight rendering, bias, [OH*OW, OC] -> [OC, OH, OW].
Forward uncached_conv(const nn::Conv2d& layer, const TensorF& x,
                      const nn::QuantEngine::Config& cfg) {
  const nn::QuantEngine engine(cfg);
  const nn::OperandResult act = engine.process_activation_regions(x);
  const nn::OperandResult wgt = engine.process_weight(layer.weight());
  const std::int64_t k = layer.kernel();
  TensorF out2d = nn::matmul_nt(
      nn::im2col(act.effective, k, k, layer.stride(), layer.pad()),
      wgt.effective);
  nn::add_bias(out2d, layer.bias());
  const std::int64_t oh = layer.out_size(x.shape().dim(1));
  const std::int64_t ow = layer.out_size(x.shape().dim(2));
  const std::int64_t oc = layer.out_channels();
  Forward f;
  f.out = TensorF(Shape{oc, oh, ow});
  for (std::int64_t o = 0; o < oc; ++o) {
    for (std::int64_t p = 0; p < oh * ow; ++p) {
      f.out.at(o * oh * ow + p) = out2d(p, o);
    }
  }
  f.records.push_back({layer.name(), oh * ow, layer.in_channels() * k * k,
                       oc, act.low_fraction, wgt.low_fraction_rows});
  return f;
}

bool same_bytes(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

proptest::Result expect_same_forward(const Forward& got, const Forward& want,
                                     const char* what, int threads) {
  if (got.out.shape() != want.out.shape() ||
      std::memcmp(got.out.data().data(), want.out.data().data(),
                  got.out.data().size_bytes()) != 0) {
    return proptest::fail(what, ": output differs on the ",
                          nn::simd::active().name, " backend with ",
                          threads, " thread(s)");
  }
  if (got.records.size() != want.records.size()) {
    return proptest::fail(what, ": ", got.records.size(), " records vs ",
                          want.records.size());
  }
  for (std::size_t i = 0; i < want.records.size(); ++i) {
    const nn::GemmRecord& g = got.records[i];
    const nn::GemmRecord& w = want.records[i];
    if (g.layer != w.layer || g.m != w.m || g.k != w.k || g.n != w.n ||
        !same_bytes(g.act_low_fraction, w.act_low_fraction) ||
        !same_bytes(g.weight_low_fraction, w.weight_low_fraction)) {
      return proptest::fail(what, ": record ", i, " differs (", g.layer,
                            " low ", g.act_low_fraction, "/",
                            g.weight_low_fraction, " vs ", w.layer, " low ",
                            w.act_low_fraction, "/", w.weight_low_fraction,
                            ")");
    }
  }
  return proptest::pass();
}

TEST(PropKernels, PreparedWeightsBitExactVsFreshTwinAndUncachedPath) {
  PoolGuard guard;
  ForceScalarGuard backend;
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    const std::int64_t m = proptest::gen_dim(rng, size);
    const std::int64_t k = proptest::gen_dim(rng, size);
    const std::int64_t n = proptest::gen_dim(rng, size);
    const TensorF lin_w = gen_matrix(rng, n, k);
    TensorF lin_b(Shape{n});
    for (auto& v : lin_b.data()) v = static_cast<float>(rng.laplace(0.1));
    nn::Linear linear("lin", lin_w, lin_b);

    const std::int64_t c = proptest::gen_dim(rng, std::min(size, 3));
    const std::int64_t h = proptest::gen_dim(rng, std::min(size, 6), 2);
    const std::int64_t w = proptest::gen_dim(rng, std::min(size, 6), 2);
    const std::int64_t kern = rng.uniform_int(
        1, std::min<std::int64_t>(std::min(h, w), 3));
    const std::int64_t stride = rng.uniform_int(1, 2);
    const std::int64_t pad = rng.uniform_int(0, kern - 1);
    const std::int64_t oc = proptest::gen_dim(rng, std::min(size, 4));
    const std::int64_t conv_seed = rng.uniform_int(0, 1 << 30);
    const auto make_conv = [&] {
      Rng init(static_cast<std::uint64_t>(conv_seed));
      return nn::Conv2d("conv", c, oc, kern, stride, pad, init);
    };
    nn::Conv2d conv = make_conv();

    // A -> B -> A, then random revisits of the same three configs.
    const std::array<nn::QuantEngine::Config, 3> configs = {
        gen_engine_config(rng), gen_engine_config(rng),
        gen_engine_config(rng)};
    std::vector<std::size_t> order = {0, 1, 0};
    order.push_back(static_cast<std::size_t>(rng.uniform_int(0, 2)));
    order.push_back(static_cast<std::size_t>(rng.uniform_int(0, 2)));

    // Each step runs two forwards of the shared layers concurrently:
    // one under the step's config, one under a random config, so the
    // slot is also re-rendered while another forward holds it.
    constexpr int kConcurrent = 2;
    std::array<TensorF, kConcurrent> rows, maps;
    for (int i = 0; i < kConcurrent; ++i) {
      rows[i] = gen_matrix(rng, m, k);
      maps[i] = TensorF(Shape{c, h, w},
                        proptest::gen_laplace_buffer(rng, c * h * w, 0.5));
    }
    for (const bool force : kForceScalar) {
      nn::simd::set_force_scalar(force);
      for (int threads : kThreadCounts) {
        util::ThreadPool::instance().resize(threads);
        for (const std::size_t step : order) {
          const std::array<std::size_t, kConcurrent> which = {
              step, static_cast<std::size_t>(rng.uniform_int(0, 2))};
          std::array<Forward, kConcurrent> lin_got, conv_got;
          util::parallel_for(0, kConcurrent, 1,
                             [&](std::int64_t lo, std::int64_t hi) {
            for (std::int64_t i = lo; i < hi; ++i) {
              const auto& cfg = configs[which[i]];
              lin_got[i] = forward_with(linear, rows[i], cfg);
              conv_got[i] = forward_with(conv, maps[i], cfg);
            }
          });
          for (int i = 0; i < kConcurrent; ++i) {
            const auto& cfg = configs[which[i]];
            nn::Linear lin_twin("lin", lin_w, lin_b);
            nn::Conv2d conv_twin = make_conv();
            for (auto r : {
                     expect_same_forward(lin_got[i],
                                         forward_with(lin_twin, rows[i], cfg),
                                         "Linear vs fresh twin", threads),
                     expect_same_forward(lin_got[i],
                                         uncached_linear(linear, rows[i], cfg),
                                         "Linear vs uncached", threads),
                     expect_same_forward(conv_got[i],
                                         forward_with(conv_twin, maps[i], cfg),
                                         "Conv2d vs fresh twin", threads),
                     expect_same_forward(conv_got[i],
                                         uncached_conv(conv, maps[i], cfg),
                                         "Conv2d vs uncached", threads)}) {
              if (r) return r;
            }
          }
        }
      }
    }
    return proptest::pass();
  });
}

// ---------------------------------------------------------------------
// MaxPool2d over raw pointers vs the direct (c, oh, ow, dh, dw) loop it
// replaced, kept here.  std::max(peak, v) keeps the earlier of two
// equal values (so -0 vs +0 depends on window order) and skips NaN;
// the generator plants both.

TensorF direct_max_pool(const TensorF& x, std::int64_t kernel,
                        std::int64_t stride) {
  const std::int64_t c = x.shape().dim(0);
  const std::int64_t oh = (x.shape().dim(1) - kernel) / stride + 1;
  const std::int64_t ow = (x.shape().dim(2) - kernel) / stride + 1;
  TensorF out(Shape{c, oh, ow});
  for (std::int64_t ch = 0; ch < c; ++ch) {
    for (std::int64_t i = 0; i < oh; ++i) {
      for (std::int64_t j = 0; j < ow; ++j) {
        float peak = -std::numeric_limits<float>::infinity();
        for (std::int64_t dh = 0; dh < kernel; ++dh) {
          for (std::int64_t dw = 0; dw < kernel; ++dw) {
            peak = std::max(peak, x(ch, i * stride + dh, j * stride + dw));
          }
        }
        out(ch, i, j) = peak;
      }
    }
  }
  return out;
}

TEST(PropKernels, MaxPoolBitExactVsDirectLoop) {
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    const std::int64_t c = proptest::gen_dim(rng, std::min(size, 4));
    const std::int64_t h = proptest::gen_dim(rng, size);
    const std::int64_t w = proptest::gen_dim(rng, size);
    const std::int64_t kernel = rng.uniform_int(
        1, std::min<std::int64_t>(std::min(h, w), 4));
    const std::int64_t stride = rng.uniform_int(1, 3);
    TensorF x(Shape{c, h, w},
              proptest::gen_laplace_buffer(rng, c * h * w, 0.5));
    for (auto& v : x.data()) {
      if (rng.bernoulli(0.15)) v = rng.bernoulli(0.5) ? 0.0f : -0.0f;
      if (rng.bernoulli(0.05)) v = std::numeric_limits<float>::quiet_NaN();
      if (rng.bernoulli(0.02)) v = signed_inf(rng);
    }
    nn::MaxPool2d pool("pool", kernel, stride);
    nn::QuantEngine engine(nn::QuantEngine::Config{});
    return expect_bitwise_equal(pool.forward(x, engine),
                                direct_max_pool(x, kernel, stride),
                                "MaxPool2d", 1);
  });
}

}  // namespace
}  // namespace drift
