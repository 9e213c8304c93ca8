// Differential suite: quantization primitives (Equation 1 and the
// Section 3.1 hi->lo conversion) vs. exact-integer references, the
// accuracy-path renderer vs. its per-element oracle on the scalar and
// the native backend, plus the integer-domain GEMM path (quantize_rows
// / dequantize_operand / int_gemm_nt) vs. naive scalar recomputation at
// 1, 2, and 8 threads.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/quantizer.hpp"
#include "core/render.hpp"
#include "nn/int_gemm.hpp"
// drift-lint: allow(intrinsic) — the renderer property flips the
// force-scalar override to run on the scalar and the native table.
#include "nn/simd/kernel_dispatch.hpp"
#include "proptest/proptest_gtest.hpp"
#include "ref/ref_kernels.hpp"
#include "ref/ref_quant.hpp"
#include "ref/ref_render.hpp"
#include "util/thread_pool.hpp"

namespace drift {
namespace {

struct PoolGuard {
  ~PoolGuard() { util::ThreadPool::instance().resize(0); }
};

/// Restores the dispatch override on scope exit.
struct ForceScalarGuard {
  bool prev = nn::simd::force_scalar();
  ~ForceScalarGuard() { nn::simd::set_force_scalar(prev); }
};

TEST(PropQuantizer, QuantizeValueMatchesIntegerRoundingRef) {
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    const core::QuantParams p =
        proptest::gen_quant_params(rng, core::kInt8);
    for (int i = 0; i < 32 * size; ++i) {
      float x;
      if (rng.bernoulli(0.3)) {
        // Boundary ammunition: exact multiples and half-multiples of Δ
        // probe the round-half-away-from-zero tie behavior.
        const double mult = static_cast<double>(rng.uniform_int(-260, 260));
        x = static_cast<float>((mult / 2.0) * p.delta);
      } else {
        x = static_cast<float>(rng.laplace(20.0 * p.delta));
      }
      const std::int32_t got = core::quantize_value(x, p);
      const std::int32_t want =
          ref::quantize_value(x, p.delta, p.bits.max_level());
      if (got != want) {
        return proptest::fail("quantize_value(", x, ", delta=", p.delta,
                              ") = ", got, ", integer-rounding ref says ",
                              want);
      }
      const float deq = core::dequantize_value(got, p);
      const float deq_ref =
          static_cast<float>(static_cast<double>(want) * p.delta);
      if (deq != deq_ref) {
        return proptest::fail("dequantize_value(", got, ") = ", deq,
                              " vs ref ", deq_ref);
      }
    }
    return proptest::pass();
  });
}

TEST(PropQuantizer, ConvertToLowMatchesShiftRoundSaturateRef) {
  // Exhaustive over the full INT8 code space for every (hc, lc) choice
  // of a random lp — the hardware datapath has no other inputs.
  proptest::gtest_check([](Rng& rng, int) -> proptest::Result {
    const core::Precision lp(static_cast<int>(rng.uniform_int(2, 6)));
    const core::QuantParams p =
        proptest::gen_quant_params(rng, core::kInt8);
    for (const core::ConversionChoice& choice :
         core::enumerate_choices(core::kInt8, lp)) {
      for (std::int32_t q = -127; q <= 127; ++q) {
        const std::int32_t got = core::convert_to_low(q, lp, choice);
        const std::int32_t want =
            ref::convert_to_low(q, lp.max_level(), choice.lc);
        if (got != want) {
          return proptest::fail("convert_to_low(", q, ", lp=", lp.bits(),
                                ", hc=", choice.hc, ", lc=", choice.lc,
                                ") = ", got, ", shift-round-saturate ref ",
                                want);
        }
        const float deq = core::dequantize_low(got, p, choice);
        const float deq_ref = static_cast<float>(
            ref::dequantize_low(want, p.delta, choice.lc));
        if (deq != deq_ref) {
          return proptest::fail("dequantize_low mismatch at q=", q, ": ",
                                deq, " vs ", deq_ref);
        }
      }
    }
    return proptest::pass();
  });
}

TEST(PropQuantizer, RoundTripErrorBoundedByHalfStep) {
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    const std::int64_t n = 8 * proptest::gen_dim(rng, size);
    const auto values = proptest::gen_laplace_buffer(rng, n, 0.3);
    const core::QuantParams p =
        core::compute_quant_params(values, core::kInt8);
    for (float x : values) {
      const float rt =
          core::dequantize_value(core::quantize_value(x, p), p);
      // Half-step bound plus a whisker for the float cast.
      if (std::abs(rt - x) > 0.5 * p.delta * (1.0 + 1e-6) + 1e-30) {
        return proptest::fail("round-trip error ", std::abs(rt - x),
                              " exceeds half step ", 0.5 * p.delta,
                              " at x=", x);
      }
    }
    return proptest::pass();
  });
}

/// A dimension that is not a multiple of `edge` (so edge regions are
/// partial).
std::int64_t gen_ragged_dim(Rng& rng, int size, std::int64_t edge) {
  const std::int64_t d = proptest::gen_dim(rng, size);
  return d % edge == 0 ? d + rng.uniform_int(1, edge - 1) : d;
}

/// Sub-tensor views of one random granularity over a tensor of `numel`
/// elements (returned through `numel`).
std::vector<SubTensorView> gen_views(Rng& rng, int size,
                                     std::int64_t& numel) {
  switch (rng.uniform_int(0, 2)) {
    case 0: {
      const std::int64_t rows = proptest::gen_dim(rng, size);
      const std::int64_t cols = proptest::gen_dim(rng, 4 * size);
      numel = rows * cols;
      return partition_rows(Shape{rows, cols});
    }
    case 1: {
      const std::int64_t region = rng.uniform_int(2, 4);
      const std::int64_t c = proptest::gen_dim(rng, std::min(size, 4));
      const std::int64_t h = gen_ragged_dim(rng, size, region);
      const std::int64_t w = gen_ragged_dim(rng, size, region);
      numel = c * h * w;
      return partition_regions(Shape{c, h, w}, region);
    }
    default: {
      // Occasionally past one 4096-element chunk of the hp pass.
      numel = rng.bernoulli(0.15) ? rng.uniform_int(4000, 9000)
                                  : proptest::gen_dim(rng, 16 * size);
      return partition_blocks(numel, rng.uniform_int(1, 2 * size + 3));
    }
  }
}

/// +-m * 2^-149 for m in [1, 2^bits): a float subnormal.
float gen_subnormal(Rng& rng, int bits) {
  const auto m = static_cast<float>(
      rng.uniform_int(1, (std::int64_t{1} << bits) - 1));
  return std::ldexp(rng.bernoulli(0.5) ? m : -m, -149);
}

TEST(PropQuantizer, RenderMatchesPerElementOracleAcrossBackendsAndThreads) {
  PoolGuard guard;
  ForceScalarGuard backend;
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    std::int64_t numel = 0;
    const std::vector<SubTensorView> views = gen_views(rng, size, numel);
    const core::Precision hp(static_cast<int>(rng.uniform_int(4, 12)));
    const core::Precision lp(
        static_cast<int>(rng.uniform_int(2, hp.bits())));
    const int clip_total = hp.bits() - lp.bits();

    // Either Eq. 1 calibration on the data, or a power-of-two Δ that
    // makes planted half-step quotients exact and lets outliers clamp.
    // A wholly subnormal tensor pairs with a Δ below the float spacing
    // 2^-149: its values clamp at ±hp_limit, and the hp rendering of
    // that code lands on the coarse subnormal grid (often a signed
    // zero), so the low pass sees other codes than the original values
    // would give.
    const bool subnormal_tensor = rng.bernoulli(0.15);
    const bool calibrated = rng.bernoulli(0.5);
    const double pow2_delta = std::ldexp(
        1.0, static_cast<int>(subnormal_tensor || rng.bernoulli(0.05)
                                  ? rng.uniform_int(-165, -145)
                                  : rng.uniform_int(-30, 2)));
    const auto hp_limit = hp.max_level();
    std::vector<float> values;
    if (subnormal_tensor) {
      values.resize(static_cast<std::size_t>(numel));
      for (auto& v : values) v = gen_subnormal(rng, 10);
    } else {
      values = proptest::gen_laplace_buffer(rng, numel, 40.0 * pow2_delta);
      for (auto& v : values) {
        const double u = rng.uniform();
        if (u < 0.05) {
          v = 0.0f;
        } else if (u < 0.10) {
          v = -0.0f;
        } else if (u < 0.15) {
          v = gen_subnormal(rng, 23);
        } else if (u < 0.25) {
          const auto m = static_cast<double>(
              rng.uniform_int(-hp_limit - 2, hp_limit + 1));
          v = static_cast<float>((m + 0.5) * pow2_delta);
        } else if (u < 0.28) {
          const double mag = static_cast<double>(hp_limit) *
                             rng.uniform(1.0, 64.0) * pow2_delta;
          v = static_cast<float>(rng.bernoulli(0.5) ? mag : -mag);
        }
      }
    }
    core::QuantParams params;
    if (calibrated) {
      params = core::compute_quant_params(values, hp);
    } else {
      params.bits = hp;
      params.delta = pow2_delta;
    }

    std::vector<core::PrecisionDecision> decisions;
    std::vector<std::int64_t> sizes;
    for (const auto& view : views) {
      const int lc = static_cast<int>(rng.uniform_int(0, clip_total));
      decisions.push_back(core::PrecisionDecision{
          rng.bernoulli(0.6), core::ConversionChoice{clip_total - lc, lc}});
      sizes.push_back(view.size());
    }
    const core::PrecisionMap map(std::move(decisions), std::move(sizes),
                                 core::SelectorConfig{hp, lp, 1.0});
    const core::PrecisionMap all_high({}, {},
                                      core::SelectorConfig{hp, lp, 1.0});
    const std::vector<float> want =
        ref::render_per_element(values, views, params, map, lp);
    const std::vector<float> want_hp =
        ref::render_per_element(values, {}, params, all_high, lp);

    auto compare = [&](const std::vector<float>& got,
                       const std::vector<float>& expected, const char* what,
                       int threads) -> proptest::Result {
      if (got.size() == expected.size() &&
          std::memcmp(got.data(), expected.data(),
                      got.size() * sizeof(float)) == 0) {
        return proptest::pass();
      }
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (std::memcmp(&got[i], &expected[i], sizeof(float)) != 0) {
          return proptest::fail(what, " differs from the per-element "
                                "oracle at flat ", i, " (x=", values[i],
                                ", delta=", params.delta, ", hp=",
                                hp.bits(), ", lp=", lp.bits(), ") on the ",
                                nn::simd::active().name, " backend with ",
                                threads, " thread(s): ", got[i], " vs ",
                                expected[i]);
        }
      }
      return proptest::fail(what, " size ", got.size(), " vs oracle ",
                            expected.size());
    };
    for (const bool force : {true, false}) {
      nn::simd::set_force_scalar(force);
      for (int threads : {1, 2, 8}) {
        util::ThreadPool::instance().resize(threads);
        if (auto r = compare(core::render(values, views, params, map, lp),
                             want, "render", threads)) {
          return r;
        }
        if (auto r = compare(core::render_hp(values, params), want_hp,
                             "render_hp", threads)) {
          return r;
        }
      }
    }
    return proptest::pass();
  });
}

TEST(PropQuantizer, QuantizeRowsPipelineMatchesScalarRefAcrossThreads) {
  PoolGuard guard;
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    const std::int64_t rows = proptest::gen_dim(rng, size);
    const std::int64_t cols = 4 * proptest::gen_dim(rng, size);
    TensorF x(Shape{rows, cols},
              proptest::gen_laplace_buffer(rng, rows * cols, 0.4));
    const core::SelectorConfig cfg = proptest::gen_selector_config(rng);
    const double budget = rng.uniform(0.01, 0.2);

    util::ThreadPool::instance().resize(1);
    const nn::QuantizedOperand base = nn::quantize_rows(x, cfg, budget);
    for (int threads : {2, 8}) {
      util::ThreadPool::instance().resize(threads);
      const nn::QuantizedOperand op = nn::quantize_rows(x, cfg, budget);
      for (std::int64_t i = 0; i < op.codes.numel(); ++i) {
        if (op.codes.at(i) != base.codes.at(i)) {
          return proptest::fail("quantize_rows codes diverge at flat ", i,
                                " with ", threads, " thread(s)");
        }
      }
      for (std::int64_t r = 0; r < rows; ++r) {
        const auto& d = op.rows[static_cast<std::size_t>(r)];
        const auto& bd = base.rows[static_cast<std::size_t>(r)];
        if (d.use_low != bd.use_low || d.choice.hc != bd.choice.hc ||
            d.choice.lc != bd.choice.lc) {
          return proptest::fail("quantize_rows decision diverges at row ",
                                r, " with ", threads, " thread(s)");
        }
      }
    }

    // dequantize_operand must apply exactly row_scale per element.
    util::ThreadPool::instance().resize(
        static_cast<int>(rng.uniform_int(1, 8)));
    const TensorF deq = nn::dequantize_operand(base);
    for (std::int64_t r = 0; r < rows; ++r) {
      const double scale = base.row_scale(r);
      for (std::int64_t c = 0; c < cols; ++c) {
        const float want = static_cast<float>(base.codes(r, c) * scale);
        if (deq(r, c) != want) {
          return proptest::fail("dequantize_operand(", r, ",", c, ") = ",
                                deq(r, c), " vs scalar ", want);
        }
      }
    }
    return proptest::pass();
  });
}

TEST(PropQuantizer, IntGemmBitExactVsScalarRefAcrossThreads) {
  PoolGuard guard;
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    const std::int64_t m = proptest::gen_dim(rng, size);
    const std::int64_t k = 2 * proptest::gen_dim(rng, size);
    const std::int64_t n = proptest::gen_dim(rng, size);
    TensorF a(Shape{m, k}, proptest::gen_laplace_buffer(rng, m * k, 0.4));
    TensorF w(Shape{n, k}, proptest::gen_laplace_buffer(rng, n * k, 0.2));
    const core::SelectorConfig cfg = proptest::gen_selector_config(rng);

    util::ThreadPool::instance().resize(1);
    const nn::QuantizedOperand act = nn::quantize_rows(a, cfg, 0.05);
    const nn::QuantizedOperand wgt = nn::quantize_rows(w, cfg, 0.05);
    std::vector<double> act_scale(static_cast<std::size_t>(m));
    std::vector<double> wgt_scale(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < m; ++i) {
      act_scale[static_cast<std::size_t>(i)] = act.row_scale(i);
    }
    for (std::int64_t j = 0; j < n; ++j) {
      wgt_scale[static_cast<std::size_t>(j)] = wgt.row_scale(j);
    }
    const TensorF want =
        ref::int_gemm_nt(act.codes, wgt.codes, act_scale, wgt_scale);
    for (int threads : {1, 2, 8}) {
      util::ThreadPool::instance().resize(threads);
      const TensorF got = nn::int_gemm_nt(act, wgt);
      for (std::int64_t i = 0; i < got.numel(); ++i) {
        if (got.at(i) != want.at(i)) {
          return proptest::fail("int_gemm_nt differs from scalar ref at ",
                                i, " with ", threads, " thread(s): ",
                                got.at(i), " vs ", want.at(i));
        }
      }
    }
    return proptest::pass();
  });
}

}  // namespace
}  // namespace drift
