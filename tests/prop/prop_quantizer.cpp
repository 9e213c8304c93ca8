// Differential suite: quantization primitives (Equation 1 and the
// Section 3.1 hi->lo conversion) vs. exact-integer references, the
// dispatched row kernel vs. those primitives, the accuracy-path
// renderer vs. its per-element oracle, and the engine's DRQ and Drift
// selection vs. per-algorithm reference loops, each on the scalar and
// the native backend (the renderer and the engine also at several
// thread counts).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/quantizer.hpp"
#include "core/render.hpp"
#include "nn/quant_engine.hpp"
// drift-lint: allow(intrinsic) — the row-kernel, renderer and engine
// properties flip the force-scalar override to run on the scalar and
// the native table.
#include "nn/simd/kernel_dispatch.hpp"
#include "proptest/proptest_gtest.hpp"
#include "ref/ref_mix.hpp"
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
         proptest::enumerate_choices(core::kInt8, lp)) {
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

TEST(PropQuantizer, RowKernelMatchesQuantizerAcrossBackends) {
  // core::render feeds the row kernel's low pass only its own hp
  // rendering; here the kernel sees raw, off-grid floats.  Every
  // backend must return core::quantize_value, then core::convert_to_low
  // when the row is low, element by element, for every lp < hp and
  // every lc.  Ragged lengths reach the vector backends' scalar tail.
  ForceScalarGuard backend;
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    const std::int64_t n = gen_ragged_dim(rng, 4 * size, 4);
    const core::Precision hp(static_cast<int>(rng.uniform_int(3, 16)));
    // A power-of-two Δ makes the planted half-multiples exact ties.
    core::QuantParams p = proptest::gen_quant_params(rng, hp);
    if (rng.bernoulli(0.5)) {
      p.delta = std::ldexp(1.0, static_cast<int>(rng.uniform_int(-20, 2)));
    }
    const std::int64_t hp_limit = hp.max_level();
    std::vector<float> x(static_cast<std::size_t>(n));
    for (auto& v : x) {
      const double u = rng.uniform();
      if (u < 0.3) {
        const auto m = static_cast<double>(
            rng.uniform_int(-2 * hp_limit - 3, 2 * hp_limit + 3));
        v = static_cast<float>((m / 2.0) * p.delta);
      } else if (u < 0.4) {
        const double mag = static_cast<double>(hp_limit) *
                           rng.uniform(1.0, 64.0) * p.delta;
        v = static_cast<float>(rng.bernoulli(0.5) ? mag : -mag);
      } else {
        v = static_cast<float>(
            rng.laplace(0.25 * static_cast<double>(hp_limit) * p.delta));
      }
    }
    std::vector<std::int32_t> want_hp(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      want_hp[i] = core::quantize_value(x[i], p);
    }

    std::vector<std::int32_t> got(x.size());
    for (int lp_bits = 2; lp_bits < hp.bits(); ++lp_bits) {
      const core::Precision lp(lp_bits);
      for (const core::ConversionChoice& choice :
           proptest::enumerate_choices(hp, lp)) {
        for (const bool use_low : {false, true}) {
          for (const bool force : {true, false}) {
            nn::simd::set_force_scalar(force);
            const nn::simd::KernelTable& kt = nn::simd::active();
            kt.quantize_convert_row(x.data(), n, p.delta, hp_limit, use_low,
                                    choice.lc, lp.max_level(), got.data());
            for (std::size_t i = 0; i < x.size(); ++i) {
              const std::int32_t want =
                  use_low ? core::convert_to_low(want_hp[i], lp, choice)
                          : want_hp[i];
              if (got[i] != want) {
                return proptest::fail(
                    "quantize_convert_row (", kt.name, ") at ", i, " of ",
                    n, " (x=", x[i], ", delta=", p.delta, ", hp=",
                    hp.bits(), ", lp=", lp.bits(), ", lc=", choice.lc,
                    ", use_low=", use_low, ") = ", got[i],
                    ", quantizer says ", want);
              }
            }
          }
        }
      }
    }
    return proptest::pass();
  });
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

// The engine's one selection path (statistics once -> low bits ->
// decisions -> PrecisionMap -> core::render) against the per-algorithm
// loops it replaced, kept here as references: the Drift quantizer's
// fixed-δ loop, the DRQ quantizer's region test, and, under a noise
// budget, the src/ref oracle's decisions.

/// Drift at a fixed δ: Equations 5-6 on every view's statistics.
core::PrecisionMap drift_fixed_reference(
    std::span<const float> values, const std::vector<SubTensorView>& views,
    const core::QuantParams& params, const core::SelectorConfig& cfg) {
  std::vector<core::PrecisionDecision> decisions;
  std::vector<std::int64_t> sizes;
  for (const auto& view : views) {
    decisions.push_back(core::select_precision(
        core::compute_stats(view, values), params, cfg));
    sizes.push_back(view.size());
  }
  return core::PrecisionMap(std::move(decisions), std::move(sizes), cfg);
}

/// Drift under a noise budget: the oracle's decisions, (hc, lc) and all.
core::PrecisionMap drift_budget_reference(
    std::span<const float> values, const std::vector<SubTensorView>& views,
    const core::QuantParams& params, const core::SelectorConfig& cfg,
    double budget) {
  std::vector<core::SubTensorStats> stats;
  std::vector<std::int64_t> sizes;
  for (const auto& view : views) {
    stats.push_back(core::compute_stats(view, values));
    sizes.push_back(view.size());
  }
  ref::AutoThreshold sel =
      ref::select_auto_threshold(stats, sizes, params, cfg, budget);
  return core::PrecisionMap(std::move(sel.decisions), std::move(sizes), cfg);
}

/// DRQ: a region is sensitive when its mean |Y| reaches sensitivity
/// times the tensor's mean |X|; the others truncate to lp.
core::PrecisionMap drq_reference(std::span<const float> values,
                                 const std::vector<SubTensorView>& views,
                                 const core::DrqConfig& drq) {
  double sum_abs = 0.0;
  for (float v : values) sum_abs += std::abs(static_cast<double>(v));
  const double tensor_mean_abs =
      values.empty() ? 0.0 : sum_abs / static_cast<double>(values.size());
  const core::ConversionChoice truncate{0, drq.hp.bits() - drq.lp.bits()};
  std::vector<core::PrecisionDecision> decisions;
  std::vector<std::int64_t> sizes;
  for (const auto& view : views) {
    const bool sensitive = core::compute_stats(view, values).mean_abs >=
                           drq.sensitivity * tensor_mean_abs;
    decisions.push_back(core::PrecisionDecision{!sensitive, truncate});
    sizes.push_back(view.size());
  }
  return core::PrecisionMap(std::move(decisions), std::move(sizes),
                            core::SelectorConfig{drq.hp, drq.lp, 0.0});
}

TEST(PropQuantizer, EngineSelectionMatchesPerAlgorithmReferences) {
  PoolGuard pool;
  ForceScalarGuard backend;
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    // Row views of [M, K], or region views of [C, H, W] whose H and W
    // are not multiples of the region edge.
    const bool regions = rng.bernoulli(0.5);
    const std::int64_t edge = nn::QuantEngine::kRegion;
    const auto ragged = [&] {
      return edge * rng.uniform_int(0, 3) + rng.uniform_int(1, edge - 1);
    };
    const Shape shape =
        regions ? Shape{rng.uniform_int(1, 3), ragged(), ragged()}
                : Shape{proptest::gen_dim(rng, size),
                        proptest::gen_dim(rng, size)};
    // Every innermost run gets its own scale (some zero), so sub-tensors
    // land on both sides of each algorithm's test.
    TensorF x(shape, proptest::gen_laplace_buffer(rng, shape.numel(), 1.0));
    const std::int64_t run = shape.dim(shape.rank() - 1);
    for (std::int64_t off = 0; off < shape.numel(); off += run) {
      const double scale =
          rng.bernoulli(0.1) ? 0.0 : std::exp(rng.normal(0.0, 1.5));
      for (std::int64_t i = 0; i < run; ++i) {
        x.data()[static_cast<std::size_t>(off + i)] *=
            static_cast<float>(scale);
      }
    }
    const std::span<const float> values = x.data();
    const auto views = regions ? partition_regions(shape, edge)
                               : partition_rows(shape);

    nn::QuantEngine::Config cfg;
    const double kind = rng.uniform();
    if (kind < 1.0 / 3.0) {
      cfg.mode = nn::QuantMode::kDrq;
      cfg.drq.lp = core::Precision(static_cast<int>(rng.uniform_int(3, 5)));
      cfg.drq.sensitivity =
          std::exp(rng.uniform(std::log(0.25), std::log(4.0)));
    } else {
      cfg.mode = nn::QuantMode::kDrift;
      cfg.drift = proptest::gen_selector_config(rng);
      cfg.auto_threshold = kind >= 2.0 / 3.0;
      cfg.noise_budget = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 0.3);
    }
    const bool drq = cfg.mode == nn::QuantMode::kDrq;
    const core::Precision hp = drq ? cfg.drq.hp : cfg.drift.hp;
    const core::Precision lp = drq ? cfg.drq.lp : cfg.drift.lp;
    const core::QuantParams params = core::compute_quant_params(values, hp);
    const core::PrecisionMap want =
        drq ? drq_reference(values, views, cfg.drq)
        : cfg.auto_threshold
            ? drift_budget_reference(values, views, params, cfg.drift,
                                     cfg.noise_budget)
            : drift_fixed_reference(values, views, params, cfg.drift);
    const std::vector<float> want_render =
        ref::render_per_element(values, views, params, want, lp);

    const nn::QuantEngine engine(cfg);
    for (const bool force : {true, false}) {
      nn::simd::set_force_scalar(force);
      for (int threads : {1, 8}) {
        util::ThreadPool::instance().resize(threads);
        const core::PrecisionMap got = engine.select(values, views, params);
        if (got.num_subtensors() != want.num_subtensors()) {
          return proptest::fail(nn::to_string(cfg.mode), " map of ",
                                got.num_subtensors(), " views; the "
                                "reference has ", want.num_subtensors());
        }
        for (std::size_t i = 0; i < want.num_subtensors(); ++i) {
          const core::PrecisionDecision& g = got.decision(i);
          const core::PrecisionDecision& w = want.decision(i);
          if (g.use_low != w.use_low || g.choice.hc != w.choice.hc ||
              g.choice.lc != w.choice.lc) {
            return proptest::fail(
                nn::to_string(cfg.mode), " view ", i, " of ",
                want.num_subtensors(), " on the ", nn::simd::active().name,
                " backend with ", threads, " thread(s): use_low ", g.use_low,
                " vs ", w.use_low, ", (hc, lc) (", g.choice.hc, ", ",
                g.choice.lc, ") vs (", w.choice.hc, ", ", w.choice.lc, ")");
          }
        }
        const nn::OperandResult r = regions
                                        ? engine.process_activation_regions(x)
                                        : engine.process_activation_rows(x);
        const auto got_render = r.effective.data();
        if (got_render.size() != want_render.size() ||
            std::memcmp(got_render.data(), want_render.data(),
                        want_render.size() * sizeof(float)) != 0) {
          return proptest::fail(nn::to_string(cfg.mode), " rendering of ",
                                shape.numel(), " elements (rank ",
                                shape.rank(), ") differs from the "
                                "reference's on the ",
                                nn::simd::active().name, " backend with ",
                                threads, " thread(s)");
        }
      }
    }
    return proptest::pass();
  });
}

}  // namespace
}  // namespace drift
