// Tests for the dynamic precision selector (Equations 5-6) and the
// engine's Drift selection -> PrecisionMap -> rendering pipeline.
#include <gtest/gtest.h>

#include <cmath>

#include "core/selector.hpp"
#include "nn/quant_engine.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace drift::core {
namespace {

/// The engine's Drift mode at the fixed δ `cfg.density_threshold`.
nn::QuantEngine fixed_delta_engine(const SelectorConfig& cfg) {
  nn::QuantEngine::Config engine;
  engine.mode = nn::QuantMode::kDrift;
  engine.drift = cfg;
  engine.auto_threshold = false;
  return nn::QuantEngine(engine);
}

QuantParams params_with_range(double max_abs) {
  QuantParams p;
  p.bits = kInt8;
  p.delta = max_abs / 127.0;
  return p;
}

TEST(ComputeStats, MatchesDirectComputation) {
  std::vector<float> buffer = {1.0f, -4.0f, 2.0f, 0.0f};
  SubTensorView view(std::vector<::drift::Run>{{0, 4}});
  const SubTensorStats s = compute_stats(view, buffer);
  EXPECT_DOUBLE_EQ(s.max_abs, 4.0);
  EXPECT_DOUBLE_EQ(s.mean_abs, 7.0 / 4.0);
  EXPECT_DOUBLE_EQ(s.laplace_variance(), 2.0 * (7.0 / 4.0) * (7.0 / 4.0));
}

TEST(SelectPrecision, EquationFiveClipCount) {
  // Tensor range 127*Δ = 12.7; a sub-tensor with max 1.5: Eq. 5 gives
  // hc = floor(log2(12.7/1.5)) = 3, but the exact 4-bit range at
  // (hc=3, lc=1) is 7*2*0.1 = 1.4 < 1.5, so the selector lowers the
  // clip to hc = 2 (range 2.8) — the hardware's exact-coverage check.
  const QuantParams p = params_with_range(12.7);
  SubTensorStats s;
  s.max_abs = 1.5;
  s.mean_abs = 0.6;
  SelectorConfig cfg;
  cfg.density_threshold = 0.0;  // isolate the RR step
  const PrecisionDecision d = select_precision(s, p, cfg);
  EXPECT_TRUE(d.use_low);
  EXPECT_EQ(d.choice.hc, 2);
  EXPECT_EQ(d.choice.lc, 2);
}

TEST(SelectPrecision, EquationFiveFastPathWhenExact) {
  // When the Eq. 5 clip already covers max(|Y|) exactly, it is kept:
  // max 1.2 -> hc = floor(log2(12.7/1.2)) = 3, range 1.4 >= 1.2.
  const QuantParams p = params_with_range(12.7);
  SubTensorStats s;
  s.max_abs = 1.2;
  s.mean_abs = 0.6;
  SelectorConfig cfg;
  cfg.density_threshold = 0.0;
  const PrecisionDecision d = select_precision(s, p, cfg);
  EXPECT_TRUE(d.use_low);
  EXPECT_EQ(d.choice.hc, 3);
  EXPECT_EQ(d.choice.lc, 1);
}

TEST(SelectPrecision, FullRangeSubTensorCannotGoLow) {
  // A sub-tensor spanning the whole tensor range exceeds the exact
  // 4-bit representable span (112Δ < 127Δ) and must stay 8-bit no
  // matter how permissive the density threshold is.
  const QuantParams p = params_with_range(12.7);
  SubTensorStats s;
  s.max_abs = 12.7;
  s.mean_abs = 5.0;
  SelectorConfig cfg;
  cfg.density_threshold = 0.0;
  EXPECT_FALSE(select_precision(s, p, cfg).use_low);
}

TEST(SelectPrecision, RangeCriterionIsSatisfiedByChosenClip) {
  // Property (Eq. 5): RR of the chosen rendering always covers
  // max(|Y|).
  const QuantParams p = params_with_range(10.0);
  SelectorConfig cfg;
  cfg.density_threshold = 0.0;
  Rng rng(61);
  for (int i = 0; i < 500; ++i) {
    SubTensorStats s;
    s.max_abs = rng.uniform(1e-3, 10.0);
    s.mean_abs = s.max_abs * rng.uniform(0.05, 0.9);
    const PrecisionDecision d = select_precision(s, p, cfg);
    if (d.use_low) {
      // The exact lp range must cover max|Y|.
      const double exact = static_cast<double>(cfg.lp.max_level()) *
                           (1 << d.choice.lc) * p.delta;
      EXPECT_GE(exact, s.max_abs * (1.0 - 1e-9));
    } else {
      // Rejection at δ=0 only happens for full-range sub-tensors.
      EXPECT_GT(s.max_abs,
                static_cast<double>(cfg.lp.max_level()) *
                    (1 << (cfg.hp.bits() - cfg.lp.bits())) * p.delta);
    }
  }
}

TEST(SelectPrecision, WideSubTensorGetsNoHighClip) {
  // A sub-tensor spanning the full tensor range cannot clip from the
  // high end (Figure 3, second row: hc=0, lc=4).
  const QuantParams p = params_with_range(8.0);
  SubTensorStats s;
  s.max_abs = 6.5;  // > half the range: no high-end clip possible
  s.mean_abs = 2.0;
  SelectorConfig cfg;
  cfg.density_threshold = 0.0;
  const PrecisionDecision d = select_precision(s, p, cfg);
  EXPECT_TRUE(d.use_low);
  EXPECT_EQ(d.choice.hc, 0);
  EXPECT_EQ(d.choice.lc, 4);
}

TEST(SelectPrecision, SmallVarianceFailsDensityAndStaysHigh) {
  // Figure 3, third row: wide range but tiny variance -> the lc-widened
  // step cannot represent the data -> keep 8-bit.
  const QuantParams p = params_with_range(8.0);
  SubTensorStats s;
  s.max_abs = 8.0;     // forces hc = 0, lc = 4
  s.mean_abs = 0.05;   // tiny variance
  SelectorConfig cfg;
  cfg.density_threshold = 1.0;
  const PrecisionDecision d = select_precision(s, p, cfg);
  EXPECT_FALSE(d.use_low);
}

TEST(SelectPrecision, EquationSixThresholdBoundary) {
  const QuantParams p = params_with_range(12.7);  // delta = 0.1
  SubTensorStats s;
  s.max_abs = 6.0;  // hc = 0, lc = 4 -> RD = 1.6
  SelectorConfig cfg;
  cfg.density_threshold = 1.0;
  // Code-unit criterion: 2*mean_abs^2 / (RD * Δ) >= δ with RD*Δ = 0.16
  // -> boundary mean_abs = sqrt(0.08).
  s.mean_abs = std::sqrt(0.08) * 1.01;
  EXPECT_TRUE(select_precision(s, p, cfg).use_low);
  s.mean_abs = std::sqrt(0.08) * 0.99;
  EXPECT_FALSE(select_precision(s, p, cfg).use_low);
}

TEST(SelectPrecision, HigherThresholdIsMonotonicallyStricter) {
  const QuantParams p = params_with_range(5.0);
  Rng rng(67);
  for (int i = 0; i < 300; ++i) {
    SubTensorStats s;
    s.max_abs = rng.uniform(0.01, 5.0);
    s.mean_abs = s.max_abs * rng.uniform(0.05, 0.95);
    SelectorConfig loose, strict;
    loose.density_threshold = 0.5;
    strict.density_threshold = 4.0;
    // If the strict threshold accepts low precision, the loose one must
    // as well (the accepted set shrinks monotonically in δ).
    if (select_precision(s, p, strict).use_low) {
      EXPECT_TRUE(select_precision(s, p, loose).use_low);
    }
  }
}

TEST(SelectPrecision, AllZeroSubTensorGoesLow) {
  const QuantParams p = params_with_range(5.0);
  SubTensorStats s;  // zeros
  SelectorConfig cfg;
  cfg.density_threshold = 100.0;
  const PrecisionDecision d = select_precision(s, p, cfg);
  EXPECT_TRUE(d.use_low);
  EXPECT_EQ(d.choice.hc, 4);
}

TEST(PrecisionMap, FractionsWeightedCorrectly) {
  SelectorConfig cfg;
  std::vector<PrecisionDecision> decisions = {
      {true, {0, 4}}, {false, {}}, {true, {2, 2}}};
  std::vector<std::int64_t> sizes = {10, 80, 10};
  const PrecisionMap map(std::move(decisions), std::move(sizes), cfg);
  EXPECT_NEAR(map.low_fraction_by_count(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(map.low_fraction_by_elements(), 0.2, 1e-12);
}

TEST(DynamicQuantizer, LowRenderingErrorRespectsChosenDensity) {
  // End-to-end property: applying the dynamic quantizer yields
  // per-element error at most half the chosen step of that sub-tensor.
  Rng rng(71);
  const std::int64_t rows = 32, cols = 64;
  TensorF x(Shape{rows, cols});
  for (std::int64_t r = 0; r < rows; ++r) {
    const double b = std::exp(rng.normal(-1.0, 1.0));
    for (std::int64_t c = 0; c < cols; ++c) {
      x(r, c) = static_cast<float>(rng.laplace(b));
    }
  }
  const auto views = partition_rows(x.shape());
  const QuantParams params = compute_quant_params(x.data(), kInt8);
  SelectorConfig cfg;
  cfg.density_threshold = 1.0;
  const nn::QuantEngine dq = fixed_delta_engine(cfg);
  const PrecisionMap map = dq.select(x.data(), views, params);
  const TensorF rendered = dq.process_activation_rows(x).effective;

  for (std::size_t v = 0; v < views.size(); ++v) {
    const auto& d = map.decision(v);
    const double step =
        d.use_low ? params.delta * (1 << d.choice.lc) : params.delta;
    // Double rounding (FP32 -> INT8 -> INT4) costs at most half of each
    // step: (Δ + 2^lc Δ) / 2.
    const double bound = 0.5 * (step + params.delta) + 1e-5;
    for (const ::drift::Run& run : views[v].runs()) {
      for (std::int64_t i = 0; i < run.length; ++i) {
        const auto idx = static_cast<std::size_t>(run.offset + i);
        EXPECT_LE(std::abs(rendered.data()[idx] - x.data()[idx]), bound);
      }
    }
  }
}

TEST(DynamicQuantizer, LaplaceRowsMostlySelectLow) {
  // Distribution-faithful data (what Section 2.1 profiles) should
  // yield a high 4-bit fraction at a moderate threshold.
  Rng rng(73);
  const std::int64_t rows = 128, cols = 64;
  TensorF x(Shape{rows, cols});
  for (std::int64_t r = 0; r < rows; ++r) {
    const double b = std::exp(rng.normal(-1.0, 0.8));
    for (std::int64_t c = 0; c < cols; ++c) {
      x(r, c) = static_cast<float>(rng.laplace(b));
    }
  }
  const auto views = partition_rows(x.shape());
  const QuantParams params = compute_quant_params(x.data(), kInt8);
  SelectorConfig cfg;
  cfg.density_threshold = 0.5;
  const PrecisionMap map =
      fixed_delta_engine(cfg).select(x.data(), views, params);
  EXPECT_GT(map.low_fraction_by_elements(), 0.5);
}

TEST(SelectPrecision, ExactRRBoundaryIsInclusive) {
  // max(|Y|) sitting *exactly* on an RR boundary must keep that clip:
  // the exact 8->4 range at (hc=3, lc=1) is 14Δ, so max_abs == 14Δ
  // selects hc=3 while the next representable value above drops to
  // hc=2.  (The old floor(log2(...)) shortcut could lose the boundary
  // to floating-point rounding; the selector now compares the exact
  // range directly.)
  const QuantParams p = params_with_range(12.7);  // Δ = 0.1, inexact
  SelectorConfig cfg;
  cfg.density_threshold = 0.0;
  SubTensorStats s;
  s.mean_abs = 0.01;

  s.max_abs = 14.0 * p.delta;
  const PrecisionDecision on = select_precision(s, p, cfg);
  EXPECT_TRUE(on.use_low);
  EXPECT_EQ(on.choice.hc, 3);

  s.max_abs = std::nextafter(14.0 * p.delta, 1e9);
  const PrecisionDecision above = select_precision(s, p, cfg);
  EXPECT_TRUE(above.use_low);
  EXPECT_EQ(above.choice.hc, 2);
}

TEST(SelectPrecision, WidePrecisionBoundaryKeepsTheClipBit) {
  // Near-full-width lp (16 -> 15, a single clip bit) is where a
  // floating-point log2 of the range ratio can land an ulp below 1 and
  // silently lose the clip.  The exact-search selector must keep hc=1
  // whenever the 15-bit range at lc=0 (16383Δ) covers max(|Y|).
  QuantParams p;
  p.bits = Precision(16);
  p.delta = 3.3 / 32767.0;  // inexact Δ
  SelectorConfig cfg;
  cfg.hp = Precision(16);
  cfg.lp = Precision(15);
  cfg.density_threshold = 0.0;
  SubTensorStats s;
  s.mean_abs = 1e-4;

  s.max_abs = 16383.0 * p.delta;
  const PrecisionDecision on = select_precision(s, p, cfg);
  EXPECT_TRUE(on.use_low);
  EXPECT_EQ(on.choice.hc, 1);
  EXPECT_EQ(on.choice.lc, 0);

  s.max_abs = 32766.0 * p.delta;  // needs lc=1, the only other choice
  const PrecisionDecision wide = select_precision(s, p, cfg);
  EXPECT_TRUE(wide.use_low);
  EXPECT_EQ(wide.choice.hc, 0);
  EXPECT_EQ(wide.choice.lc, 1);

  s.max_abs = 32767.0 * p.delta;  // full range: no 15-bit rendering fits
  EXPECT_FALSE(select_precision(s, p, cfg).use_low);
}

TEST(SelectPrecision, SingleElementSubTensor) {
  // A one-element sub-tensor is the degenerate case of the pooling
  // statistics: max == mean == |x|.  The decision must be identical to
  // feeding those stats directly.
  const QuantParams p = params_with_range(12.7);
  SelectorConfig cfg;
  cfg.density_threshold = 0.0;
  const std::vector<float> buffer = {-1.25f};
  SubTensorView view(std::vector<::drift::Run>{{0, 1}});
  const SubTensorStats s = compute_stats(view, buffer);
  EXPECT_DOUBLE_EQ(s.max_abs, 1.25);
  EXPECT_DOUBLE_EQ(s.mean_abs, 1.25);
  const PrecisionDecision d = select_precision(s, p, cfg);
  EXPECT_TRUE(d.use_low);
  // Largest hc with 7 * 2^lc * Δ >= 1.25: hc=3 (range 1.4).
  EXPECT_EQ(d.choice.hc, 3);
}

TEST(SelectPrecision, AllZeroSubTensorGoesLowAtMaximalClip) {
  // Zero data is exactly representable at any precision; even an
  // absurdly strict density threshold must not force it to 8 bits.
  const QuantParams p = params_with_range(12.7);
  SelectorConfig cfg;
  cfg.density_threshold = 1e12;
  SubTensorStats s;  // all-zero stats
  const PrecisionDecision d = select_precision(s, p, cfg);
  EXPECT_TRUE(d.use_low);
  EXPECT_EQ(d.choice.hc, cfg.hp.bits() - cfg.lp.bits());
  EXPECT_EQ(d.choice.lc, 0);
}

TEST(DynamicQuantizer, MismatchedParamsPrecisionThrows) {
  TensorF x(Shape{2, 2}, 1.0f);
  const auto views = partition_rows(x.shape());
  QuantParams params = compute_quant_params(x.data(), kInt4);
  const nn::QuantEngine dq = fixed_delta_engine(SelectorConfig{});
  EXPECT_THROW(dq.select(x.data(), views, params), drift::check_error);
}

}  // namespace
}  // namespace drift::core
