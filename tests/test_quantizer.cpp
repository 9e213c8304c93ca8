// Tests for src/core quantization primitives (Equations 1-3).
#include <gtest/gtest.h>

#include <cmath>

#include "core/precision.hpp"
#include "core/quantizer.hpp"
#include "core/render.hpp"
#include "proptest/proptest.hpp"
#include "tensor/tensor.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace drift::core {
namespace {

using proptest::enumerate_choices;

/// Round-trip error of re-rendering `q` at lp bits, in dequantized
/// units: |q*Δ - dequantize_low(convert_to_low(q))|.
double conversion_error(std::int32_t q, const QuantParams& params,
                        Precision lp, const ConversionChoice& choice) {
  const double exact = static_cast<double>(q) * params.delta;
  const double approx =
      dequantize_low(convert_to_low(q, lp, choice), params, choice);
  return std::abs(exact - approx);
}

TEST(Precision, MaxLevels) {
  EXPECT_EQ(kInt8.max_level(), 127);
  EXPECT_EQ(kInt4.max_level(), 7);
  EXPECT_EQ(kInt5.max_level(), 15);
  EXPECT_EQ(kInt3.max_level(), 3);
}

TEST(Precision, ToString) {
  EXPECT_EQ(kInt8.to_string(), "INT8");
  EXPECT_EQ(kInt4.to_string(), "INT4");
}

TEST(EnumerateChoices, FiveChoicesFor8To4) {
  // Section 3.1: "there are five choices to convert an 8-bit integer
  // to 4-bit".
  const auto choices = enumerate_choices(kInt8, kInt4);
  ASSERT_EQ(choices.size(), 5u);
  for (const auto& c : choices) {
    EXPECT_EQ(c.hc + c.lc, 4);  // Equation 2: hp = hc + lp + lc
    EXPECT_GE(c.hc, 0);
    EXPECT_GE(c.lc, 0);
  }
  EXPECT_EQ(choices.front().hc, 0);
  EXPECT_EQ(choices.back().hc, 4);
}

TEST(EnumerateChoices, EqualPrecisionsYieldIdentity) {
  const auto choices = enumerate_choices(kInt8, kInt8);
  ASSERT_EQ(choices.size(), 1u);
  EXPECT_EQ(choices[0].hc, 0);
  EXPECT_EQ(choices[0].lc, 0);
}

TEST(QuantParams, DeltaFromMaxAbs) {
  const std::vector<float> v = {0.5f, -2.54f, 1.0f};
  const QuantParams p = compute_quant_params(v, kInt8);
  EXPECT_NEAR(p.delta, 2.54 / 127.0, 1e-9);
  // Eq. 1 consequence: RR of the full tensor equals max|X|.
  EXPECT_NEAR(p.representation_range(), 2.54, 1e-6);
}

TEST(QuantParams, AllZeroTensorGetsUnitDelta) {
  const std::vector<float> v = {0.0f, 0.0f};
  const QuantParams p = compute_quant_params(v, kInt8);
  EXPECT_DOUBLE_EQ(p.delta, 1.0);
}

TEST(Quantize, RoundTripErrorBoundedByHalfDelta) {
  Rng rng(51);
  std::vector<float> v;
  for (int i = 0; i < 1000; ++i) {
    v.push_back(static_cast<float>(rng.laplace(0.7)));
  }
  const QuantParams p = compute_quant_params(v, kInt8);
  for (float x : v) {
    const float back = dequantize_value(quantize_value(x, p), p);
    EXPECT_LE(std::abs(back - x), 0.5 * p.delta + 1e-6);
  }
}

TEST(Quantize, ClampsBeyondCalibratedRange) {
  const std::vector<float> v = {1.0f, -1.0f};
  const QuantParams p = compute_quant_params(v, kInt8);
  EXPECT_EQ(quantize_value(50.0f, p), 127);
  EXPECT_EQ(quantize_value(-50.0f, p), -127);
}

TEST(Quantize, TensorRoundTrip) {
  Rng rng(53);
  TensorF x(Shape{4, 8});
  for (float& v : x.data()) v = static_cast<float>(rng.laplace(1.0));
  const QuantParams p = compute_quant_params(x.data(), kInt8);
  // The whole-tensor round trip is the hp rendering static INT8 uses.
  const std::vector<float> back = render_hp(x.data(), p);
  ASSERT_EQ(back.size(), static_cast<std::size_t>(x.numel()));
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_NEAR(back[static_cast<std::size_t>(i)], x.at(i),
                0.5 * p.delta + 1e-6);
  }
}

TEST(ConvertToLow, PureLowClipDividesBy16) {
  // (hc=0, lc=4): q_lp = round(q / 16).
  const ConversionChoice c{0, 4};
  EXPECT_EQ(convert_to_low(32, kInt4, c), 2);
  EXPECT_EQ(convert_to_low(-48, kInt4, c), -3);
  EXPECT_EQ(convert_to_low(7, kInt4, c), 0);   // rounds to zero
  EXPECT_EQ(convert_to_low(9, kInt4, c), 1);
}

TEST(ConvertToLow, PureHighClipKeepsSmallValuesExact) {
  // (hc=4, lc=0): small-magnitude codes survive unchanged.
  const ConversionChoice c{4, 0};
  for (std::int32_t q = -7; q <= 7; ++q) {
    EXPECT_EQ(convert_to_low(q, kInt4, c), q);
  }
  // Values beyond the 4-bit range clamp (RR criterion prevents this in
  // correctly selected sub-tensors).
  EXPECT_EQ(convert_to_low(100, kInt4, c), 7);
}

TEST(ConvertToLow, DequantizeLowUsesScaledStep) {
  QuantParams p;
  p.delta = 0.01;
  const ConversionChoice c{1, 3};
  // step = 2^3 * delta = 0.08
  EXPECT_NEAR(dequantize_low(5, p, c), 0.4f, 1e-6);
}

TEST(ConversionError, ZeroWhenValueRepresentable) {
  QuantParams p;
  p.delta = 0.5;
  const ConversionChoice high_clip{4, 0};
  EXPECT_DOUBLE_EQ(conversion_error(6, p, kInt4, high_clip), 0.0);
}

TEST(ConversionError, BoundedByHalfStepInRange) {
  QuantParams p;
  p.delta = 0.5;
  const ConversionChoice c{0, 4};
  for (std::int32_t q = -127; q <= 127; ++q) {
    const double step = p.delta * 16.0;
    EXPECT_LE(conversion_error(q, p, kInt8, c), 0.5 * step + 1e-9);
  }
}

class ConversionErrorSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ConversionErrorSweep, ErrorWithinHalfStepWhenRangeCovers) {
  // Property: for any (hc, lc) choice, every code whose magnitude fits
  // the clipped range round-trips within half the widened step.
  const auto [hc, lc] = GetParam();
  QuantParams p;
  p.delta = 0.125;
  const ConversionChoice c{hc, lc};
  const std::int64_t covered = (std::int64_t{7} << lc);  // lp range * 2^lc
  for (std::int32_t q = static_cast<std::int32_t>(-covered);
       q <= covered; ++q) {
    const double step = p.delta * static_cast<double>(1 << lc);
    EXPECT_LE(conversion_error(q, p, kInt4, c), 0.5 * step + 1e-9)
        << "q=" << q << " hc=" << hc << " lc=" << lc;
  }
}

INSTANTIATE_TEST_SUITE_P(AllChoices, ConversionErrorSweep,
                         ::testing::Values(std::make_tuple(0, 4),
                                           std::make_tuple(1, 3),
                                           std::make_tuple(2, 2),
                                           std::make_tuple(3, 1),
                                           std::make_tuple(4, 0)));

}  // namespace
}  // namespace drift::core
