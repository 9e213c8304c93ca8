// Cross-verification of the float "effective rendering" simulation
// against the integer-domain execution the hardware actually performs.
//
// Each operand is quantized the way the BitGroup array holds it: the
// engine's Drift decisions (QuantEngine::select over partition_rows,
// at a 5% noise budget), Eq. 1 codes from ref::quantize_value, and a low
// row's lc-shifted lp codes from ref::convert_to_low.  core::render,
// the accuracy path's one renderer, must equal float(code × row scale)
// bit for bit, and the integer GEMM (ref::int_gemm_nt: integer MACs,
// one rescale per output) must agree with nn::matmul_nt over
// core::render's output up to float summation order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/render.hpp"
#include "nn/gemm.hpp"
#include "nn/quant_engine.hpp"
#include "nn/synthetic.hpp"
#include "ref/ref_kernels.hpp"
#include "ref/ref_quant.hpp"
#include "util/rng.hpp"

namespace drift::nn {
namespace {

/// One [rows, cols] operand as the integer array holds it, plus the
/// accuracy path's rendering of the same operand.
struct IntegerOperand {
  TensorI32 codes;                 ///< hp codes, or lp codes on low rows
  std::vector<double> row_scale;   ///< Δ, or Δ·2^lc on low rows
  std::vector<std::int64_t> row_limit;  ///< largest |code| a row may hold
  std::int64_t low_rows = 0;
  TensorF rendered;                ///< core::render's output
};

IntegerOperand quantize_operand(const TensorF& x,
                                const core::SelectorConfig& cfg) {
  const std::int64_t rows = x.shape().dim(0);
  const std::int64_t cols = x.shape().dim(1);
  const core::QuantParams params =
      core::compute_quant_params(x.data(), cfg.hp);
  const auto views = partition_rows(x.shape());
  QuantEngine::Config engine;
  engine.mode = QuantMode::kDrift;
  engine.drift = cfg;
  engine.noise_budget = 0.05;
  const core::PrecisionMap map =
      QuantEngine(engine).select(x.data(), views, params);

  IntegerOperand op;
  op.codes = TensorI32(x.shape());
  const std::int64_t hp_limit = params.bits.max_level();
  const std::int64_t lp_limit = cfg.lp.max_level();
  for (std::int64_t r = 0; r < rows; ++r) {
    const core::PrecisionDecision& d =
        map.decision(static_cast<std::size_t>(r));
    const int lc = d.use_low ? d.choice.lc : 0;
    op.row_scale.push_back(params.delta *
                           static_cast<double>(std::int64_t{1} << lc));
    op.row_limit.push_back(d.use_low ? lp_limit : hp_limit);
    op.low_rows += d.use_low ? 1 : 0;
    for (std::int64_t c = 0; c < cols; ++c) {
      const std::int32_t q =
          ref::quantize_value(x(r, c), params.delta, hp_limit);
      op.codes(r, c) = d.use_low ? ref::convert_to_low(q, lp_limit, lc) : q;
    }
  }
  op.rendered = TensorF(x.shape(),
                        core::render(x.data(), views, params, map, cfg.lp));
  return op;
}

/// Every code stays within its row's precision, and core::render is
/// float(code × row scale) element by element, bit for bit.
void expect_rendering_is_codes_times_scale(const IntegerOperand& op) {
  const std::int64_t rows = op.codes.shape().dim(0);
  const std::int64_t cols = op.codes.shape().dim(1);
  for (std::int64_t r = 0; r < rows; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    for (std::int64_t c = 0; c < cols; ++c) {
      const std::int32_t code = op.codes(r, c);
      EXPECT_LE(std::abs(code), op.row_limit[ri])
          << "row " << r << " col " << c;
      const float want =
          static_cast<float>(static_cast<double>(code) * op.row_scale[ri]);
      const float got = op.rendered(r, c);
      EXPECT_EQ(0, std::memcmp(&got, &want, sizeof(float)))
          << "row " << r << " col " << c << ": render " << got
          << " vs code x scale " << want;
    }
  }
}

/// The headline equivalence on a [M, K] activation and an [N, K]
/// weight under `cfg`: the activation selection must be a real mix,
/// neither all-low nor all-high.
void expect_integer_path_equals_float_path(const TensorF& a,
                                           const TensorF& w,
                                           const core::SelectorConfig& cfg) {
  const IntegerOperand qa = quantize_operand(a, cfg);
  const IntegerOperand qw = quantize_operand(w, cfg);
  expect_rendering_is_codes_times_scale(qa);
  expect_rendering_is_codes_times_scale(qw);
  EXPECT_GT(qa.low_rows, 0);
  EXPECT_LT(qa.low_rows, a.shape().dim(0));

  const TensorF int_out =
      ref::int_gemm_nt(qa.codes, qw.codes, qa.row_scale, qw.row_scale);
  const TensorF float_out = matmul_nt(qa.rendered, qw.rendered);
  for (std::int64_t i = 0; i < int_out.numel(); ++i) {
    const double expect = float_out.at(i);
    EXPECT_NEAR(int_out.at(i), expect,
                std::max(1e-4, 1e-5 * std::abs(expect)))
        << "element " << i;
  }
}

TEST(IntGemm, IntegerPathEqualsFloatPath) {
  Rng rng(405);
  const TensorF a = synth_rows(rng, 24, 64, bert_profile());
  const TensorF w = synth_rows(rng, 32, 64, weight_profile());
  expect_integer_path_equals_float_path(a, w, core::SelectorConfig{});
}

class IntGemmPrecisionSweep : public ::testing::TestWithParam<int> {};

TEST_P(IntGemmPrecisionSweep, EquivalenceHoldsForFlexiblePrecisions) {
  // Section 5.3: the BG fabric also supports 3- and 5-bit settings;
  // the integer/float equivalence must hold for those too.
  const int lp = GetParam();
  Rng rng(411 + static_cast<std::uint64_t>(lp));
  const TensorF a = synth_rows(rng, 16, 48, bert_profile());
  const TensorF w = synth_rows(rng, 24, 48, weight_profile());
  core::SelectorConfig cfg;
  cfg.lp = core::Precision(lp);
  expect_integer_path_equals_float_path(a, w, cfg);
}

INSTANTIATE_TEST_SUITE_P(FlexiblePrecisions, IntGemmPrecisionSweep,
                         ::testing::Values(3, 4, 5));

}  // namespace
}  // namespace drift::nn
