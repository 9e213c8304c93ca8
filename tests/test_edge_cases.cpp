// Cross-module edge cases and extra property sweeps.
#include <gtest/gtest.h>

#include "core/analytical_model.hpp"
#include "core/quantizer.hpp"
#include "nn/proxy.hpp"
#include "nn/workload.hpp"
#include "systolic/stall_model.hpp"
#include "tensor/subtensor.hpp"
#include "util/assert.hpp"

namespace drift {
namespace {

TEST(EdgeCases, EmptyRunPatternCostsNothing) {
  const std::vector<bool> empty;
  const auto r = systolic::run_switching_exe_cycles(empty, 1, 2, 4);
  EXPECT_EQ(r.exe_cycles, 0);
  EXPECT_EQ(r.switches, 0);
}

TEST(EdgeCases, SingleRowPatterns) {
  for (bool low : {true, false}) {
    const std::vector<bool> one = {low};
    const auto r = systolic::run_switching_exe_cycles(one, 1, 2, 100);
    EXPECT_EQ(r.exe_cycles, low ? 1 : 2);
    EXPECT_EQ(r.switches, 0);
    EXPECT_FALSE(r.fell_back_to_high && low);
  }
}

TEST(EdgeCases, WsLatencySingleElementGemm) {
  // M = K = N = 1 on a 1x1 array: preload 1 + (1 + 1 + 1 - 2) = 2, and
  // repetitions ceil(8/4) * ceil(8/16) = 2 * 1.
  EXPECT_EQ(core::ws_latency_cycles({1, 1, 1}, 8, 8, {1, 1}), 2 * 2);
  EXPECT_EQ(core::ws_latency_cycles({1, 1, 1}, 4, 4, {1, 1}), 2);
}

TEST(EdgeCases, WsLatencyScalesLinearlyInM) {
  const core::ArrayDims a{8, 8};
  const auto t1 = core::ws_latency_cycles({100, 64, 64}, 8, 8, a);
  const auto t2 = core::ws_latency_cycles({200, 64, 64}, 8, 8, a);
  // Reps are M-independent, so the delta is exactly reps * 100.
  const auto reps = core::ws_tile_repetitions({100, 64, 64}, 8, 8, a);
  EXPECT_EQ(t2 - t1, reps * 100);
}

TEST(EdgeCases, PartitionRowsRejectsNonMatrix) {
  EXPECT_THROW(partition_rows(Shape{2, 3, 4}), check_error);
  EXPECT_THROW(partition_rows(Shape{4, 0}), check_error);
}

TEST(EdgeCases, QuantizeOneElementTensor) {
  const std::vector<float> v = {-3.25f};
  const auto p = core::compute_quant_params(v, core::kInt8);
  EXPECT_EQ(core::quantize_value(-3.25f, p), -127);
  EXPECT_NEAR(core::dequantize_value(-127, p), -3.25f, 1e-6);
}

TEST(EdgeCases, ConvertToLowIdentityForEqualPrecisions) {
  // hp == lp: the only choice is (0, 0) and conversion is the identity
  // on the representable range.
  const core::ConversionChoice id{0, 0};
  for (std::int32_t q = -127; q <= 127; ++q) {
    EXPECT_EQ(core::convert_to_low(q, core::kInt8, id), q);
  }
}

TEST(EdgeCases, BloomWorkloadShapes) {
  const auto spec = nn::make_workload("BLOOM-7B1");
  bool saw_head = false;
  for (const auto& l : spec.layers) {
    if (l.name == "lm_head") {
      saw_head = true;
      EXPECT_EQ(l.dims.N, 250880);  // BLOOM's multilingual vocab
      EXPECT_EQ(l.dims.K, 4096);
    }
    EXPECT_GT(l.dims.macs(), 0);
  }
  EXPECT_TRUE(saw_head);
  // 30 blocks x 6 GEMM groups + head.
  EXPECT_EQ(spec.layers.size(), 7u);
}

TEST(EdgeCases, LmProxyCalibratedScaleHitsTarget) {
  nn::LmProxy::Config cfg;
  cfg.samples = 8;
  const nn::LmProxy proxy(cfg);
  nn::QuantEngine::Config ecfg;  // FP32
  nn::QuantEngine engine(ecfg);
  // The teacher is calibrated to a base perplexity of 15.
  EXPECT_NEAR(proxy.evaluate(engine).metric, 15.0, 0.05);
}

TEST(EdgeCases, ProxiesHonorSampleCounts) {
  nn::CnnProxy::Config cfg;
  cfg.samples = 7;
  const nn::CnnProxy proxy(cfg);
  nn::QuantEngine::Config ecfg;
  nn::QuantEngine engine(ecfg);
  // 7 samples -> accuracy is a multiple of 1/7.
  const double acc = proxy.evaluate(engine).metric;
  const double scaled = acc * 7.0;
  EXPECT_NEAR(scaled, std::round(scaled), 1e-9);
}

class RunSwitchingFallbackBoundary
    : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(RunSwitchingFallbackBoundary, FallbackExactlyWhenMixedCostlier) {
  // Construct a pattern whose mixed cost straddles the all-high cost
  // as the switch penalty grows.
  const std::int64_t penalty = GetParam();
  std::vector<bool> pattern;
  for (int i = 0; i < 50; ++i) {
    pattern.push_back(true);
    pattern.push_back(false);
  }
  const auto r = systolic::run_switching_exe_cycles(pattern, 1, 2, penalty);
  const std::int64_t weighted = 50 * 1 + 50 * 2;
  const std::int64_t mixed = weighted + r.switches * penalty;
  const std::int64_t all_high = 100 * 2;
  EXPECT_EQ(r.fell_back_to_high, mixed > all_high);
  EXPECT_EQ(r.exe_cycles, std::min(mixed, all_high));
}

INSTANTIATE_TEST_SUITE_P(Penalties, RunSwitchingFallbackBoundary,
                         ::testing::Values(0, 1, 2, 8, 64));

}  // namespace
}  // namespace drift
