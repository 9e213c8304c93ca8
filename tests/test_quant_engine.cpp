// Tests for the quantized execution engine and synthetic generators.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/quant_engine.hpp"
#include "nn/synthetic.hpp"
#include "util/rng.hpp"

namespace drift::nn {
namespace {

TensorF laplace_rows(std::uint64_t seed, std::int64_t rows,
                     std::int64_t cols) {
  Rng rng(seed);
  return synth_rows(rng, rows, cols, bert_profile());
}

TEST(QuantEngine, Fp32IsIdentity) {
  QuantEngine engine(QuantEngine::Config{});
  const TensorF x = laplace_rows(1, 8, 16);
  const OperandResult r = engine.process_activation_rows(x);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_FLOAT_EQ(r.effective.at(i), x.at(i));
  }
  EXPECT_DOUBLE_EQ(r.low_fraction, 0.0);
}

TEST(QuantEngine, Int8BoundsError) {
  QuantEngine::Config cfg;
  cfg.mode = QuantMode::kStaticInt8;
  QuantEngine engine(cfg);
  const TensorF x = laplace_rows(2, 8, 16);
  float max_abs = 0.0f;
  for (float v : x.data()) max_abs = std::max(max_abs, std::abs(v));
  const double delta = max_abs / 127.0;
  const OperandResult r = engine.process_activation_rows(x);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_LE(std::abs(r.effective.at(i) - x.at(i)), 0.5 * delta + 1e-6);
  }
}

TEST(QuantEngine, DriftReportsLowFraction) {
  QuantEngine::Config cfg;
  cfg.mode = QuantMode::kDrift;
  cfg.drift.density_threshold = 0.5;
  QuantEngine engine(cfg);
  const TensorF x = laplace_rows(3, 64, 32);
  const OperandResult r = engine.process_activation_rows(x);
  EXPECT_GT(r.low_fraction, 0.3);
  EXPECT_LE(r.low_fraction, 1.0);
}

TEST(QuantEngine, DriftWeightsDynamicToggle) {
  QuantEngine::Config cfg;
  cfg.mode = QuantMode::kDrift;
  cfg.drift.density_threshold = 0.25;
  cfg.dynamic_weights = true;
  const TensorF w = laplace_rows(4, 32, 64);
  QuantEngine dynamic(cfg);
  const OperandResult r_dyn = dynamic.process_weight(w);
  cfg.dynamic_weights = false;
  QuantEngine static_w(cfg);
  const OperandResult r_static = static_w.process_weight(w);
  EXPECT_GT(r_dyn.low_fraction_rows, 0.0);
  EXPECT_DOUBLE_EQ(r_static.low_fraction_rows, 0.0);
}

TEST(QuantEngine, RegionGranularityForConvInputs) {
  QuantEngine::Config cfg;
  cfg.mode = QuantMode::kDrq;
  QuantEngine engine(cfg);
  Rng rng(5);
  const TensorF x = synth_chw(rng, 3, 8, 8, 4, cnn_profile());
  const OperandResult r = engine.process_activation_regions(x);
  EXPECT_EQ(r.effective.shape(), x.shape());
  EXPECT_GE(r.low_fraction, 0.0);
}

TEST(QuantEngine, OverallLowFractionIsMacWeighted) {
  QuantEngine engine(QuantEngine::Config{});
  engine.record("small", 1, 1, 1, 1.0, 0.0);       // 1 MAC fully low
  engine.record("big", 100, 100, 100, 0.0, 0.0);   // 1e6 MACs high
  EXPECT_LT(engine.overall_act_low_fraction(), 0.01);
}

TEST(QuantEngine, ModeNames) {
  EXPECT_EQ(to_string(QuantMode::kFloat32), "FP32");
  EXPECT_EQ(to_string(QuantMode::kStaticInt8), "INT8");
  EXPECT_EQ(to_string(QuantMode::kDrq), "DRQ");
  EXPECT_EQ(to_string(QuantMode::kDrift), "Drift");
}

TEST(Synthetic, SampleScalesRespectsOutlierFraction) {
  Rng rng(6);
  SubTensorScaleProfile p;
  p.log_mean = 0.0;
  p.log_sigma = 0.1;
  p.outlier_fraction = 0.2;
  p.outlier_scale = 100.0;
  const auto scales = sample_scales(rng, 5000, p);
  int outliers = 0;
  for (double b : scales) {
    if (b > 10.0) ++outliers;
  }
  EXPECT_NEAR(static_cast<double>(outliers) / 5000.0, 0.2, 0.03);
}

TEST(Synthetic, CorrelationProducesContiguousRuns) {
  Rng rng(7);
  SubTensorScaleProfile smooth = cnn_profile();
  SubTensorScaleProfile rough = llm_profile();
  rough.outlier_fraction = 0.0;
  smooth.outlier_fraction = 0.0;
  auto count_crossings = [&](const SubTensorScaleProfile& p) {
    Rng local(7);
    const auto scales = sample_scales(local, 4000, p);
    const double median = std::exp(p.log_mean);
    int crossings = 0;
    for (std::size_t i = 1; i < scales.size(); ++i) {
      if ((scales[i] > median) != (scales[i - 1] > median)) ++crossings;
    }
    return crossings;
  };
  EXPECT_LT(count_crossings(smooth), count_crossings(rough) / 2);
}

TEST(Synthetic, RowsFollowPerRowLaplaceScales) {
  Rng rng(8);
  SubTensorScaleProfile p;
  p.log_mean = 0.0;
  p.log_sigma = 1.5;
  p.outlier_fraction = 0.0;
  const TensorF x = synth_rows(rng, 64, 2048, p);
  // Per-row mean|.| should vary strongly across rows.
  double lo = 1e30, hi = 0.0;
  for (std::int64_t r = 0; r < 64; ++r) {
    double acc = 0.0;
    for (std::int64_t c = 0; c < 2048; ++c) acc += std::abs(x(r, c));
    acc /= 2048.0;
    lo = std::min(lo, acc);
    hi = std::max(hi, acc);
  }
  EXPECT_GT(hi / lo, 5.0);
}

TEST(Synthetic, StatsSamplerMatchesMaterializedStatistics) {
  // sample_subtensor_stats must agree in distribution with statistics
  // computed from materialized rows.
  SubTensorScaleProfile p;
  p.log_mean = -0.5;
  p.log_sigma = 0.0;  // fixed scale: easy to compare
  p.outlier_fraction = 0.0;
  const std::int64_t n = 512;
  Rng rng_direct(9);
  const auto stats = sample_subtensor_stats(rng_direct, 2000, n, p);
  double mean_of_mean = 0.0, mean_of_max = 0.0;
  for (const auto& s : stats) {
    mean_of_mean += s.mean_abs;
    mean_of_max += s.max_abs;
  }
  mean_of_mean /= static_cast<double>(stats.size());
  mean_of_max /= static_cast<double>(stats.size());
  const double b = std::exp(-0.5);
  EXPECT_NEAR(mean_of_mean, b, 0.05 * b);
  // E[max of n] = b*(ln n + gamma), gamma ~ 0.577.
  const double expected_max = b * (std::log(static_cast<double>(n)) + 0.577);
  EXPECT_NEAR(mean_of_max, expected_max, 0.1 * expected_max);
}

TEST(Synthetic, StatsSamplerMaxNeverBelowMean) {
  Rng rng(10);
  const auto stats = sample_subtensor_stats(rng, 1000, 64, llm_profile());
  for (const auto& s : stats) {
    EXPECT_GE(s.max_abs, s.mean_abs);
    EXPECT_GT(s.mean_abs, 0.0);
  }
}

}  // namespace
}  // namespace drift::nn
