// Tests for the DRQ baseline selection and rendering (the engine's DRQ
// mode), including the transformer failure mode the paper reports
// (Section 5.2).
#include <gtest/gtest.h>

#include <cmath>

#include "nn/quant_engine.hpp"
#include "util/rng.hpp"

namespace drift::core {
namespace {

nn::QuantEngine drq_engine(DrqConfig drq = {}) {
  nn::QuantEngine::Config cfg;
  cfg.mode = nn::QuantMode::kDrq;
  cfg.drq = drq;
  return nn::QuantEngine(cfg);
}

TEST(Drq, SensitiveRegionsStayHigh) {
  // Two rows: one loud (sensitive), one quiet.
  TensorF x(Shape{2, 8});
  for (std::int64_t c = 0; c < 8; ++c) {
    x(0, c) = 4.0f;   // loud
    x(1, c) = 0.2f;   // quiet
  }
  const auto views = partition_rows(x.shape());
  const QuantParams params = compute_quant_params(x.data(), kInt8);
  const PrecisionMap map = drq_engine().select(x.data(), views, params);
  EXPECT_FALSE(map.decision(0).use_low);  // sensitive -> 8-bit
  EXPECT_TRUE(map.decision(1).use_low);   // insensitive -> 4-bit
}

TEST(Drq, LowRegionsUseFixedTruncationChoice) {
  TensorF x(Shape{2, 8});
  for (std::int64_t c = 0; c < 8; ++c) {
    x(0, c) = 4.0f;
    x(1, c) = 0.2f;
  }
  const auto views = partition_rows(x.shape());
  const QuantParams params = compute_quant_params(x.data(), kInt8);
  const PrecisionMap map = drq_engine().select(x.data(), views, params);
  EXPECT_EQ(map.decision(1).choice.hc, 0);
  EXPECT_EQ(map.decision(1).choice.lc, 4);
}

TEST(Drq, TruncationZeroesSmallValuesUnderOutlierScale) {
  // The failure mechanism: one outlier row inflates Δ; quiet rows are
  // then truncated to zero by the low-bit clip.
  TensorF x(Shape{2, 8});
  for (std::int64_t c = 0; c < 8; ++c) {
    x(0, c) = 20.0f;  // outlier token
    x(1, c) = 0.5f;   // informative token
  }
  const auto views = partition_rows(x.shape());
  const QuantParams params = compute_quant_params(x.data(), kInt8);
  const nn::QuantEngine drq = drq_engine();
  const PrecisionMap map = drq.select(x.data(), views, params);
  ASSERT_TRUE(map.decision(1).use_low);
  const TensorF rendered = drq.process_activation_rows(x).effective;
  // step = 16 * (20/127) = 2.52 -> 0.5 rounds to 0: signal destroyed.
  for (std::int64_t c = 0; c < 8; ++c) {
    EXPECT_FLOAT_EQ(rendered(1, c), 0.0f);
  }
}

TEST(Drq, DriftSurvivesTheSameOutlierScenario) {
  // Contrast test: Drift's Eq. 5 clips from the high end for the quiet
  // row, preserving its resolution where DRQ zeroes it.
  TensorF x(Shape{2, 8});
  Rng rng(79);
  for (std::int64_t c = 0; c < 8; ++c) {
    x(0, c) = 20.0f;
    x(1, c) = static_cast<float>(0.5 + 0.1 * rng.normal());
  }
  const auto views = partition_rows(x.shape());
  const QuantParams params = compute_quant_params(x.data(), kInt8);

  nn::QuantEngine::Config cfg;
  cfg.mode = nn::QuantMode::kDrift;
  cfg.auto_threshold = false;
  cfg.drift.density_threshold = 0.5;
  const nn::QuantEngine drift_q(cfg);
  const PrecisionMap map = drift_q.select(x.data(), views, params);
  ASSERT_TRUE(map.decision(1).use_low);
  EXPECT_GT(map.decision(1).choice.hc, 0);  // high-end clip chosen
  const TensorF rendered = drift_q.process_activation_rows(x).effective;
  double err = 0.0;
  for (std::int64_t c = 0; c < 8; ++c) {
    err = std::max(err,
                   std::abs(static_cast<double>(rendered(1, c)) - x(1, c)));
  }
  // Error stays well below the signal magnitude (DRQ's was 100%).
  EXPECT_LT(err, 0.25);
}

TEST(Drq, SensitivityScalesClassification) {
  Rng rng(83);
  TensorF x(Shape{64, 16});
  for (std::int64_t r = 0; r < 64; ++r) {
    const double b = std::exp(rng.normal(0.0, 1.0));
    for (std::int64_t c = 0; c < 16; ++c) {
      x(r, c) = static_cast<float>(rng.laplace(b));
    }
  }
  const auto views = partition_rows(x.shape());
  const QuantParams params = compute_quant_params(x.data(), kInt8);
  DrqConfig loose;
  loose.sensitivity = 0.5;  // fewer rows counted sensitive
  DrqConfig strict;
  strict.sensitivity = 2.0;  // more rows counted... (higher bar to be
                             // sensitive -> more rows go low)
  const auto map_loose = drq_engine(loose).select(x.data(), views, params);
  const auto map_strict = drq_engine(strict).select(x.data(), views, params);
  EXPECT_LE(map_loose.low_fraction_by_count(),
            map_strict.low_fraction_by_count());
}

TEST(Drq, ApplyLeavesHighRegionsAtInt8Accuracy) {
  TensorF x(Shape{2, 4});
  x(0, 0) = 3.0f; x(0, 1) = -2.0f; x(0, 2) = 1.0f; x(0, 3) = 2.5f;
  x(1, 0) = 0.1f; x(1, 1) = 0.0f; x(1, 2) = -0.1f; x(1, 3) = 0.05f;
  const auto views = partition_rows(x.shape());
  const QuantParams params = compute_quant_params(x.data(), kInt8);
  const nn::QuantEngine drq = drq_engine();
  ASSERT_FALSE(drq.select(x.data(), views, params).decision(0).use_low);
  const TensorF rendered = drq.process_activation_rows(x).effective;
  for (std::int64_t c = 0; c < 4; ++c) {
    EXPECT_NEAR(rendered(0, c), x(0, c), 0.5 * params.delta + 1e-6);
  }
}

}  // namespace
}  // namespace drift::core
