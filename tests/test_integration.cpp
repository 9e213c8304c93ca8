// Cross-module integration tests: algorithm -> mix -> scheduler ->
// accelerator pipeline, and analytical-vs-cycle-sim cross-verification.
#include <gtest/gtest.h>

#include "accel/compare.hpp"
#include "nn/precision_mix.hpp"
#include "nn/proxy.hpp"
#include "systolic/cycle_sim.hpp"

namespace drift {
namespace {

TEST(Integration, AnalyticalAndCycleSimAgreeOnStallFreeWorkloads) {
  // The paper cross-verifies its simulator against RTL; we cross-verify
  // the Eq. 7 analytical model against the cycle-level simulation on a
  // sweep of shapes (scalar-array form: pa=4 rows, one column class).
  Rng rng(211);
  for (int trial = 0; trial < 8; ++trial) {
    const std::int64_t M = rng.uniform_int(1, 40);
    const std::int64_t K = rng.uniform_int(1, 30);
    const std::int64_t N = rng.uniform_int(1, 30);
    const std::int64_t R = rng.uniform_int(2, 8);
    const std::int64_t C = rng.uniform_int(2, 8);
    TensorI32 a(Shape{M, K}, 1);
    TensorI32 w(Shape{K, N}, 1);
    const auto sim = systolic::simulate_gemm(a, w, {R, C});
    const std::int64_t tiles = ((K + R - 1) / R) * ((N + C - 1) / C);
    const std::int64_t analytical = tiles * (R + (M + R + C - 2));
    EXPECT_EQ(sim.cycles, analytical)
        << "M=" << M << " K=" << K << " N=" << N << " R=" << R
        << " C=" << C;
  }
}

TEST(Integration, ProxyRecordsFeedLayerWork) {
  // The functional engine's records and the shape-level mix generator
  // must tell a consistent story about low-precision coverage.
  nn::TransformerProxy::Config cfg;
  cfg.samples = 16;
  const nn::TransformerProxy proxy(cfg);
  nn::QuantEngine::Config ecfg;
  ecfg.mode = nn::QuantMode::kDrift;
  ecfg.drift.density_threshold = 0.5;
  nn::QuantEngine engine(ecfg);
  const auto result = proxy.evaluate(engine);
  EXPECT_FALSE(engine.records().size() == 0);
  EXPECT_NEAR(engine.overall_act_low_fraction(), result.act_low_fraction,
              1e-9);
}

TEST(Integration, FullPipelineSevenModels) {
  // Smoke test over the whole paper workload set: every model runs on
  // all four accelerators and preserves the headline ordering.
  accel::CompareConfig cfg;
  cfg.drift_selector.density_threshold = 0.5;
  double drift_over_bf_product = 1.0;
  int n = 0;
  for (const auto& spec : nn::paper_workloads()) {
    const auto cmp = accel::compare_workload(spec, cfg);
    EXPECT_GT(cmp.speedup_drift(), 1.0) << spec.model;
    EXPECT_GE(cmp.speedup_drift() * 1.0001, cmp.speedup_drq()) << spec.model;
    drift_over_bf_product *=
        cmp.speedup_drift() / cmp.speedup_bitfusion();
    ++n;
  }
  const double geomean =
      std::pow(drift_over_bf_product, 1.0 / static_cast<double>(n));
  // Paper: 2.85x average over BitFusion; accept the 2-4x band.
  EXPECT_GT(geomean, 1.8);
  EXPECT_LT(geomean, 4.5);
}

TEST(Integration, DeterministicEndToEnd) {
  accel::CompareConfig cfg;
  cfg.drift_selector.density_threshold = 0.5;
  const auto a = accel::compare_workload(nn::make_deit_s(), cfg);
  const auto b = accel::compare_workload(nn::make_deit_s(), cfg);
  EXPECT_EQ(a.drift.cycles, b.drift.cycles);
  EXPECT_DOUBLE_EQ(a.drift.energy.total_pj(), b.drift.energy.total_pj());
}

}  // namespace
}  // namespace drift
