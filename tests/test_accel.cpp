// Tests for the accelerator system models and the paper's headline
// performance/energy orderings.
#include <gtest/gtest.h>

#include <cmath>

#include "accel/bitfusion.hpp"
#include "accel/compare.hpp"
#include "accel/drift_accel.hpp"
#include "accel/drq_accel.hpp"
#include "accel/eyeriss.hpp"
#include "accel/traffic.hpp"

namespace drift::accel {
namespace {

CompareConfig default_config() {
  CompareConfig cfg;
  cfg.drift_selector.density_threshold = 0.5;
  return cfg;
}

TEST(Traffic, OperandBitsWeighted) {
  core::LayerWork w;
  w.m_high = 25;
  w.m_low = 75;
  w.n_high = 50;
  w.n_low = 50;
  w.k = 10;
  const OperandBits bits = operand_bits_from_work(w);
  EXPECT_NEAR(bits.act_bits, 0.25 * 8 + 0.75 * 4, 1e-12);
  EXPECT_NEAR(bits.weight_bits, 6.0, 1e-12);
}

TEST(Traffic, ActResidencyAvoidsRereads) {
  AccelConfig cfg;
  const core::GemmDims dims{64, 64, 64};  // 4 KiB of INT8 acts: resident
  const OperandBits bits{8.0, 8.0, 8};
  const LayerTraffic t = compute_traffic(dims, bits, 10, 1, cfg);
  EXPECT_EQ(t.act_dram_bytes, 64 * 64);

  // 1 MiB of INT8 acts overflows the global buffer: one DRAM re-read
  // per weight tile.
  const core::GemmDims big{1024, 1024, 64};
  ASSERT_GT(big.M * big.K, kGlobalBufferBytes);
  const LayerTraffic t2 = compute_traffic(big, bits, 10, 1, cfg);
  EXPECT_EQ(t2.act_dram_bytes, 1024 * 1024 * 10);
}

TEST(Traffic, PsumSpillGrowsWithReductionTiles) {
  AccelConfig cfg;
  const core::GemmDims dims{8, 8, 8};
  const OperandBits bits{8.0, 8.0, 8};
  const LayerTraffic one = compute_traffic(dims, bits, 1, 1, cfg);
  const LayerTraffic four = compute_traffic(dims, bits, 1, 4, cfg);
  EXPECT_GT(four.buffer_read_bytes, one.buffer_read_bytes);
}

TEST(Traffic, CoreEnergyScalesWithPrecision) {
  core::LayerWork high, low;
  high.m_high = 100;
  high.n_high = 100;
  high.k = 100;
  low.m_low = 100;
  low.n_low = 100;
  low.k = 100;
  // INT4xINT4 uses 4 BB ops vs 16: core energy ratio approaches 4x
  // (minus the shared psum-add term).
  EXPECT_GT(core_energy_pj(high) / core_energy_pj(low), 2.5);
}

TEST(Energy, BitbrickOpsPerMac) {
  EXPECT_EQ(energy::bitbrick_ops_per_mac(8, 8), 16);
  EXPECT_EQ(energy::bitbrick_ops_per_mac(4, 4), 4);
  EXPECT_EQ(energy::bitbrick_ops_per_mac(8, 4), 8);
  EXPECT_EQ(energy::bitbrick_ops_per_mac(4, 8), 8);
  EXPECT_EQ(energy::bitbrick_ops_per_mac(3, 5), 6);
}

TEST(Eyeriss, MappedPesRespectsKernel) {
  nn::LayerGemm conv;
  conv.kind = nn::LayerKind::kConv;
  conv.kernel = 3;
  conv.dims = {56 * 56, 576, 64};
  // 4 filter groups of 3 rows = 12 rows, 16 columns.
  EXPECT_EQ(EyerissModel::mapped_pes(conv), 12 * 16);

  nn::LayerGemm fc;
  fc.kind = nn::LayerKind::kFc;
  fc.kernel = 1;
  fc.dims = {1, 512, 1000};
  EXPECT_EQ(EyerissModel::mapped_pes(fc), 14 * 1);
}

TEST(Accel, RunResultsAreInternallyConsistent) {
  // Run totals are sums over layers: LayerResult cycles and energy
  // already carry the repeat factor, stall cycles and DRAM bytes are
  // per instance.  Every paper workload, LLM scale (OPT-6.7B) included,
  // so int64 cycle and byte totals are exercised at their largest.
  const auto finite_non_negative = [](const energy::EnergyBreakdown& e) {
    for (const double pj : {e.static_pj, e.dram_pj, e.buffer_pj, e.core_pj}) {
      if (!std::isfinite(pj) || pj < 0.0) return false;
    }
    return true;
  };
  for (const auto& spec : nn::paper_workloads()) {
    SCOPED_TRACE(spec.model);
    const auto cmp = compare_workload(spec, default_config());
    for (const RunResult* r :
         {&cmp.eyeriss, &cmp.bitfusion, &cmp.drq, &cmp.drift}) {
      ASSERT_EQ(r->layers.size(), spec.layers.size());
      EXPECT_GT(r->cycles, 0);
      EXPECT_GT(r->energy.total_pj(), 0.0);
      EXPECT_TRUE(finite_non_negative(r->energy)) << r->accelerator;
      std::int64_t cycles = 0, stalls = 0, dram_bytes = 0;
      energy::EnergyBreakdown energy;
      for (std::size_t l = 0; l < r->layers.size(); ++l) {
        const LayerResult& lr = r->layers[l];
        const std::int64_t repeat = spec.layers[l].repeat;
        EXPECT_TRUE(finite_non_negative(lr.energy))
            << r->accelerator << " layer " << l;
        cycles += lr.cycles;
        stalls += lr.stall_cycles * repeat;
        dram_bytes += lr.dram_bytes * repeat;
        energy += lr.energy;
      }
      EXPECT_EQ(cycles, r->cycles) << r->accelerator;
      EXPECT_EQ(stalls, r->stall_cycles) << r->accelerator;
      EXPECT_EQ(dram_bytes, r->dram_bytes) << r->accelerator;
      EXPECT_EQ(energy.core_pj, r->energy.core_pj) << r->accelerator;
      EXPECT_EQ(energy.buffer_pj, r->energy.buffer_pj) << r->accelerator;
      EXPECT_EQ(energy.dram_pj, r->energy.dram_pj) << r->accelerator;
    }
  }
}

TEST(Accel, BitFusionFasterThanEyeriss) {
  const auto cmp = compare_workload(nn::make_resnet18(), default_config());
  EXPECT_GT(cmp.speedup_bitfusion(), 2.0);
  EXPECT_LT(cmp.speedup_bitfusion(), 8.0);
}

TEST(Accel, DriftFasterThanBitFusionAndDrq) {
  for (const auto& spec : {nn::make_resnet18(), nn::make_deit_s(),
                           nn::make_bert_base(128)}) {
    const auto cmp = compare_workload(spec, default_config());
    EXPECT_GT(cmp.speedup_drift(), cmp.speedup_bitfusion()) << spec.model;
    EXPECT_GT(cmp.speedup_drift(), cmp.speedup_drq()) << spec.model;
  }
}

TEST(Accel, DrqGainsOnCnnButNotOnVit) {
  // The Figure 7 signature: DRQ beats BitFusion clearly on CNNs but is
  // nearly flat on ViT-B (1.07x in the paper) because its precision
  // pattern interleaves and the controller falls back.
  const auto cnn = compare_workload(nn::make_resnet18(), default_config());
  const auto vit = compare_workload(nn::make_vit_b16(), default_config());
  const double drq_gain_cnn = cnn.speedup_drq() / cnn.speedup_bitfusion();
  const double drq_gain_vit = vit.speedup_drq() / vit.speedup_bitfusion();
  EXPECT_GT(drq_gain_cnn, 1.25);
  EXPECT_LT(drq_gain_vit, 1.25);
  EXPECT_GT(drq_gain_vit, 0.9);
}

TEST(Accel, EnergyOrderingMatchesPaper) {
  const auto cmp = compare_workload(nn::make_resnet50(), default_config());
  // Normalized energy: Drift < DRQ < BitFusion < Eyeriss(=1).
  EXPECT_LT(cmp.energy_drift(), cmp.energy_drq());
  EXPECT_LT(cmp.energy_drq(), cmp.energy_bitfusion());
  EXPECT_LT(cmp.energy_bitfusion(), 1.0);
}

TEST(Accel, DriftStaticEnergyFractionBelowDrq) {
  // Figure 8: Drift's better utilization shrinks the static share
  // (41.2% vs 51.9% in the paper).
  const auto cmp = compare_workload(nn::make_bert_base(128),
                                    default_config());
  const double drift_static =
      cmp.drift.energy.static_pj / cmp.drift.energy.total_pj();
  const double drq_static =
      cmp.drq.energy.static_pj / cmp.drq.energy.total_pj();
  EXPECT_LT(drift_static, drq_static);
}

TEST(Accel, SchedulerPoliciesOrdering) {
  const auto spec = nn::make_bert_base(128);
  const CompareConfig cfg = default_config();
  const auto mixes = nn::build_mixes(
      spec, cfg.mix_config(nn::MixAlgorithm::kDrift, /*seed=*/1));

  DriftAccelModel greedy(cfg.hw, SchedulerPolicy::kGreedy);
  DriftAccelModel oracle(cfg.hw, SchedulerPolicy::kExhaustive);
  DriftAccelModel fixed(cfg.hw, SchedulerPolicy::kFixed);
  const auto g = greedy.run(spec, mixes);
  const auto o = oracle.run(spec, mixes);
  const auto f = fixed.run(spec, mixes);
  EXPECT_LE(o.cycles, g.cycles);
  EXPECT_LT(g.cycles, f.cycles);  // balancing must beat the fixed split
  // Greedy within a few percent of the oracle.
  EXPECT_LT(static_cast<double>(g.cycles) / static_cast<double>(o.cycles),
            1.05);
}

TEST(Accel, MixMismatchThrows) {
  const auto spec = nn::make_deit_s();
  BitFusionModel bf(AccelConfig{});
  std::vector<nn::LayerMix> empty;
  EXPECT_THROW(bf.run(spec, empty), drift::check_error);
}

TEST(Accel, NamesAndPolicies) {
  EXPECT_EQ(BitFusionModel(AccelConfig{}).name(), "BitFusion");
  EXPECT_EQ(DrqAccelModel(AccelConfig{}).name(), "DRQ");
  EXPECT_EQ(EyerissModel(AccelConfig{}).name(), "Eyeriss");
  EXPECT_EQ(DriftAccelModel(AccelConfig{}).name(), "Drift");
  EXPECT_EQ(DriftAccelModel(AccelConfig{}, SchedulerPolicy::kFixed).name(),
            "Drift(fixed)");
  EXPECT_EQ(make_accelerator(nn::MixAlgorithm::kStaticInt8, AccelConfig{},
                             SchedulerPolicy::kGreedy)
                ->name(),
            "BitFusion");
  EXPECT_EQ(make_accelerator(nn::MixAlgorithm::kDrift, AccelConfig{},
                             SchedulerPolicy::kExhaustive)
                ->name(),
            "Drift(exhaustive)");
}

TEST(Accel, ParsersAcceptOnlyLowerCasedNames) {
  EXPECT_EQ(nn::parse_mix_algorithm("int8"), nn::MixAlgorithm::kStaticInt8);
  EXPECT_EQ(nn::parse_mix_algorithm("drq"), nn::MixAlgorithm::kDrq);
  EXPECT_EQ(nn::parse_mix_algorithm("drift"), nn::MixAlgorithm::kDrift);
  EXPECT_EQ(parse_scheduler_policy("greedy"), SchedulerPolicy::kGreedy);
  EXPECT_EQ(parse_scheduler_policy("exhaustive"),
            SchedulerPolicy::kExhaustive);
  EXPECT_EQ(parse_scheduler_policy("fixed"), SchedulerPolicy::kFixed);
  for (const char* bogus : {"", "bogus", "Drift", "INT8", "greedy "}) {
    EXPECT_FALSE(nn::parse_mix_algorithm(bogus).has_value()) << bogus;
    EXPECT_FALSE(parse_scheduler_policy(bogus).has_value()) << bogus;
  }
}

}  // namespace
}  // namespace drift::accel
