// Invariants of the four-way comparison harness across the full
// workload set (complements the targeted tests in test_accel.cpp).
#include <gtest/gtest.h>

#include "accel/compare.hpp"
#include "accel/timeline.hpp"
#include "nn/workload.hpp"

namespace drift::accel {
namespace {

CompareConfig quick_config() {
  CompareConfig cfg;
  cfg.noise_budget = 0.05;
  return cfg;
}

TEST(Compare, UtilizationStaysInUnitInterval) {
  const auto cmp =
      compare_workload(nn::make_resnet18(), quick_config());
  for (const RunResult* r :
       {&cmp.eyeriss, &cmp.bitfusion, &cmp.drq, &cmp.drift}) {
    for (const auto& l : r->layers) {
      EXPECT_GE(l.utilization, 0.0) << r->accelerator << " " << l.layer;
      EXPECT_LE(l.utilization, 1.0 + 1e-9)
          << r->accelerator << " " << l.layer;
    }
  }
}

TEST(Compare, EnergyComponentsNonNegative) {
  const auto cmp = compare_workload(nn::make_deit_s(), quick_config());
  for (const RunResult* r :
       {&cmp.eyeriss, &cmp.bitfusion, &cmp.drq, &cmp.drift}) {
    EXPECT_GE(r->energy.static_pj, 0.0);
    EXPECT_GE(r->energy.dram_pj, 0.0);
    EXPECT_GE(r->energy.buffer_pj, 0.0);
    EXPECT_GE(r->energy.core_pj, 0.0);
  }
}

TEST(Compare, DramBytesOrdering) {
  // FP32 Eyeriss moves by far the most data; the dynamic designs move
  // no more than static INT8.
  const auto cmp = compare_workload(nn::make_bert_base(), quick_config());
  EXPECT_GT(cmp.eyeriss.dram_bytes, cmp.bitfusion.dram_bytes);
  EXPECT_LE(cmp.drq.dram_bytes, cmp.bitfusion.dram_bytes);
  EXPECT_LE(cmp.drift.dram_bytes, cmp.bitfusion.dram_bytes);
}

TEST(Compare, LayerCountsMatchWorkload) {
  const auto spec = nn::make_resnet50();
  const auto cmp = compare_workload(spec, quick_config());
  EXPECT_EQ(cmp.drift.layers.size(), spec.layers.size());
  EXPECT_EQ(cmp.drq.layers.size(), spec.layers.size());
}

TEST(Compare, SeedChangesMixNotOrdering) {
  CompareConfig a = quick_config();
  CompareConfig b = quick_config();
  b.seed = 12345;
  const auto ca = compare_workload(nn::make_deit_s(), a);
  const auto cb = compare_workload(nn::make_deit_s(), b);
  // Different statistical draws give different cycles but the same
  // qualitative ordering.
  EXPECT_NE(ca.drift.cycles, cb.drift.cycles);
  EXPECT_GT(ca.speedup_drift(), ca.speedup_bitfusion());
  EXPECT_GT(cb.speedup_drift(), cb.speedup_bitfusion());
}

TEST(Compare, TimelineConsistentWithSumOfMax) {
  // The double-buffered timeline can exceed the per-layer
  // max(compute, dram) sum only by exposed DRAM, and never undercut
  // the pure compute sum.
  const auto cmp = compare_workload(nn::make_resnet18(), quick_config());
  std::vector<TimelineLayer> tl;
  std::int64_t compute_sum = 0, summax = 0;
  for (const auto& l : cmp.drift.layers) {
    tl.push_back({l.layer, l.compute_cycles, l.dram_cycles});
    compute_sum += l.compute_cycles;
    summax += std::max(l.compute_cycles, l.dram_cycles);
  }
  const auto timeline = build_timeline(tl);
  EXPECT_GE(timeline.total_cycles, compute_sum);
  EXPECT_LE(timeline.total_cycles,
            summax + tl.front().dram_cycles + tl.back().dram_cycles +
                timeline.total_cycles / 10);
  EXPECT_GT(timeline.overlap_fraction, 0.5);
}

TEST(Compare, Bloom7b1TotalsArePinned) {
  // BLOOM-7B1's lm_head (N = 250,880 weight channels) is the largest
  // operand any mix draws, and no CSV or golden covers the model, so
  // `drift_graph compare --model=BLOOM-7B1`'s totals (its defaults are
  // CompareConfig's) are pinned here.
  const auto cmp =
      compare_workload(nn::make_workload("BLOOM-7B1"), CompareConfig{});
  struct Pin {
    const RunResult* run;
    std::int64_t cycles, stall_cycles, dram_bytes;
    double total_pj;
  };
  const Pin pins[] = {
      {&cmp.eyeriss, 34167867501, 709303871, 1881334087680,
       82702196712657.609},
      {&cmp.bitfusion, 10297435932, 0, 122424393728, 22347235908720.641},
      {&cmp.drq, 9925944384, 4038605538, 74770448384, 18480518088115.84},
      {&cmp.drift, 3728254171, 507717412, 45773916160, 8857019964213.6016}};
  for (const Pin& pin : pins) {
    EXPECT_EQ(pin.run->cycles, pin.cycles) << pin.run->accelerator;
    EXPECT_EQ(pin.run->stall_cycles, pin.stall_cycles) << pin.run->accelerator;
    EXPECT_EQ(pin.run->dram_bytes, pin.dram_bytes) << pin.run->accelerator;
    EXPECT_DOUBLE_EQ(pin.run->energy.total_pj(), pin.total_pj)
        << pin.run->accelerator;
  }
}

TEST(Compare, CustomArrayGeometryRespected) {
  CompareConfig cfg = quick_config();
  cfg.hw.array = {16, 16};
  const auto cmp = compare_workload(nn::make_deit_s(), cfg);
  // A 256-unit grid must be slower than the default 792-unit grid for
  // the INT designs.
  const auto big = compare_workload(nn::make_deit_s(), quick_config());
  EXPECT_GT(cmp.bitfusion.cycles, big.bitfusion.cycles);
  EXPECT_GT(cmp.drift.cycles, big.drift.cycles);
}

}  // namespace
}  // namespace drift::accel
