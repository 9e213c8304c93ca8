// Tests for the analytical latency model (Equation 7) and the balanced
// online scheduler (Equation 8).
#include <gtest/gtest.h>

#include "core/analytical_model.hpp"
#include "core/scheduler.hpp"
#include "nn/precision_mix.hpp"
#include "util/assert.hpp"

namespace drift::core {
namespace {

TEST(AnalyticalModel, HandComputedExample) {
  // M=100, K=96, N=528 at 8x8 on 24x33:
  // reps = ceil(8*96/96) * ceil(8*528/528) = 8 * 8 = 64
  // per-tile = R + (M + R + C - 2) = 24 + 100 + 24 + 33 - 2 = 179.
  const GemmDims g{100, 96, 528};
  const ArrayDims a{24, 33};
  EXPECT_EQ(ws_tile_repetitions(g, 8, 8, a), 64);
  EXPECT_EQ(ws_latency_cycles(g, 8, 8, a), 179 * 64);
}

TEST(AnalyticalModel, PrecisionScalesRepetitions) {
  const GemmDims g{64, 256, 512};
  const ArrayDims a{16, 16};
  const auto reps88 = ws_tile_repetitions(g, 8, 8, a);
  const auto reps48 = ws_tile_repetitions(g, 4, 8, a);
  const auto reps44 = ws_tile_repetitions(g, 4, 4, a);
  EXPECT_EQ(reps88, 2 * reps48);
  EXPECT_EQ(reps48, 2 * reps44);
}

TEST(AnalyticalModel, EmptyWorkIsFree) {
  EXPECT_EQ(ws_latency_cycles({0, 10, 10}, 8, 8, {4, 4}), 0);
  EXPECT_EQ(ws_latency_cycles({10, 10, 0}, 8, 8, {4, 4}), 0);
}

TEST(AnalyticalModel, ZeroArrayWithWorkIsInfeasible) {
  EXPECT_EQ(ws_latency_cycles({10, 10, 10}, 8, 8, {0, 4}),
            kInfeasibleLatency);
  EXPECT_EQ(ws_latency_cycles({10, 10, 10}, 8, 8, {4, 0}),
            kInfeasibleLatency);
}

TEST(AnalyticalModel, MoreRowsNeverIncreaseTileCount) {
  const GemmDims g{32, 300, 300};
  for (std::int64_t r = 1; r < 64; ++r) {
    const auto a = ws_tile_repetitions(g, 8, 8, {r, 16});
    const auto b = ws_tile_repetitions(g, 8, 8, {r + 1, 16});
    EXPECT_GE(a, b);
  }
}

LayerWork typical_work() {
  LayerWork w;
  w.m_high = 40;
  w.m_low = 160;
  w.n_high = 100;
  w.n_low = 412;
  w.k = 768;
  return w;
}

TEST(QuadrantLatencies, EmptyClassCostsNothing) {
  LayerWork w = typical_work();
  w.m_high = 0;
  const auto lat = quadrant_latencies(w, {24, 33}, 0, 16);
  EXPECT_EQ(lat[static_cast<int>(Quadrant::kHH)], 0);
  EXPECT_EQ(lat[static_cast<int>(Quadrant::kHL)], 0);
}

TEST(QuadrantLatencies, NonEmptyClassOnZeroSliceIsInfeasible) {
  const auto lat = quadrant_latencies(typical_work(), {24, 33}, 0, 16);
  EXPECT_EQ(lat[static_cast<int>(Quadrant::kHH)], kInfeasibleLatency);
}

TEST(Scheduler, GreedyMatchesExhaustiveOnTypicalWork) {
  const ArrayDims total{24, 33};
  const auto greedy = schedule_greedy(typical_work(), total);
  const auto oracle = schedule_exhaustive(typical_work(), total);
  // Greedy is allowed to tie-break differently but must reach the
  // oracle makespan within a few percent.
  EXPECT_LE(static_cast<double>(greedy.makespan),
            1.05 * static_cast<double>(oracle.makespan));
}

class SchedulerSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int, int>> {};

TEST_P(SchedulerSweep, GreedyNearOracleAcrossMixes) {
  const auto [mh, ml, nh, nl, k] = GetParam();
  LayerWork w;
  w.m_high = mh;
  w.m_low = ml;
  w.n_high = nh;
  w.n_low = nl;
  w.k = k;
  const ArrayDims total{24, 33};
  const auto greedy = schedule_greedy(w, total);
  const auto oracle = schedule_exhaustive(w, total);
  EXPECT_LE(static_cast<double>(greedy.makespan),
            1.10 * static_cast<double>(oracle.makespan))
      << "mh=" << mh << " ml=" << ml << " nh=" << nh << " nl=" << nl;
  // And both must be feasible.
  EXPECT_LT(greedy.makespan, kInfeasibleLatency);
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, SchedulerSweep,
    ::testing::Values(std::make_tuple(10, 190, 50, 450, 512),
                      std::make_tuple(100, 100, 250, 250, 256),
                      std::make_tuple(190, 10, 450, 50, 1024),
                      std::make_tuple(0, 200, 0, 500, 512),
                      std::make_tuple(200, 0, 500, 0, 512),
                      std::make_tuple(1, 199, 499, 1, 128),
                      std::make_tuple(37, 91, 333, 77, 96),
                      std::make_tuple(5, 5, 5, 5, 64)));

TEST(Scheduler, BalancedBeatsFixedQuarterOnSkewedMix) {
  // 95% low work: a fixed half/half split starves the low arrays.
  LayerWork w;
  w.m_high = 10;
  w.m_low = 190;
  w.n_high = 25;
  w.n_low = 487;
  w.k = 768;
  const ArrayDims total{24, 33};
  const auto balanced = schedule_greedy(w, total);
  const auto fixed = schedule_fixed_quarters(w, total);
  EXPECT_LT(balanced.makespan, fixed.makespan);
}

TEST(Scheduler, AllHighWorkNeverWorseThanWholeArray) {
  // With only hh work the scheduler may still shrink the array when a
  // smaller slice balances tile count against fill/drain overhead, but
  // it can never do worse than simply using everything.
  LayerWork w;
  w.m_high = 128;
  w.n_high = 512;
  w.k = 768;
  const ArrayDims total{24, 33};
  const auto d = schedule_exhaustive(w, total);
  EXPECT_LE(d.makespan, ws_latency_cycles({128, 768, 512}, 8, 8, total));
  EXPECT_LT(d.makespan, kInfeasibleLatency);
}

TEST(Scheduler, MakespanIsMaxOfQuadrants) {
  const auto d = schedule_greedy(typical_work(), {24, 33});
  std::int64_t peak = 0;
  for (auto l : d.latency) peak = std::max(peak, l);
  EXPECT_EQ(d.makespan, peak);
}

TEST(Scheduler, FixedQuartersFeasibleOnDegenerateMixes) {
  LayerWork w;
  w.m_high = 0;
  w.m_low = 100;
  w.n_high = 0;
  w.n_low = 200;
  w.k = 64;
  const auto d = schedule_fixed_quarters(w, {24, 33});
  EXPECT_LT(d.makespan, kInfeasibleLatency);
}

TEST(LayerWork, MakeFromMapsCountsClasses) {
  // nn::assemble_mix is the one builder of a LayerWork: it counts the
  // activation rows' low/high decisions and takes the low weight-channel
  // count, at the selector's hp/lp widths.
  nn::MixConfig cfg;
  cfg.drift.hp = kInt8;
  cfg.drift.lp = Precision(3);
  nn::LayerGemm layer;
  layer.name = "fc";
  layer.dims = GemmDims{3, 16, 2};
  const nn::LayerMix mix =
      nn::assemble_mix(layer, {true, false, true}, /*n_low=*/1, cfg);
  const LayerWork& w = mix.work;
  EXPECT_EQ(w.m_low, 2);
  EXPECT_EQ(w.m_high, 1);
  EXPECT_EQ(w.n_low, 1);
  EXPECT_EQ(w.n_high, 1);
  EXPECT_EQ(w.k, 16);
  EXPECT_EQ(w.pa_high, 8);
  EXPECT_EQ(w.pa_low, 3);
  EXPECT_EQ(w.pw_low, 3);
  EXPECT_EQ(w.total_macs(), 3 * 16 * 2);
  EXPECT_DOUBLE_EQ(mix.act_low_fraction, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(mix.weight_low_fraction, 0.5);
}

}  // namespace
}  // namespace drift::core
