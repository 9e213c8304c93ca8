// Tests for the automatic (noise-budget) threshold selection — the
// stats-only counterpart of the Hessian-aware minimum-δ rule — through
// select_drift's bits and summarize_selection's summary of them.
#include <gtest/gtest.h>

#include <cmath>

#include "core/selector.hpp"
#include "nn/quant_engine.hpp"
#include "nn/synthetic.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace drift::core {
namespace {

QuantParams params_for(double max_abs) {
  QuantParams p;
  p.delta = max_abs / 127.0;
  return p;
}

/// The sampler's records with their zero-mean Laplace moments filled
/// in (E[Y] = 0, E[Y^2] = 2b^2).
std::vector<SubTensorStats> full_stats(const std::vector<AbsStats>& abs) {
  std::vector<SubTensorStats> stats;
  for (const AbsStats& a : abs) {
    stats.push_back(SubTensorStats{a.max_abs, a.mean_abs, 0.0,
                                   2.0 * a.mean_abs * a.mean_abs});
  }
  return stats;
}

/// The noise-budget selection's low bits and their summary.
struct Selection {
  AutoThresholdSummary summary;
  std::vector<bool> low;
};

Selection select_bits(const std::vector<SubTensorStats>& stats,
                      const std::vector<std::int64_t>& sizes,
                      const QuantParams& p, double budget) {
  const StatsView view(stats, sizes);
  Selection s;
  select_drift(view, p, SelectorConfig{}, budget, s.low);
  s.summary = summarize_selection(view, p, SelectorConfig{}, s.low);
  return s;
}

SubTensorStats laplace_stats(double b, double max_mult = 7.0) {
  SubTensorStats s;
  s.mean_abs = b;
  s.max_abs = b * max_mult;
  s.mean = 0.0;
  s.mean_sq = 2.0 * b * b;
  return s;
}

TEST(NoiseBudget, FreeConversionsAlwaysTaken) {
  // Sub-tensors whose exact 4-bit range covers them at lc = 0 are
  // INT8-equivalent and selected even at zero budget.
  const QuantParams p = params_for(100.0);
  // max = 3.5 << 7*delta*... exact range at hc=4 is 7*delta = 5.5.
  std::vector<SubTensorStats> stats = {laplace_stats(0.5),
                                       laplace_stats(90.0 / 7.0)};
  std::vector<std::int64_t> sizes = {64, 64};
  const Selection r = select_bits(stats, sizes, p, /*budget=*/0.0);
  EXPECT_TRUE(r.low[0]);   // fits lc = 0: free
  EXPECT_EQ(conversion_choice(stats[0].max_abs, p, SelectorConfig{}).lc, 0);
  EXPECT_FALSE(r.low[1]);  // needs lc > 0: costs noise
  EXPECT_DOUBLE_EQ(r.summary.excess_relative_mse, 0.0);
  // A free conversion sits below any threshold: with no noisy one
  // selected, the implied δ is 0, not the free one's Eq. 6 ratio.
  EXPECT_EQ(r.summary.delta_threshold, 0.0);
}

TEST(NoiseBudget, BudgetBuysNoisyConversions) {
  const QuantParams p = params_for(100.0);
  // max 80 < the exact lc=4 range (88.2), so conversion is feasible
  // but carries rounding noise the budget must pay for.
  std::vector<SubTensorStats> stats = {laplace_stats(80.0 / 7.0)};
  std::vector<std::int64_t> sizes = {64};
  const Selection tight = select_bits(stats, sizes, p, 0.0);
  const Selection loose = select_bits(stats, sizes, p, 0.5);
  EXPECT_FALSE(tight.low[0]);
  EXPECT_TRUE(loose.low[0]);
  EXPECT_GT(loose.summary.excess_relative_mse, 0.0);
  EXPECT_LE(loose.summary.excess_relative_mse, 0.5);
}

TEST(NoiseBudget, CoverageMonotoneInBudget) {
  Rng rng(301);
  const auto stats = full_stats(
      nn::sample_subtensor_stats(rng, 512, 768, nn::bert_profile()));
  std::vector<std::int64_t> sizes(stats.size(), 768);
  double max_abs = 0.0;
  for (const auto& s : stats) max_abs = std::max(max_abs, s.max_abs);
  const QuantParams p = params_for(max_abs * 127.0 / 127.0);

  double prev = -1.0;
  for (double budget : {0.0, 0.001, 0.01, 0.05, 0.2}) {
    const AutoThresholdSummary r =
        select_bits(stats, sizes, p, budget).summary;
    EXPECT_GE(r.low_fraction_by_elements, prev);
    EXPECT_LE(r.excess_relative_mse, budget + 1e-12);
    prev = r.low_fraction_by_elements;
  }
}

TEST(NoiseBudget, LocalCapRejectsWipeouts) {
  // A quiet sub-tensor whose lc >= 1 step would exceed the cap times
  // its own variance must stay high even under a huge global budget.
  const QuantParams p = params_for(100.0);
  // max 20 forces lc = 2 (exact range 22.05 at lc = 2): excess noise
  // 15 * delta^2 / 12 ~ 0.775 per element; variance 2*b^2.
  const auto at_lc2 = [](double b) {
    SubTensorStats s = laplace_stats(b);
    s.max_abs = 20.0;
    return s;
  };
  std::vector<SubTensorStats> stats = {at_lc2(0.4), at_lc2(1.5),
                                       at_lc2(2.0)};
  std::vector<std::int64_t> sizes = {64, 64, 64};
  for (const SubTensorStats& s : stats) {
    EXPECT_EQ(conversion_choice(s.max_abs, p, SelectorConfig{}).lc, 2);
  }
  const Selection r = select_bits(stats, sizes, p, /*budget=*/100.0);
  // Variance 0.32: the step would wipe the sub-tensor out.
  EXPECT_FALSE(r.low[0]);
  // Variance 4.5: 0.775 exceeds 1/8 of it, though not 1/4.
  EXPECT_FALSE(r.low[1]);
  // Variance 8: the same step stays under 1/8 of it and converts.
  EXPECT_TRUE(r.low[2]);
}

TEST(NoiseBudget, TrueVarianceGuardsShiftedData) {
  // Post-ReLU-like sub-tensor: large mean_abs (so the Laplace proxy
  // sees lots of "variance") but tiny true variation.  The true
  // variance accumulator must prevent the wipe-out.
  const QuantParams p = params_for(100.0);
  SubTensorStats shifted;
  shifted.mean_abs = 10.0;
  shifted.mean = 10.0;           // all values near +10
  shifted.mean_sq = 100.4;       // true variance = 0.4
  shifted.max_abs = 20.0;        // forces lc = 2, step ~ 3.1
  std::vector<SubTensorStats> stats = {shifted};
  std::vector<std::int64_t> sizes = {64};
  EXPECT_FALSE(select_bits(stats, sizes, p, 100.0).low[0]);
}

TEST(NoiseBudget, ImpliedDeltaReproducesSelection) {
  // Running Eq. 5-6 at the reported δ must accept every selected
  // sub-tensor whose conversion carries noise (the δ cut property).
  Rng rng(307);
  const auto stats = full_stats(
      nn::sample_subtensor_stats(rng, 256, 512, nn::llm_profile()));
  std::vector<std::int64_t> sizes(stats.size(), 512);
  double max_abs = 0.0;
  for (const auto& s : stats) max_abs = std::max(max_abs, s.max_abs);
  QuantParams p;
  p.delta = max_abs / 127.0;
  const Selection r = select_bits(stats, sizes, p, 0.02);
  SelectorConfig at_cut;
  at_cut.density_threshold = r.summary.delta_threshold;
  for (std::size_t i = 0; i < stats.size(); ++i) {
    if (!r.low[i]) continue;
    // Free (lc = 0) conversions sit below any δ.
    if (conversion_choice(stats[i].max_abs, p, at_cut).lc == 0) continue;
    EXPECT_TRUE(select_precision(stats[i], p, at_cut).use_low) << i;
  }
}

TEST(NoiseBudget, MapMatchesDecisions) {
  // The engine's Drift map on a real tensor carries the selection's
  // bits and each sub-tensor's Eq. 5 conversion.
  Rng rng(311);
  const TensorF x = nn::synth_rows(rng, 64, 128, nn::bert_profile());
  const auto views = partition_rows(x.shape());
  const QuantParams p = compute_quant_params(x.data(), kInt8);
  const std::vector<SubTensorStats> stats = compute_stats(views, x.data());
  const Selection sel = select_bits(
      stats, std::vector<std::int64_t>(stats.size(), 128), p, 0.05);
  nn::QuantEngine::Config cfg;
  cfg.mode = nn::QuantMode::kDrift;
  cfg.noise_budget = 0.05;
  const PrecisionMap map = nn::QuantEngine(cfg).select(x.data(), views, p);
  ASSERT_EQ(map.num_subtensors(), sel.low.size());
  for (std::size_t i = 0; i < sel.low.size(); ++i) {
    EXPECT_EQ(map.decision(i).use_low, sel.low[i]);
    EXPECT_EQ(map.decision(i).choice.lc,
              conversion_choice(stats[i].max_abs, p, SelectorConfig{}).lc);
  }
  EXPECT_NEAR(map.low_fraction_by_elements(),
              sel.summary.low_fraction_by_elements, 1e-12);
}

TEST(NoiseBudget, MismatchedSizesThrow) {
  std::vector<SubTensorStats> stats(3);
  std::vector<std::int64_t> sizes(2, 10);
  const QuantParams p;
  EXPECT_THROW(select_bits(stats, sizes, p, 0.1), drift::check_error);
}

}  // namespace
}  // namespace drift::core
