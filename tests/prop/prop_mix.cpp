// Differential suite: nn::build_mixes, which draws each layer's
// statistics once for every algorithm, keeps only max|Y| and avg|Y| and
// skips the draws no decision reads, vs. the fused per-layer loop in
// src/ref/ref_mix.cpp, which draws everything for one algorithm.  Every
// LayerMix field must agree bit for bit, and so must the noise-budget
// selection on ragged sizes and tied Eq. 6 ratios.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/selector.hpp"
#include "nn/precision_mix.hpp"
#include "proptest/proptest_gtest.hpp"
#include "ref/ref_mix.hpp"

namespace drift {
namespace {

constexpr nn::LayerKind kKinds[] = {
    nn::LayerKind::kConv,       nn::LayerKind::kFc,
    nn::LayerKind::kQkvProj,    nn::LayerKind::kAttnScore,
    nn::LayerKind::kAttnContext, nn::LayerKind::kOutProj,
    nn::LayerKind::kFfn,        nn::LayerKind::kEmbed};

/// A few GEMMs of random kinds: conv layers with M below the 16-row
/// block, N = 1 and K = 1 edges, and both attention GEMMs.
nn::WorkloadSpec gen_spec(Rng& rng, int size) {
  nn::WorkloadSpec spec;
  spec.model = "prop";
  const nn::SubTensorScaleProfile profiles[] = {
      nn::cnn_profile(), nn::vit_profile(), nn::bert_profile(),
      nn::llm_profile()};
  spec.act_profile = profiles[rng.uniform_int(0, 3)];
  spec.weight_profile = nn::weight_profile();
  const std::int64_t layers = rng.uniform_int(1, 4);
  for (std::int64_t l = 0; l < layers; ++l) {
    nn::LayerGemm layer;
    layer.name = "l";
    layer.name += std::to_string(l);
    layer.kind = kKinds[rng.uniform_int(0, 7)];
    layer.dims = {proptest::gen_dim(rng, 4 * size),
                  proptest::gen_dim(rng, size),
                  proptest::gen_dim(rng, 4 * size)};
    layer.repeat = rng.uniform_int(1, 3);
    spec.layers.push_back(layer);
  }
  return spec;
}

nn::MixConfig gen_mix_config(Rng& rng, std::uint64_t seed) {
  nn::MixConfig c;
  c.algo = static_cast<nn::MixAlgorithm>(rng.uniform_int(0, 2));
  c.drift = proptest::gen_selector_config(rng);
  c.drq.sensitivity = rng.uniform(0.5, 1.5);
  c.dynamic_weights = rng.bernoulli(0.5);
  c.auto_threshold = rng.bernoulli(0.7);
  c.noise_budget = rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.0, 0.2);
  c.seed = seed;
  return c;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

proptest::Result compare_mixes(const std::vector<nn::LayerMix>& got,
                               const std::vector<nn::LayerMix>& want,
                               const nn::MixConfig& config) {
  if (got.size() != want.size()) {
    return proptest::fail("layer count ", got.size(), " vs ", want.size());
  }
  for (std::size_t l = 0; l < got.size(); ++l) {
    const nn::LayerMix& g = got[l];
    const nn::LayerMix& w = want[l];
    const bool same_layer =
        g.layer.name == w.layer.name && g.layer.kind == w.layer.kind &&
        g.layer.dims.M == w.layer.dims.M && g.layer.dims.K == w.layer.dims.K &&
        g.layer.dims.N == w.layer.dims.N && g.layer.repeat == w.layer.repeat &&
        g.layer.kernel == w.layer.kernel;
    if (!same_layer || g.work != w.work || g.row_is_low != w.row_is_low ||
        !same_bits(g.act_low_fraction, w.act_low_fraction) ||
        !same_bits(g.weight_low_fraction, w.weight_low_fraction)) {
      return proptest::fail(
          "layer ", l, " (kind ", static_cast<int>(w.layer.kind),
          " M=", w.layer.dims.M,
          " K=", w.layer.dims.K, " N=", w.layer.dims.N, ") under ",
          nn::to_string(config.algo), " auto=", config.auto_threshold,
          " dynamic_weights=", config.dynamic_weights, ": m_low ",
          g.work.m_low, " vs ", w.work.m_low, ", n_low ", g.work.n_low,
          " vs ", w.work.n_low);
    }
  }
  return proptest::pass();
}

TEST(PropMix, BuildMixesMatchesFusedLoopOracleBitwise) {
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    const nn::WorkloadSpec spec = gen_spec(rng, size);
    const auto seed = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
    const nn::MixConfig config = gen_mix_config(rng, seed);
    const auto want = ref::build_mixes(spec, config);
    if (auto r = compare_mixes(nn::build_mixes(spec, config), want, config)) {
      return r;
    }
    // The serving path: one layer's activation pattern from its stream.
    const Rng base(seed);
    for (std::size_t l = 0; l < spec.layers.size(); ++l) {
      Rng rng_l = base.fork(l);
      if (nn::build_act_pattern(spec.layers[l], rng_l, spec.act_profile,
                                config) != want[l].row_is_low) {
        return proptest::fail("build_act_pattern differs on layer ", l);
      }
    }
    return proptest::pass();
  });
}

TEST(PropMix, SharedDrawMatchesOneOracleRunPerAlgorithm) {
  // compare_workload's call: INT8, DRQ and Drift classify one draw.
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    const nn::WorkloadSpec spec = gen_spec(rng, size);
    const auto seed = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
    std::vector<nn::MixConfig> configs;
    const std::int64_t count = rng.uniform_int(1, 4);
    for (std::int64_t a = 0; a < count; ++a) {
      configs.push_back(gen_mix_config(rng, seed));
    }
    const auto got = nn::build_mixes(spec, configs);
    for (std::size_t a = 0; a < configs.size(); ++a) {
      if (auto r = compare_mixes(got[a], ref::build_mixes(spec, configs[a]),
                                 configs[a])) {
        return proptest::fail("config ", a, " of ", configs.size(), ": ", *r);
      }
    }
    return proptest::pass();
  });
}

/// Pooling statistics with ragged sizes, all-zero sub-tensors, shifted
/// (non-zero-mean) ones and duplicated records, so ratios tie.
struct SelectionCase {
  std::vector<core::SubTensorStats> stats;
  std::vector<std::int64_t> sizes;
  core::QuantParams params;
  core::SelectorConfig cfg;
  double budget = 0.0;
};

SelectionCase gen_selection_case(Rng& rng, int size) {
  SelectionCase c;
  const std::int64_t n = proptest::gen_dim(rng, 4 * size);
  double max_abs = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    if (i > 0 && rng.bernoulli(0.3)) {  // a tie with an earlier record
      const core::SubTensorStats earlier =
          c.stats[static_cast<std::size_t>(rng.uniform_int(0, i - 1))];
      c.stats.push_back(earlier);
    } else if (rng.bernoulli(0.05)) {
      c.stats.push_back(core::SubTensorStats{});
    } else {
      const double b = std::exp(rng.uniform(-4.0, 1.0));
      core::SubTensorStats s{b * rng.uniform(1.0, 12.0), b, 0.0, 2.0 * b * b};
      if (rng.bernoulli(0.2)) {
        s.mean = b * rng.uniform(-1.0, 1.0);
        s.mean_sq = s.mean * s.mean + b * b * rng.uniform(0.0, 2.0);
      }
      c.stats.push_back(s);
    }
    max_abs = std::max(max_abs, c.stats.back().max_abs);
    c.sizes.push_back(rng.bernoulli(0.5) ? 64 : rng.uniform_int(1, 4096));
  }
  c.cfg = proptest::gen_selector_config(rng);
  c.params.delta = max_abs > 0.0
                       ? max_abs / static_cast<double>(c.cfg.hp.max_level())
                       : 1.0;
  c.budget = rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.0, 0.3);
  return c;
}

/// The index-order excess sum S of the sub-tensors `decisions` takes,
/// and the signal the allowance scales.
struct BudgetEdge {
  double excess_sum = 0.0;
  double signal = 0.0;
};

BudgetEdge index_order_excess(
    const SelectionCase& c,
    const std::vector<core::PrecisionDecision>& decisions) {
  const double d2 = c.params.delta * c.params.delta;
  BudgetEdge edge;
  for (std::size_t i = 0; i < c.stats.size(); ++i) {
    const core::SubTensorStats& s = c.stats[i];
    const auto size = static_cast<double>(c.sizes[i]);
    edge.signal += size * (s.mean_sq > 0.0 ? s.true_variance()
                                           : s.laplace_variance());
    const core::PrecisionDecision& d = decisions[i];
    if (d.use_low) {
      edge.excess_sum += size * ((std::ldexp(1.0, 2 * d.choice.lc) - 1.0) *
                                 d2 / 12.0);
    }
  }
  return edge;
}

/// select_drift's bits and summarize_selection's summary against the
/// oracle's decisions: the bits, δ and the low fraction bit for bit,
/// and the excess as the index-order sum over the oracle's decisions.
proptest::Result expect_oracle_selection(const SelectionCase& c,
                                         const core::StatsView& view) {
  const auto want = ref::select_auto_threshold(c.stats, c.sizes, c.params,
                                               c.cfg, c.budget);
  std::vector<bool> low;
  core::select_drift(view, c.params, c.cfg, c.budget, low);
  const auto got = core::summarize_selection(view, c.params, c.cfg, low);
  const BudgetEdge edge = index_order_excess(c, want.decisions);
  const double want_excess =
      edge.signal > 0.0 ? edge.excess_sum / edge.signal : 0.0;
  if (!same_bits(got.delta_threshold, want.delta_threshold) ||
      !same_bits(got.excess_relative_mse, want_excess) ||
      !same_bits(got.low_fraction_by_elements,
                 want.low_fraction_by_elements)) {
    return proptest::fail("summary differs at ", c.stats.size(),
                          " sub-tensors: delta ", got.delta_threshold,
                          " vs ", want.delta_threshold, ", excess ",
                          got.excess_relative_mse, " vs ", want_excess);
  }
  for (std::size_t i = 0; i < c.stats.size(); ++i) {
    const core::ConversionChoice g =
        core::conversion_choice(c.stats[i].max_abs, c.params, c.cfg);
    const auto& w = want.decisions[i];
    if (low[i] != w.use_low || g.hc != w.choice.hc || g.lc != w.choice.lc) {
      return proptest::fail("sub-tensor ", i, " of ", c.stats.size(),
                            ": use_low ", low[i], " vs ", w.use_low,
                            ", lc ", g.lc, " vs ", w.choice.lc);
    }
  }
  return proptest::pass();
}

TEST(PropMix, AutoThresholdMatchesOracleOnRaggedSizesAndTies) {
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    const SelectionCase c = gen_selection_case(rng, size);
    return expect_oracle_selection(c, core::StatsView(c.stats, c.sizes));
  });
}

TEST(PropMix, TwoFieldRecordsSelectLikeTheirFullStatistics) {
  // The mix path's view: AbsStats plus one element count for all.
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    SelectionCase c = gen_selection_case(rng, size);
    std::vector<core::AbsStats> abs;
    for (core::SubTensorStats& s : c.stats) {
      abs.push_back(core::AbsStats{s.max_abs, s.mean_abs});
      // The zero-mean Laplace moments a two-field record stands for.
      s = core::SubTensorStats{s.max_abs, s.mean_abs, 0.0,
                               2.0 * s.mean_abs * s.mean_abs};
    }
    const std::int64_t elements = rng.uniform_int(2, 4096);
    c.sizes.assign(c.stats.size(), elements);
    return expect_oracle_selection(c, core::StatsView(abs, elements));
  });
}

/// The oracle's low bits at `budget`.
std::vector<bool> oracle_low(const SelectionCase& c, double budget) {
  const auto sel = ref::select_auto_threshold(c.stats, c.sizes, c.params,
                                              c.cfg, budget);
  std::vector<bool> low;
  for (const auto& d : sel.decisions) low.push_back(d.use_low);
  return low;
}

/// select_drift's bits-only noise-budget selection, which may skip the
/// sort.
std::vector<bool> drift_low(const SelectionCase& c, double budget) {
  std::vector<bool> low;
  core::select_drift(core::StatsView(c.stats, c.sizes), c.params, c.cfg,
                     budget, low);
  return low;
}

proptest::Result expect_oracle_bits(const SelectionCase& c, double budget) {
  const std::vector<bool> want = oracle_low(c, budget);
  const std::vector<bool> got = drift_low(c, budget);
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (got[i] != want[i]) {
      return proptest::fail("budget ", budget, ", sub-tensor ", i, " of ",
                            want.size(), ": bit ", got[i], " vs ", want[i]);
    }
  }
  return proptest::pass();
}

/// The index-order excess sum S of every sub-tensor an unbounded budget
/// takes, and the signal: the two numbers the skip compares.
BudgetEdge budget_edge(const SelectionCase& c) {
  return index_order_excess(
      c, ref::select_auto_threshold(c.stats, c.sizes, c.params, c.cfg,
                                    std::numeric_limits<double>::infinity())
             .decisions);
}

TEST(PropMix, BitsOnlySelectionMatchesOracleAtTheBudgetEdge) {
  // Budgets whose allowance lands a few ulps on either side of S, where
  // a sorted-order sum a rounding above S makes the budget bind.
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    const SelectionCase c = gen_selection_case(rng, size);
    if (auto r = expect_oracle_bits(c, c.budget)) return r;
    const BudgetEdge edge = budget_edge(c);
    if (!(edge.excess_sum > 0.0 && edge.signal > 0.0)) {
      return proptest::pass();
    }
    const double at_edge = edge.excess_sum / edge.signal;
    double below = at_edge, above = at_edge;
    if (auto r = expect_oracle_bits(c, at_edge)) return r;
    for (int ulps = 0; ulps < 24; ++ulps) {
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, std::numeric_limits<double>::infinity());
      if (auto r = expect_oracle_bits(c, below)) return r;
      if (auto r = expect_oracle_bits(c, above)) return r;
    }
    return proptest::pass();
  });
}

TEST(PropMix, BitsOnlySelectionMatchesOracleAtZeroBudgetAndInfiniteSignal) {
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    // Budget 0 takes every free sub-tensor (max|Y| within the lp range
    // at lc = 0, or all-zero) and no noisy one (each needs lc >= 1).
    SelectionCase c;
    c.params.delta = std::exp(rng.uniform(-4.0, 1.0));
    const double lp_top =
        static_cast<double>(c.cfg.lp.max_level()) * c.params.delta;
    const int clip_total = c.cfg.hp.bits() - c.cfg.lp.bits();
    for (const bool noisy : {false, true}) {
      c.stats.clear();
      c.sizes.clear();
      const std::int64_t n = proptest::gen_dim(rng, 4 * size);
      for (std::int64_t i = 0; i < n; ++i) {
        const double max_abs =
            noisy ? lp_top * rng.uniform(1.01, 0.99 * (1 << clip_total))
            : rng.bernoulli(0.1) ? 0.0
                                 : lp_top * rng.uniform(0.0, 1.0);
        const double b = max_abs / rng.uniform(3.0, 5.0);
        c.stats.push_back(core::SubTensorStats{max_abs, b, 0.0, 2.0 * b * b});
        c.sizes.push_back(rng.uniform_int(1, 4096));
      }
      const std::vector<bool> taken = oracle_low(c, 0.0);
      const auto count = std::count(taken.begin(), taken.end(), true);
      if (count != (noisy ? 0 : n)) {
        return proptest::fail("case construction: ", count, " of ", n,
                              " taken at budget 0, noisy=", noisy);
      }
      if (auto r = expect_oracle_bits(c, 0.0)) return r;
    }
    // An infinite signal makes the allowance infinite, or NaN at budget
    // 0; the oracle then takes every feasible sub-tensor.
    c = gen_selection_case(rng, size);
    c.stats[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(c.stats.size()) -
                                       1))]
        .mean_sq = std::numeric_limits<double>::infinity();
    if (auto r = expect_oracle_bits(c, 0.0)) return r;
    return expect_oracle_bits(c, c.budget);
  });
}

}  // namespace
}  // namespace drift
