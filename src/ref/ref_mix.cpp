#include "ref/ref_mix.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

// drift-lint: allow(oracle-include) — assertion macro only; shares no
// computational code with the implementations under test.
#include "util/assert.hpp"
// drift-lint: allow(oracle-include) — the seeded stream engine both
// builders draw from; the sampler on top of it is copied below.
#include "util/rng.hpp"

namespace drift::ref {
namespace {

/// AR(1) log-normal scale field with outlier injection.
std::vector<double> scale_field(Rng& rng, std::int64_t count,
                                const nn::SubTensorScaleProfile& profile) {
  DRIFT_CHECK(count > 0, "need at least one sub-tensor");
  std::vector<double> scales(static_cast<std::size_t>(count));
  const double rho = profile.correlation;
  const double innovation = std::sqrt(1.0 - rho * rho);
  double x = rng.normal();
  for (std::int64_t i = 0; i < count; ++i) {
    if (i > 0) x = rho * x + innovation * rng.normal();
    double b = std::exp(profile.log_mean + profile.log_sigma * x);
    if (profile.outlier_fraction > 0.0 &&
        rng.bernoulli(profile.outlier_fraction)) {
      b *= profile.outlier_scale;
    }
    scales[static_cast<std::size_t>(i)] = b;
  }
  return scales;
}

/// Laplace(b) sub-tensor statistics of `elements` values each: avg|Y|
/// by the normal approximation of Gamma(n)/n, max|Y| as b*(ln n +
/// Gumbel), and the zero-mean Laplace moments.
std::vector<core::SubTensorStats> sample_stats(
    Rng& rng, std::int64_t count, std::int64_t elements,
    const nn::SubTensorScaleProfile& profile) {
  DRIFT_CHECK(elements > 1, "need at least two elements per sub-tensor");
  const auto scales = scale_field(rng, count, profile);
  const double n = static_cast<double>(elements);
  const double log_n = std::log(n);
  std::vector<core::SubTensorStats> stats;
  for (double b : scales) {
    const double mean_abs =
        b * std::max(1.0 + rng.normal() / std::sqrt(n), 0.05);
    const double gumbel = -std::log(-std::log(
        std::clamp(rng.uniform(), 1e-12, 1.0 - 1e-12)));
    const double max_abs = std::max(b * (log_n + gumbel), mean_abs);
    stats.push_back(core::SubTensorStats{max_abs, mean_abs, 0.0,
                                         2.0 * mean_abs * mean_abs});
  }
  return stats;
}

/// Equations 5-6 for one sub-tensor: the largest high-end clip whose
/// exact lp range still covers max|Y|, then the Laplace density test
/// in integer-code units.
core::PrecisionDecision eq56_decision(const core::SubTensorStats& stats,
                                      const core::QuantParams& params,
                                      const core::SelectorConfig& config) {
  const int clip_total = config.hp.bits() - config.lp.bits();
  DRIFT_CHECK(clip_total >= 0, "lp wider than hp");
  if (stats.max_abs <= 0.0) {
    return core::PrecisionDecision{true, core::ConversionChoice{clip_total, 0}};
  }
  auto exact_range = [&](int hc) {
    return static_cast<double>(config.lp.max_level()) *
           static_cast<double>(std::int64_t{1} << (clip_total - hc)) *
           params.delta;
  };
  int hc = clip_total;
  while (hc > 0 && exact_range(hc) < stats.max_abs) --hc;
  if (exact_range(hc) < stats.max_abs) {
    return core::PrecisionDecision{false,
                                   core::ConversionChoice{0, clip_total}};
  }
  const int lc = clip_total - hc;
  const double rd = static_cast<double>(std::int64_t{1} << lc) * params.delta;
  const double ratio = 2.0 * stats.mean_abs * stats.mean_abs /
                       (rd * params.delta);
  return core::PrecisionDecision{ratio >= config.density_threshold,
                                 core::ConversionChoice{hc, lc}};
}

core::QuantParams eq1_params(
    const std::vector<core::SubTensorStats>& stats, core::Precision hp) {
  double max_abs = 0.0;
  for (const auto& s : stats) max_abs = std::max(max_abs, s.max_abs);
  core::QuantParams p;
  p.bits = hp;
  p.delta = max_abs > 0.0
                ? max_abs / static_cast<double>(hp.max_level())
                : 1.0;
  return p;
}

/// One operand's in-order low/high pattern under the configured
/// algorithm (all high for a static operand or INT8).
std::vector<bool> classify(const std::vector<core::SubTensorStats>& stats,
                           std::int64_t elements, const nn::MixConfig& config,
                           bool operand_is_dynamic) {
  std::vector<bool> low(stats.size(), false);
  if (!operand_is_dynamic || config.algo == nn::MixAlgorithm::kStaticInt8) {
    return low;
  }
  if (config.algo == nn::MixAlgorithm::kDrift) {
    const auto params = eq1_params(stats, config.drift.hp);
    if (config.auto_threshold) {
      const std::vector<std::int64_t> sizes(stats.size(), elements);
      const auto sel = ref::select_auto_threshold(
          stats, sizes, params, config.drift, config.noise_budget);
      for (std::size_t i = 0; i < stats.size(); ++i) {
        low[i] = sel.decisions[i].use_low;
      }
      return low;
    }
    for (std::size_t i = 0; i < stats.size(); ++i) {
      low[i] = eq56_decision(stats[i], params, config.drift).use_low;
    }
    return low;
  }
  double mean_ref = 0.0;
  for (const auto& s : stats) mean_ref += s.mean_abs;
  mean_ref /= static_cast<double>(stats.size());
  for (std::size_t i = 0; i < stats.size(); ++i) {
    low[i] = stats[i].mean_abs < config.drq.sensitivity * mean_ref;
  }
  return low;
}

}  // namespace

AutoThreshold select_auto_threshold(std::span<const core::SubTensorStats> stats,
                                    std::span<const std::int64_t> sizes,
                                    const core::QuantParams& params,
                                    const core::SelectorConfig& base,
                                    double budget) {
  constexpr double kNoiseCap = 0.125;  // the local density guard
  DRIFT_CHECK(stats.size() == sizes.size(), "stats/sizes mismatch");
  AutoThreshold result;
  result.decisions.assign(stats.size(), core::PrecisionDecision{});
  core::SelectorConfig probe = base;
  probe.density_threshold = 0.0;

  struct Candidate {
    std::size_t index;
    double ratio;
    double excess;
  };
  std::vector<Candidate> feasible;
  double signal = 0.0;
  std::int64_t total_elements = 0;
  const double d2 = params.delta * params.delta;
  for (std::size_t i = 0; i < stats.size(); ++i) {
    DRIFT_CHECK(sizes[i] > 0, "sub-tensor size must be positive");
    total_elements += sizes[i];
    const double variance =
        stats[i].mean_sq > 0.0
            ? std::max(stats[i].mean_sq - stats[i].mean * stats[i].mean, 0.0)
            : 2.0 * stats[i].mean_abs * stats[i].mean_abs;
    signal += static_cast<double>(sizes[i]) * variance;
    const core::PrecisionDecision d = eq56_decision(stats[i], params, probe);
    result.decisions[i] = core::PrecisionDecision{false, d.choice};
    if (!d.use_low) continue;
    const double steps = std::pow(2.0, 2 * d.choice.lc) - 1.0;
    const double excess_per_element = steps * d2 / 12.0;
    if (excess_per_element > kNoiseCap * variance) continue;
    const double rd =
        static_cast<double>(std::int64_t{1} << d.choice.lc) * params.delta;
    const double ratio =
        2.0 * stats[i].mean_abs * stats[i].mean_abs / (rd * params.delta);
    feasible.push_back(Candidate{
        i, ratio, static_cast<double>(sizes[i]) * excess_per_element});
  }
  std::sort(feasible.begin(), feasible.end(),
            [](const Candidate& a, const Candidate& b) {
              const bool a_free = a.excess == 0.0;
              const bool b_free = b.excess == 0.0;
              if (a_free != b_free) return a_free;
              return a.ratio > b.ratio;
            });

  const double allowance = budget * signal;
  double spent = 0.0;
  std::int64_t low_elements = 0;
  double cut_ratio = std::numeric_limits<double>::infinity();
  for (const Candidate& cand : feasible) {
    if (spent + cand.excess > allowance) break;
    spent += cand.excess;
    low_elements += sizes[cand.index];
    result.decisions[cand.index].use_low = true;
    if (cand.excess > 0.0) cut_ratio = std::min(cut_ratio, cand.ratio);
  }
  result.delta_threshold = std::isfinite(cut_ratio) ? cut_ratio : 0.0;
  result.excess_relative_mse = signal > 0.0 ? spent / signal : 0.0;
  result.low_fraction_by_elements =
      total_elements > 0 ? static_cast<double>(low_elements) /
                               static_cast<double>(total_elements)
                         : 0.0;
  return result;
}

std::vector<nn::LayerMix> build_mixes(const nn::WorkloadSpec& spec,
                                      const nn::MixConfig& config) {
  Rng base_rng(config.seed);
  std::vector<nn::LayerMix> mixes;
  std::uint64_t stream = 0;
  for (const nn::LayerGemm& layer : spec.layers) {
    Rng rng = base_rng.fork(stream++);
    const std::int64_t M = layer.dims.M;
    const std::int64_t K = layer.dims.K;
    const std::int64_t N = layer.dims.N;

    // Activations: conv rows decide in 16-row blocks, tokens per row.
    const std::int64_t block =
        layer.kind == nn::LayerKind::kConv ? std::min<std::int64_t>(16, M) : 1;
    const std::int64_t act_elements = std::max<std::int64_t>(K * block, 2);
    const auto act_stats = sample_stats(rng, (M + block - 1) / block,
                                        act_elements, spec.act_profile);
    const auto group_low = classify(act_stats, act_elements, config, true);

    // Weights, or the attention GEMM's second activation operand.
    const bool second_is_act = layer.kind == nn::LayerKind::kAttnScore ||
                               layer.kind == nn::LayerKind::kAttnContext;
    const bool weights_dynamic =
        config.algo == nn::MixAlgorithm::kDrift &&
        (config.dynamic_weights || second_is_act);
    const std::int64_t w_elements = std::max<std::int64_t>(K, 2);
    const auto w_stats =
        sample_stats(rng, N, w_elements,
                     second_is_act ? spec.act_profile : spec.weight_profile);
    const auto w_low = classify(w_stats, w_elements, config, weights_dynamic);

    nn::LayerMix mix;
    mix.layer = layer;
    for (std::int64_t r = 0; r < M; ++r) {
      mix.row_is_low.push_back(group_low[static_cast<std::size_t>(r / block)]);
    }
    mix.work.k = K;
    mix.work.pa_high = config.drift.hp.bits();
    mix.work.pa_low = config.drift.lp.bits();
    mix.work.pw_high = config.drift.hp.bits();
    mix.work.pw_low = config.drift.lp.bits();
    for (bool is_low : mix.row_is_low) {
      (is_low ? mix.work.m_low : mix.work.m_high) += 1;
    }
    mix.work.n_low = std::count(w_low.begin(), w_low.end(), true);
    mix.work.n_high = N - mix.work.n_low;
    mix.act_low_fraction = static_cast<double>(mix.work.m_low) /
                           static_cast<double>(std::max<std::int64_t>(M, 1));
    mix.weight_low_fraction =
        static_cast<double>(mix.work.n_low) /
        static_cast<double>(std::max<std::int64_t>(N, 1));
    mixes.push_back(std::move(mix));
  }
  return mixes;
}

}  // namespace drift::ref
