#include "core/noise_budget.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "core/capability.hpp"
#include "util/assert.hpp"

namespace drift::core {

AutoThresholdSummary select_auto_threshold(const StatsView& stats,
                                           const QuantParams& params,
                                           const SelectorConfig& base,
                                           double budget,
                                           std::vector<bool>& low,
                                           double noise_cap) {
  DRIFT_CHECK(budget >= 0.0, "budget must be non-negative");
  DRIFT_CHECK(noise_cap >= 0.0, "noise cap must be non-negative");
  DRIFT_CHECK(stats.size() <= std::numeric_limits<std::uint32_t>::max(),
              "too many sub-tensors for a 32-bit candidate index");
  const int clip_total = base.hp.bits() - base.lp.bits();
  // Precision widths lie in [2, 16], so lc = hp - lp - hc stays < 15.
  constexpr int kMaxClip = 15;
  DRIFT_CHECK(clip_total >= 0 && clip_total < kMaxClip,
              "hp - lp outside the [0, 14] clip range");
  low.assign(stats.size(), false);

  // Probe every sub-tensor at δ = 0: range-feasibility and the chosen
  // (hc, lc) are δ-independent; only the density acceptance moves.
  SelectorConfig probe = base;
  probe.density_threshold = 0.0;

  // Excess rounding noise per element of a conversion with low-end
  // clip lc, for the hp - lp + 1 clips Eq. 5 can choose.
  const double d2 = params.delta * params.delta;
  std::array<double, kMaxClip> excess_per_element{};
  for (int lc = 0; lc <= clip_total; ++lc) {
    excess_per_element[static_cast<std::size_t>(lc)] =
        (std::pow(2.0, 2 * lc) - 1.0) * d2 / 12.0;
  }

  struct Candidate {  // 16 B: the sort moves one per feasible sub-tensor
    double ratio;         ///< Eq. 6 ratio in code units
    std::uint32_t index;  ///< sub-tensor
    std::uint8_t lc;      ///< Eq. 5 low-end clip
    bool free;            ///< adds no noise vs INT8
  };
  std::vector<Candidate> feasible;
  feasible.reserve(stats.size());
  double signal = 0.0;
  std::int64_t total_elements = 0;

  for (std::uint32_t i = 0; i < stats.size(); ++i) {
    const SubTensorStats s = stats[i];
    const std::int64_t size = stats.elements(i);
    DRIFT_CHECK(size > 0, "sub-tensor size must be positive");
    total_elements += size;
    // The damage metric uses the true variance where available
    // (post-ReLU sub-tensors are not zero-mean; the Laplace proxy
    // would overstate how much variation there is to hide noise in).
    const double variance =
        s.mean_sq > 0.0 ? s.true_variance() : s.laplace_variance();
    signal += static_cast<double>(size) * variance;
    const PrecisionDecision d = select_precision(s, params, probe);
    if (!d.use_low) continue;  // range-infeasible: must stay high
    const double per_element =
        excess_per_element[static_cast<std::size_t>(d.choice.lc)];
    // Local density guard: do not wipe out a quiet sub-tensor even if
    // it is globally affordable (the Eq. 6 criterion at the implied δ).
    if (per_element > noise_cap * variance) continue;
    const double rd = representation_density(d.choice.lc, params.delta);
    const double ratio = s.laplace_variance() / (rd * params.delta);
    // drift-lint: allow(narrow) — lc <= hp - lp < kMaxClip (checked above)
    const auto lc = static_cast<std::uint8_t>(d.choice.lc);
    feasible.push_back(Candidate{
        ratio, i, lc, static_cast<double>(size) * per_element == 0.0});
  }

  // Zero-excess conversions (lc = 0: INT8-density-equivalent) are free
  // and always taken; the rest in decreasing Eq. 6 ratio order — the
  // inclusion order a decreasing δ produces.
  std::sort(feasible.begin(), feasible.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.free != b.free) return a.free;
              return a.ratio > b.ratio;
            });

  const double allowance = budget * signal;
  double spent = 0.0;
  std::int64_t low_elements = 0;
  double cut_ratio = std::numeric_limits<double>::infinity();
  for (const Candidate& cand : feasible) {
    const std::int64_t size = stats.elements(cand.index);
    const double excess = static_cast<double>(size) *
                          excess_per_element[cand.lc];
    if (spent + excess > allowance) break;
    spent += excess;
    low_elements += size;
    low[cand.index] = true;
    // The implied δ is the smallest Eq. 6 ratio among *noisy* accepted
    // conversions (free lc = 0 ones sit below any threshold).
    if (excess > 0.0) cut_ratio = std::min(cut_ratio, cand.ratio);
  }

  AutoThresholdSummary result;
  result.delta_threshold = std::isfinite(cut_ratio) ? cut_ratio : 0.0;
  result.excess_relative_mse = signal > 0.0 ? spent / signal : 0.0;
  result.low_fraction_by_elements =
      total_elements > 0
          ? static_cast<double>(low_elements) /
                static_cast<double>(total_elements)
          : 0.0;
  return result;
}

}  // namespace drift::core
