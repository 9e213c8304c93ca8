#include "core/noise_budget.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/capability.hpp"
#include "util/assert.hpp"

namespace drift::core {

AutoThresholdResult select_auto_threshold(
    std::span<const SubTensorStats> stats,
    std::span<const std::int64_t> sizes, const QuantParams& params,
    const SelectorConfig& base, double budget, double noise_cap) {
  DRIFT_CHECK_EQ(stats.size(), sizes.size(), "stats/sizes mismatch");
  DRIFT_CHECK(budget >= 0.0, "budget must be non-negative");
  DRIFT_CHECK(noise_cap >= 0.0, "noise cap must be non-negative");

  AutoThresholdResult result;
  result.decisions.assign(stats.size(), PrecisionDecision{});

  // Probe every sub-tensor at δ = 0: range-feasibility and the chosen
  // (hc, lc) are δ-independent; only the density acceptance moves.
  SelectorConfig probe = base;
  probe.density_threshold = 0.0;

  struct Candidate {
    std::size_t index;
    double ratio;       ///< Eq. 6 ratio in code units
    double excess;      ///< extra noise vs INT8, absolute
  };
  std::vector<Candidate> feasible;
  feasible.reserve(stats.size());
  double signal = 0.0;
  std::int64_t total_elements = 0;
  const double d2 = params.delta * params.delta;

  for (std::size_t i = 0; i < stats.size(); ++i) {
    DRIFT_CHECK(sizes[i] > 0, "sub-tensor size must be positive");
    total_elements += sizes[i];
    // The damage metric uses the true variance where available
    // (post-ReLU sub-tensors are not zero-mean; the Laplace proxy
    // would overstate how much variation there is to hide noise in).
    const double variance = stats[i].mean_sq > 0.0
                                ? stats[i].true_variance()
                                : stats[i].laplace_variance();
    signal += static_cast<double>(sizes[i]) * variance;
    const PrecisionDecision d = select_precision(stats[i], params, probe);
    result.decisions[i] = PrecisionDecision{false, d.choice};
    if (!d.use_low) continue;  // range-infeasible: must stay high
    const double steps = std::pow(2.0, 2 * d.choice.lc) - 1.0;
    const double excess_per_element = steps * d2 / 12.0;
    // Local density guard: do not wipe out a quiet sub-tensor even if
    // it is globally affordable (the Eq. 6 criterion at the implied δ).
    if (excess_per_element > noise_cap * variance) {
      continue;
    }
    const double excess =
        static_cast<double>(sizes[i]) * excess_per_element;
    const double rd = representation_density(d.choice.lc, params.delta);
    const double ratio =
        stats[i].laplace_variance() / (rd * params.delta);
    feasible.push_back(Candidate{i, ratio, excess});
  }

  // Zero-excess conversions (lc = 0: INT8-density-equivalent) are free
  // and always taken; the rest in decreasing Eq. 6 ratio order — the
  // inclusion order a decreasing δ produces.
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
    // The implied δ is the smallest Eq. 6 ratio among *noisy* accepted
    // conversions (free lc = 0 ones sit below any threshold).
    if (cand.excess > 0.0) cut_ratio = std::min(cut_ratio, cand.ratio);
  }

  result.delta_threshold = std::isfinite(cut_ratio) ? cut_ratio : 0.0;
  result.excess_relative_mse = signal > 0.0 ? spent / signal : 0.0;
  result.low_fraction_by_elements =
      total_elements > 0
          ? static_cast<double>(low_elements) /
                static_cast<double>(total_elements)
          : 0.0;
  return result;
}

PrecisionMap auto_threshold_map(std::span<const SubTensorStats> stats,
                                std::span<const std::int64_t> sizes,
                                const QuantParams& params,
                                const SelectorConfig& base, double budget,
                                double noise_cap) {
  AutoThresholdResult r =
      select_auto_threshold(stats, sizes, params, base, budget, noise_cap);
  std::vector<std::int64_t> size_vec(sizes.begin(), sizes.end());
  return PrecisionMap(std::move(r.decisions), std::move(size_vec), base);
}

}  // namespace drift::core
