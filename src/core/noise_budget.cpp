#include "core/noise_budget.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "core/capability.hpp"
#include "util/assert.hpp"

namespace drift::core {
namespace {

// Precision widths lie in [2, 16], so lc = hp - lp - hc stays < 15.
constexpr int kMaxClip = 15;

/// Excess rounding noise per element of a conversion with low-end clip
/// lc, ((2^lc Δ)^2 - Δ^2) / 12, for the hp - lp + 1 clips Eq. 5 can
/// choose.
using ExcessTable = std::array<double, kMaxClip>;

/// Checks a selection's inputs and tabulates its excess noise.
ExcessTable excess_table(const StatsView& stats, const QuantParams& params,
                         const SelectorConfig& base, double budget,
                         double noise_cap) {
  DRIFT_CHECK(budget >= 0.0, "budget must be non-negative");
  DRIFT_CHECK(noise_cap >= 0.0, "noise cap must be non-negative");
  DRIFT_CHECK(stats.size() <= std::numeric_limits<std::uint32_t>::max(),
              "too many sub-tensors for a 32-bit candidate index");
  const int clip_total = base.hp.bits() - base.lp.bits();
  DRIFT_CHECK(clip_total >= 0 && clip_total < kMaxClip,
              "hp - lp outside the [0, 14] clip range");
  const double d2 = params.delta * params.delta;
  ExcessTable excess{};
  for (int lc = 0; lc <= clip_total; ++lc) {
    // 4^lc <= 2^28 is exact in a double.
    const auto steps = static_cast<double>(std::int64_t{1} << (2 * lc));
    excess[static_cast<std::size_t>(lc)] = (steps - 1.0) * d2 / 12.0;
  }
  return excess;
}

/// What the probe of every sub-tensor finds.
struct Probe {
  double signal = 0.0;  ///< Σ size × variance
  std::int64_t elements = 0;
  double excess = 0.0;  ///< Σ size × excess of the marked, in index order
  std::int64_t marked = 0;
  std::vector<std::uint8_t> clips;  ///< Eq. 5 low-end clip of each marked
};

/// Probes every sub-tensor at δ = 0 and marks in `low` each one a
/// conversion may take.  Range-feasibility and the chosen (hc, lc) are
/// δ-independent; only the density acceptance moves.
Probe probe(const StatsView& stats, const QuantParams& params,
            const SelectorConfig& base, double noise_cap,
            const ExcessTable& excess, std::vector<bool>& low) {
  SelectorConfig at_zero = base;
  at_zero.density_threshold = 0.0;
  low.assign(stats.size(), false);
  Probe p;
  p.clips.assign(stats.size(), 0);
  for (std::uint32_t i = 0; i < stats.size(); ++i) {
    const SubTensorStats s = stats[i];
    const std::int64_t size = stats.elements(i);
    DRIFT_CHECK(size > 0, "sub-tensor size must be positive");
    p.elements += size;
    // The damage metric uses the true variance where available
    // (post-ReLU sub-tensors are not zero-mean; the Laplace proxy
    // would overstate how much variation there is to hide noise in).
    const double variance =
        s.mean_sq > 0.0 ? s.true_variance() : s.laplace_variance();
    p.signal += static_cast<double>(size) * variance;
    const PrecisionDecision d = select_precision(s, params, at_zero);
    if (!d.use_low) continue;  // range-infeasible: must stay high
    const double per_element =
        excess[static_cast<std::size_t>(d.choice.lc)];
    // Local density guard: do not wipe out a quiet sub-tensor even if
    // it is globally affordable (the Eq. 6 criterion at the implied δ).
    if (per_element > noise_cap * variance) continue;
    low[i] = true;
    // drift-lint: allow(narrow) — lc <= hp - lp < kMaxClip (checked)
    p.clips[i] = static_cast<std::uint8_t>(d.choice.lc);
    p.excess += static_cast<double>(size) * per_element;
    ++p.marked;
  }
  return p;
}

/// The greedy selection: ranks the sub-tensors the probe marked and
/// leaves marked in `low` those the budget affords.
AutoThresholdSummary rank(const StatsView& stats, const QuantParams& params,
                          double budget, const ExcessTable& excess,
                          const Probe& probe, std::vector<bool>& low) {
  struct Candidate {  // 16 B: the sort moves one per marked sub-tensor
    double ratio;         ///< Eq. 6 ratio in code units
    std::uint32_t index;  ///< sub-tensor
    std::uint8_t lc;      ///< Eq. 5 low-end clip
    bool free;            ///< adds no noise vs INT8
  };
  std::vector<Candidate> feasible;
  feasible.reserve(static_cast<std::size_t>(probe.marked));
  for (std::uint32_t i = 0; i < stats.size(); ++i) {
    if (!low[i]) continue;
    const std::uint8_t lc = probe.clips[i];
    const double rd = representation_density(lc, params.delta);
    const double ratio = stats[i].laplace_variance() / (rd * params.delta);
    const double cost = static_cast<double>(stats.elements(i)) * excess[lc];
    feasible.push_back(Candidate{ratio, i, lc, cost == 0.0});
  }
  low.assign(stats.size(), false);

  // Zero-excess conversions (lc = 0: INT8-density-equivalent) are free
  // and always taken; the rest in decreasing Eq. 6 ratio order — the
  // inclusion order a decreasing δ produces.
  std::sort(feasible.begin(), feasible.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.free != b.free) return a.free;
              return a.ratio > b.ratio;
            });

  const double allowance = budget * probe.signal;
  double spent = 0.0;
  std::int64_t low_elements = 0;
  double cut_ratio = std::numeric_limits<double>::infinity();
  for (const Candidate& cand : feasible) {
    const std::int64_t size = stats.elements(cand.index);
    const double cost = static_cast<double>(size) * excess[cand.lc];
    if (spent + cost > allowance) break;
    spent += cost;
    low_elements += size;
    low[cand.index] = true;
    // The implied δ is the smallest Eq. 6 ratio among *noisy* accepted
    // conversions (free lc = 0 ones sit below any threshold).
    if (cost > 0.0) cut_ratio = std::min(cut_ratio, cand.ratio);
  }

  AutoThresholdSummary result;
  result.delta_threshold = std::isfinite(cut_ratio) ? cut_ratio : 0.0;
  result.excess_relative_mse =
      probe.signal > 0.0 ? spent / probe.signal : 0.0;
  result.low_fraction_by_elements =
      probe.elements > 0
          ? static_cast<double>(low_elements) /
                static_cast<double>(probe.elements)
          : 0.0;
  return result;
}

}  // namespace

AutoThresholdSummary select_auto_threshold(const StatsView& stats,
                                           const QuantParams& params,
                                           const SelectorConfig& base,
                                           double budget,
                                           std::vector<bool>& low,
                                           double noise_cap) {
  const ExcessTable excess =
      excess_table(stats, params, base, budget, noise_cap);
  const Probe p = probe(stats, params, base, noise_cap, excess, low);
  return rank(stats, params, budget, excess, p, low);
}

void select_auto_threshold_bits(const StatsView& stats,
                                const QuantParams& params,
                                const SelectorConfig& base, double budget,
                                std::vector<bool>& low) {
  const ExcessTable excess =
      excess_table(stats, params, base, budget, kDefaultNoiseCap);
  const Probe p = probe(stats, params, base, kDefaultNoiseCap, excess, low);
  // The probe summed the marked sub-tensors' excess S in index order.
  // The greedy loop adds the same n non-negative terms in sorted order,
  // so its partial sums never decrease, and its final sum and S both
  // lie within γ(n-1) of the exact sum (Higham, Accuracy and Stability
  // of Numerical Algorithms, §4.2).  So when
  // S (1 + 4n u) <= budget × signal, the factor covering the
  // (1 + γ)/(1 - γ) bound and its own rounding, no partial sum passes
  // the allowance and every order takes every marked sub-tensor, ties
  // included: the marks are the selection, and no candidate is built.
  // A NaN or overflowed product fails the test and ranks.
  constexpr double kUnitRoundoff = std::numeric_limits<double>::epsilon() / 2;
  const double margin =
      1.0 + 4.0 * static_cast<double>(p.marked) * kUnitRoundoff;
  if (p.excess * margin <= budget * p.signal) return;
  rank(stats, params, budget, excess, p, low);
}

}  // namespace drift::core
