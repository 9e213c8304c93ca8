#include "core/selector.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

// drift-lint: allow(intrinsic) — the selector's pooling-unit reductions
// are a dispatch hot loop; only the table entry points are used here.
#include "nn/simd/kernel_dispatch.hpp"
#include "obs/metrics.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace drift::core {

SubTensorStats compute_stats(const SubTensorView& view,
                             std::span<const float> buffer) {
  DRIFT_CHECK(view.size() > 0, "empty sub-tensor view");
  // Each contiguous run reduces through the dispatched 4-lane kernel
  // (bitwise backend-invariant); runs combine sequentially in view
  // order, so the whole reduction is backend-invariant too.  max(|Y|)
  // stays exact; the sums re-associate relative to a plain sequential
  // loop by a bounded amount (tests/prop/prop_selector.cpp pins the
  // drift against the Kahan reference).
  const auto& kt = nn::simd::active();
  double max_abs = 0.0, sum_abs = 0.0, sum = 0.0, sum_sq = 0.0;
  for (const Run& r : view.runs()) {
    const nn::simd::RawStats rs =
        kt.reduce_stats(buffer.data() + r.offset, r.length);
    max_abs = std::max(max_abs, rs.max_abs);
    sum_abs += rs.sum_abs;
    sum += rs.sum;
    sum_sq += rs.sum_sq;
  }
  const double n = static_cast<double>(view.size());
  return SubTensorStats{max_abs, sum_abs / n, sum / n, sum_sq / n};
}

std::vector<SubTensorStats> compute_stats(
    const std::vector<SubTensorView>& views, std::span<const float> buffer) {
  // Per-sub-tensor max|Y| / avg|Y| extraction is independent per view;
  // each chunk fills its own slots of the pre-sized result.
  std::vector<SubTensorStats> stats(views.size());
  const auto n = static_cast<std::int64_t>(views.size());
  util::parallel_for(0, n, 16, [&](std::int64_t v0, std::int64_t v1) {
    for (std::int64_t v = v0; v < v1; ++v) {
      stats[static_cast<std::size_t>(v)] =
          compute_stats(views[static_cast<std::size_t>(v)], buffer);
    }
  });
  return stats;
}

StatsView::StatsView(std::span<const SubTensorStats> stats,
                     std::span<const std::int64_t> sizes)
    : full_(stats), sizes_(sizes), size_(stats.size()) {
  DRIFT_CHECK_EQ(stats.size(), sizes.size(), "stats/sizes mismatch");
}

StatsView::StatsView(std::span<const AbsStats> stats, std::int64_t elements)
    : abs_(stats), elements_(elements), size_(stats.size()) {}

namespace {

/// What the lp rendering with low-end clip lc actually tops out at:
/// (2^(lp-1) - 1) * 2^lc * Δ.
double exact_range(int lc, const QuantParams& params,
                   const SelectorConfig& config) {
  return static_cast<double>(config.lp.max_level()) *
         static_cast<double>(std::int64_t{1} << lc) * params.delta;
}

/// Equation 3's representation density of the lc-clipped rendering:
/// RD = 2^lc * Δ, the low rendering's quantization step.  (Its range
/// RR = (2^(hp-1) - 1) / 2^hc * Δ is what exact_range tightens.)
double representation_density(int lc, double delta) {
  return static_cast<double>(std::int64_t{1} << lc) * delta;
}

/// Equation 6's ratio var(Y) / RD with the Laplace identity
/// var(Y) = 2*avg(|Y|)^2, in integer-code units (both sides divided by
/// Δ).  Equation 6's raw ratio carries the units of Y, so the workable
/// δ would change with every tensor's scale; in code units it is
/// exactly Eq. 6 with δ = density_threshold * Δ, and one dimensionless
/// threshold transfers across layers — the quantity the noise-budget
/// rule tunes.
double density_ratio(const SubTensorStats& stats, int lc,
                     const QuantParams& params) {
  return stats.laplace_variance() /
         (representation_density(lc, params.delta) * params.delta);
}

/// The signal variance the noise budget and the local guard scale: the
/// true variance where the accumulators give it (post-ReLU sub-tensors
/// are not zero-mean; the Laplace proxy would overstate how much
/// variation there is to hide noise in), the Laplace one otherwise.
double signal_variance(const SubTensorStats& stats) {
  return stats.mean_sq > 0.0 ? stats.true_variance()
                             : stats.laplace_variance();
}

}  // namespace

ConversionChoice conversion_choice(double max_abs, const QuantParams& params,
                                   const SelectorConfig& config) {
  const int clip_total = config.hp.bits() - config.lp.bits();
  DRIFT_CHECK(clip_total >= 0, "lp wider than hp");
  // All-(near-)zero sub-tensor: any rendering represents it exactly, so
  // take the maximal high-end clip.
  if (max_abs <= 0.0) return ConversionChoice{clip_total, 0};

  // Equation 5's closed form hc = floor(log2(max_level(hp)*Δ / max|Y|))
  // is a whisker optimistic twice over: the paper's
  // RR = (2^(hp-1)-1)/2^hc * Δ exceeds what the lp rendering actually
  // tops out at (112Δ, not 127Δ, for 8->4 with lc=4), and the
  // floating-point log2 can land an ulp below an integer when max(|Y|)
  // sits exactly on an RR boundary, silently losing one bit of clip
  // (and therefore one bit of resolution) for near-full-width lp.  The
  // hardware comparator applies the exact bound, so we search hc
  // directly: the range is monotone decreasing in hc, making the
  // feasible set a prefix — take its largest element.  When even hc = 0
  // falls short the search ends there too.
  int hc = clip_total;
  while (hc > 0 && exact_range(clip_total - hc, params, config) < max_abs) {
    --hc;
  }
  return ConversionChoice{hc, clip_total - hc};
}

PrecisionDecision select_precision(const SubTensorStats& stats,
                                   const QuantParams& params,
                                   const SelectorConfig& config) {
  // Step 1 (Equation 5).
  const ConversionChoice choice =
      conversion_choice(stats.max_abs, params, config);
  if (stats.max_abs <= 0.0) return PrecisionDecision{true, choice};
  // Sub-tensors that span the full tensor range stay high: no lp
  // rendering can hold them without clamping.
  if (exact_range(choice.lc, params, config) < stats.max_abs) {
    return PrecisionDecision{false, choice};
  }

  // Step 2 (Equation 6): accept iff var(Y) / RD >= δ.
  return PrecisionDecision{
      density_ratio(stats, choice.lc, params) >= config.density_threshold,
      choice};
}

namespace {

// Precision widths lie in [2, 16], so lc = hp - lp - hc stays < 15.
constexpr int kMaxClip = 15;

/// Excess rounding noise per element of a conversion with low-end clip
/// lc, ((2^lc Δ)^2 - Δ^2) / 12, for the hp - lp + 1 clips Eq. 5 can
/// choose.
using ExcessTable = std::array<double, kMaxClip>;

ExcessTable excess_table(const QuantParams& params,
                         const SelectorConfig& config) {
  const int clip_total = config.hp.bits() - config.lp.bits();
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
  double signal = 0.0;  ///< Σ size × signal variance
  double excess = 0.0;  ///< Σ size × excess of the marked, in index order
  std::int64_t marked = 0;
  std::vector<std::uint8_t> clips;  ///< Eq. 5 low-end clip of each marked
};

/// Probes every sub-tensor at δ = 0 and marks in `low` each one a
/// conversion may take.  Range-feasibility and the chosen (hc, lc) are
/// δ-independent; only the density acceptance moves.
Probe probe(const StatsView& stats, const QuantParams& params,
            const SelectorConfig& config, const ExcessTable& excess,
            std::vector<bool>& low) {
  SelectorConfig at_zero = config;
  at_zero.density_threshold = 0.0;
  low.assign(stats.size(), false);
  Probe p;
  p.clips.assign(stats.size(), 0);
  for (std::uint32_t i = 0; i < stats.size(); ++i) {
    const SubTensorStats s = stats[i];
    const std::int64_t size = stats.elements(i);
    DRIFT_CHECK(size > 0, "sub-tensor size must be positive");
    const double variance = signal_variance(s);
    p.signal += static_cast<double>(size) * variance;
    const PrecisionDecision d = select_precision(s, params, at_zero);
    if (!d.use_low) continue;  // range-infeasible: must stay high
    const double per_element =
        excess[static_cast<std::size_t>(d.choice.lc)];
    // Local density guard: do not wipe out a quiet sub-tensor even if
    // it is globally affordable (the Eq. 6 criterion at the implied δ).
    if (per_element > kDefaultNoiseCap * variance) continue;
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
void rank(const StatsView& stats, const QuantParams& params, double budget,
          const ExcessTable& excess, const Probe& probe,
          std::vector<bool>& low) {
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
    const double cost = static_cast<double>(stats.elements(i)) * excess[lc];
    feasible.push_back(
        Candidate{density_ratio(stats[i], lc, params), i, lc, cost == 0.0});
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
  for (const Candidate& cand : feasible) {
    const double cost =
        static_cast<double>(stats.elements(cand.index)) * excess[cand.lc];
    if (spent + cost > allowance) break;
    spent += cost;
    low[cand.index] = true;
  }
}

}  // namespace

void select_drift(const StatsView& stats, const QuantParams& params,
                  const SelectorConfig& config, std::optional<double> budget,
                  std::vector<bool>& low) {
  if (!budget) {
    low.assign(stats.size(), false);
    for (std::size_t i = 0; i < stats.size(); ++i) {
      low[i] = select_precision(stats[i], params, config).use_low;
    }
    return;
  }
  DRIFT_CHECK(*budget >= 0.0, "budget must be non-negative");
  DRIFT_CHECK(stats.size() <= std::numeric_limits<std::uint32_t>::max(),
              "too many sub-tensors for a 32-bit candidate index");
  const ExcessTable excess = excess_table(params, config);
  const Probe p = probe(stats, params, config, excess, low);
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
  if (p.excess * margin <= *budget * p.signal) return;
  rank(stats, params, *budget, excess, p, low);
}

AutoThresholdSummary summarize_selection(const StatsView& stats,
                                         const QuantParams& params,
                                         const SelectorConfig& config,
                                         const std::vector<bool>& low) {
  DRIFT_CHECK_EQ(low.size(), stats.size(), "low/stats count mismatch");
  const ExcessTable excess = excess_table(params, config);
  double signal = 0.0;
  double spent = 0.0;
  std::int64_t elements = 0;
  std::int64_t low_elements = 0;
  double cut_ratio = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < stats.size(); ++i) {
    const SubTensorStats s = stats[i];
    const std::int64_t size = stats.elements(i);
    elements += size;
    signal += static_cast<double>(size) * signal_variance(s);
    if (!low[i]) continue;
    low_elements += size;
    const int lc = conversion_choice(s.max_abs, params, config).lc;
    const double cost =
        static_cast<double>(size) * excess[static_cast<std::size_t>(lc)];
    spent += cost;
    // Free conversions (cost 0, as the greedy loop tells them) sit
    // below any threshold; the noisy ones set the implied δ.
    if (cost != 0.0) {
      cut_ratio = std::min(cut_ratio, density_ratio(s, lc, params));
    }
  }
  AutoThresholdSummary result;
  result.delta_threshold = std::isfinite(cut_ratio) ? cut_ratio : 0.0;
  result.excess_relative_mse = signal > 0.0 ? spent / signal : 0.0;
  result.low_fraction_by_elements =
      elements > 0 ? static_cast<double>(low_elements) /
                         static_cast<double>(elements)
                   : 0.0;
  return result;
}

void select_drq(const StatsView& stats, const DrqConfig& config,
                double reference, std::vector<bool>& low) {
  const double bar = config.sensitivity * reference;
  low.assign(stats.size(), false);
  for (std::size_t i = 0; i < stats.size(); ++i) {
    // A region is sensitive when its mean(|Y|) reaches the bar; every
    // other region goes low.
    low[i] = !(stats[i].mean_abs >= bar);
  }
}

PrecisionMap::PrecisionMap(std::vector<PrecisionDecision> decisions,
                           std::vector<std::int64_t> sizes,
                           SelectorConfig config)
    : decisions_(std::move(decisions)), sizes_(std::move(sizes)),
      config_(config) {
  DRIFT_CHECK_EQ(decisions_.size(), sizes_.size(),
                 "decision/size count mismatch");
  for (std::size_t i = 0; i < decisions_.size(); ++i) {
    DRIFT_CHECK(sizes_[i] > 0, "sub-tensor size must be positive");
    total_elements_ += sizes_[i];
    if (decisions_[i].use_low) {
      low_elements_ += sizes_[i];
      ++low_count_;
    }
    // Clip-split histograms (hc + lc == hp - lp per Eq. 5); handles are
    // cached by the macros, so this stays one sharded add per decision.
    DRIFT_OBS_HISTOGRAM("selector.hc_clip",
                        decisions_[i].choice.hc, 0, 1, 2, 3, 4, 5, 6, 7, 8);
    DRIFT_OBS_HISTOGRAM("selector.lc_clip",
                        decisions_[i].choice.lc, 0, 1, 2, 3, 4, 5, 6, 7, 8);
  }
  DRIFT_OBS_COUNT("selector.maps", 1);
  DRIFT_OBS_COUNT("selector.subtensors_total",
                  static_cast<std::int64_t>(decisions_.size()));
  DRIFT_OBS_COUNT("selector.subtensors_low",
                  static_cast<std::int64_t>(low_count_));
  DRIFT_OBS_COUNT("selector.elements_total", total_elements_);
  DRIFT_OBS_COUNT("selector.elements_low", low_elements_);
  DRIFT_OBS_LAYER(
      rec, rec->subtensors_total += static_cast<std::int64_t>(decisions_.size());
      rec->subtensors_low += static_cast<std::int64_t>(low_count_);
      rec->elements_total += total_elements_;
      rec->elements_low += low_elements_);
}

const PrecisionDecision& PrecisionMap::decision(std::size_t i) const {
  DRIFT_CHECK_INDEX(i, decisions_.size());
  return decisions_[i];
}

double PrecisionMap::low_fraction_by_count() const {
  if (decisions_.empty()) return 0.0;
  return static_cast<double>(low_count_) /
         static_cast<double>(decisions_.size());
}

double PrecisionMap::low_fraction_by_elements() const {
  if (total_elements_ == 0) return 0.0;
  return static_cast<double>(low_elements_) /
         static_cast<double>(total_elements_);
}

}  // namespace drift::core
