#include "core/selector.hpp"

#include <algorithm>
#include <cmath>

#include "core/capability.hpp"
#include "core/noise_budget.hpp"
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

  // Step 2 (Equation 6): accept iff var(Y) / RD >= δ, with the Laplace
  // identity var(Y) = 2*avg(|Y|)^2 standing in for the true variance.
  // Equation 6's raw ratio carries the units of Y, so the workable δ
  // would change with every tensor's scale; we evaluate the criterion
  // in integer-code units (divide both sides by Δ), which is exactly
  // Eq. 6 with δ = density_threshold * Δ and makes one dimensionless
  // threshold transfer across layers — the quantity the noise-budget
  // rule actually tunes.
  const double rd = representation_density(choice.lc, params.delta);
  const double ratio_code_units =
      stats.laplace_variance() / (rd * params.delta);
  const bool dense_enough = ratio_code_units >= config.density_threshold;

  return PrecisionDecision{dense_enough, choice};
}

void select_drift(const StatsView& stats, const QuantParams& params,
                  const SelectorConfig& config, std::optional<double> budget,
                  std::vector<bool>& low) {
  if (budget) {
    select_auto_threshold_bits(stats, params, config, *budget, low);
    return;
  }
  low.assign(stats.size(), false);
  for (std::size_t i = 0; i < stats.size(); ++i) {
    low[i] = select_precision(stats[i], params, config).use_low;
  }
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
