#include "core/drq_quantizer.hpp"

#include <cmath>

#include "core/render.hpp"
#include "util/assert.hpp"

namespace drift::core {

PrecisionMap DrqQuantizer::select(std::span<const float> values,
                                  const std::vector<SubTensorView>& views,
                                  const QuantParams& params) const {
  DRIFT_CHECK_EQ(params.bits, config_.hp,
                 "quant params precision must match DRQ hp");
  // Tensor-wide mean(|X|) reference for the sensitivity test.
  double sum_abs = 0.0;
  for (float v : values) sum_abs += std::abs(static_cast<double>(v));
  const double tensor_mean_abs =
      values.empty() ? 0.0 : sum_abs / static_cast<double>(values.size());

  const ConversionChoice truncate{0, config_.hp.bits() - config_.lp.bits()};
  std::vector<PrecisionDecision> decisions;
  std::vector<std::int64_t> sizes;
  decisions.reserve(views.size());
  sizes.reserve(views.size());
  for (const auto& view : views) {
    const SubTensorStats stats = compute_stats(view, values);
    const bool sensitive =
        stats.mean_abs >= config_.sensitivity * tensor_mean_abs;
    decisions.push_back(PrecisionDecision{!sensitive, truncate});
    sizes.push_back(view.size());
  }
  SelectorConfig sc;
  sc.hp = config_.hp;
  sc.lp = config_.lp;
  sc.density_threshold = 0.0;  // DRQ has no density criterion
  return PrecisionMap(std::move(decisions), std::move(sizes), sc);
}

std::vector<float> DrqQuantizer::apply(
    std::span<const float> values, const std::vector<SubTensorView>& views,
    const QuantParams& params, const PrecisionMap& map) const {
  return render(values, views, params, map, config_.lp);
}

}  // namespace drift::core
