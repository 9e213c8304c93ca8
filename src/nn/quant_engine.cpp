#include "nn/quant_engine.hpp"

#include <cmath>
#include <optional>

#include "core/render.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace drift::nn {

std::string to_string(QuantMode mode) {
  switch (mode) {
    case QuantMode::kFloat32: return "FP32";
    case QuantMode::kStaticInt8: return "INT8";
    case QuantMode::kDrq: return "DRQ";
    case QuantMode::kDrift: return "Drift";
  }
  return "?";
}

namespace {

/// DRQ's reference for a real tensor: Σ|x| / n over every element.
double tensor_mean_abs(std::span<const float> x) {
  double sum_abs = 0.0;
  for (float v : x) sum_abs += std::abs(static_cast<double>(v));
  return x.empty() ? 0.0 : sum_abs / static_cast<double>(x.size());
}

}  // namespace

core::PrecisionMap QuantEngine::select(std::span<const float> x,
                                       const std::vector<SubTensorView>& views,
                                       const core::QuantParams& params) const {
  DRIFT_OBS_SPAN("selector.select");
  const bool drq = config_.mode == QuantMode::kDrq;
  DRIFT_CHECK(drq || config_.mode == QuantMode::kDrift,
              "only DRQ and Drift select sub-tensors");
  // DRQ has no density criterion, so its map carries δ = 0.
  const core::SelectorConfig selector =
      drq ? core::SelectorConfig{config_.drq.hp, config_.drq.lp, 0.0}
          : config_.drift;
  DRIFT_CHECK_EQ(params.bits, selector.hp,
                 "quant params precision must match the selector's hp");
  const std::vector<core::SubTensorStats> stats = core::compute_stats(views, x);
  std::vector<std::int64_t> sizes;
  sizes.reserve(views.size());
  for (const auto& v : views) sizes.push_back(v.size());
  const core::StatsView view(stats, sizes);
  std::vector<bool> low;
  if (drq) {
    core::select_drq(view, config_.drq, tensor_mean_abs(x), low);
  } else {
    core::select_drift(view, params, config_.drift,
                       config_.auto_threshold
                           ? std::optional(config_.noise_budget)
                           : std::nullopt,
                       low);
  }
  const core::ConversionChoice truncate{
      0, selector.hp.bits() - selector.lp.bits()};
  std::vector<core::PrecisionDecision> decisions(views.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    decisions[i] = core::PrecisionDecision{
        low[i], drq ? truncate
                    : core::conversion_choice(stats[i].max_abs, params,
                                              selector)};
  }
  return core::PrecisionMap(std::move(decisions), std::move(sizes), selector);
}

OperandResult QuantEngine::process_with_views(
    const TensorF& x, const std::vector<SubTensorView>& views) const {
  DRIFT_OBS_SPAN("quant_engine.operand");
  DRIFT_OBS_COUNT("quant_engine.operands", 1);
  OperandResult result;
  if (config_.mode == QuantMode::kFloat32) {
    result.effective = x;
    return result;
  }
  const core::Precision hp =
      config_.mode == QuantMode::kDrq ? config_.drq.hp : config_.drift.hp;
  const auto params = core::compute_quant_params(x.data(), hp);
  if (config_.mode == QuantMode::kStaticInt8) {
    result.effective = TensorF(x.shape(), core::render_hp(x.data(), params));
    return result;
  }
  const core::PrecisionMap map = select(x.data(), views, params);
  result.effective = TensorF(
      x.shape(),
      core::render(x.data(), views, params, map, map.config().lp));
  result.low_fraction = map.low_fraction_by_elements();
  result.low_fraction_rows = map.low_fraction_by_count();
  return result;
}

OperandResult QuantEngine::process_activation_rows(const TensorF& x) const {
  DRIFT_CHECK(x.shape().rank() == 2, "row granularity needs [M, K]");
  return process_with_views(x, partition_rows(x.shape()));
}

OperandResult QuantEngine::process_activation_regions(const TensorF& x) const {
  DRIFT_CHECK(x.shape().rank() == 3, "region granularity needs [C, H, W]");
  return process_with_views(x, partition_regions(x.shape(), kRegion));
}

OperandResult QuantEngine::process_weight(const TensorF& w) const {
  DRIFT_CHECK(w.shape().rank() == 2, "weights must be output-major [N, K]");
  if (config_.mode == QuantMode::kFloat32) {
    OperandResult r;
    r.effective = w;
    return r;
  }
  if (config_.mode == QuantMode::kDrift && config_.dynamic_weights) {
    return process_with_views(w, partition_rows(w.shape()));
  }
  // INT8, DRQ, and Drift-without-dynamic-weights all render weights as
  // static per-tensor INT8.
  const auto params = core::compute_quant_params(w.data(), config_.drift.hp);
  OperandResult r;
  r.effective = TensorF(w.shape(), core::render_hp(w.data(), params));
  return r;
}

void QuantEngine::record(const std::string& layer, std::int64_t m,
                         std::int64_t k, std::int64_t n, double act_low,
                         double weight_low) {
  records_.push_back(GemmRecord{layer, m, k, n, act_low, weight_low});
}

double QuantEngine::overall_act_low_fraction() const {
  double macs = 0.0, low = 0.0;
  for (const auto& r : records_) {
    const double w = static_cast<double>(r.m) * static_cast<double>(r.k) *
                     static_cast<double>(r.n);
    macs += w;
    low += w * r.act_low_fraction;
  }
  return macs > 0.0 ? low / macs : 0.0;
}

}  // namespace drift::nn
