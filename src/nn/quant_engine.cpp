#include "nn/quant_engine.hpp"

#include "core/noise_budget.hpp"
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

OperandResult QuantEngine::process_with_views(
    const TensorF& x, const std::vector<SubTensorView>& views) const {
  DRIFT_OBS_SPAN("quant_engine.operand");
  DRIFT_OBS_COUNT("quant_engine.operands", 1);
  OperandResult result;
  switch (config_.mode) {
    case QuantMode::kFloat32: {
      result.effective = x;
      return result;
    }
    case QuantMode::kStaticInt8: {
      const auto params =
          core::compute_quant_params(x.data(), config_.drift.hp);
      result.effective = TensorF(x.shape(), core::render_hp(x.data(), params));
      return result;
    }
    case QuantMode::kDrq: {
      const auto params = core::compute_quant_params(x.data(), config_.drq.hp);
      const core::DrqQuantizer drq(config_.drq);
      const auto map = drq.select(x.data(), views, params);
      auto rendered = drq.apply(x.data(), views, params, map);
      result.effective = TensorF(x.shape(), std::move(rendered));
      result.low_fraction = map.low_fraction_by_elements();
      result.low_fraction_rows = map.low_fraction_by_count();
      return result;
    }
    case QuantMode::kDrift: {
      const auto params =
          core::compute_quant_params(x.data(), config_.drift.hp);
      const core::DynamicQuantizer dynq(config_.drift);
      core::PrecisionMap map = [&] {
        if (!config_.auto_threshold) {
          return dynq.select(x.data(), views, params);
        }
        const auto stats = core::compute_stats(views, x.data());
        std::vector<std::int64_t> sizes;
        sizes.reserve(views.size());
        for (const auto& v : views) sizes.push_back(v.size());
        return core::auto_threshold_map(stats, sizes, params, config_.drift,
                                        config_.noise_budget);
      }();
      auto rendered = dynq.apply(x.data(), views, params, map);
      result.effective = TensorF(x.shape(), std::move(rendered));
      result.low_fraction = map.low_fraction_by_elements();
      result.low_fraction_rows = map.low_fraction_by_count();
      return result;
    }
  }
  DRIFT_CHECK(false, "unreachable quant mode");
  return result;
}

OperandResult QuantEngine::process_activation_rows(const TensorF& x) const {
  DRIFT_CHECK(x.shape().rank() == 2, "row granularity needs [M, K]");
  return process_with_views(x, partition_rows(x.shape()));
}

OperandResult QuantEngine::process_activation_regions(const TensorF& x) const {
  DRIFT_CHECK(x.shape().rank() == 3, "region granularity needs [C, H, W]");
  return process_with_views(x, partition_regions(x.shape(), config_.region));
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
