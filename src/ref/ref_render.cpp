#include "ref/ref_render.hpp"

namespace drift::ref {

std::vector<float> render_per_element(std::span<const float> values,
                                      const std::vector<SubTensorView>& views,
                                      const core::QuantParams& params,
                                      const core::PrecisionMap& map,
                                      core::Precision lp) {
  DRIFT_CHECK_EQ(views.size(), map.num_subtensors(),
                 "view/map count mismatch");
  std::vector<float> out(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    out[i] = core::dequantize_value(core::quantize_value(values[i], params),
                                   params);
  }
  for (std::size_t v = 0; v < views.size(); ++v) {
    const core::PrecisionDecision& d = map.decision(v);
    if (!d.use_low) continue;
    std::span<float> out_span(out);
    views[v].transform<float>(out_span, [&](float& x) {
      const std::int32_t q = core::quantize_value(x, params);
      const std::int32_t q_lp = core::convert_to_low(q, lp, d.choice);
      x = core::dequantize_low(q_lp, params, d.choice);
    });
  }
  return out;
}

}  // namespace drift::ref
