#include "core/quantizer.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace drift::core {

QuantParams quant_params_from_max(double max_abs, Precision bits) {
  QuantParams p;
  p.bits = bits;
  p.delta =
      max_abs > 0.0 ? max_abs / static_cast<double>(bits.max_level()) : 1.0;
  return p;
}

QuantParams compute_quant_params(std::span<const float> values,
                                 Precision bits) {
  DRIFT_CHECK(!values.empty(), "cannot calibrate on an empty tensor");
  float max_abs = 0.0f;
  for (float v : values) max_abs = std::max(max_abs, std::abs(v));
  return quant_params_from_max(static_cast<double>(max_abs), bits);
}

std::int32_t quantize_value(float x, const QuantParams& params) {
  const double scaled = static_cast<double>(x) / params.delta;
  const auto q = static_cast<std::int64_t>(std::llround(scaled));
  const std::int64_t lim = params.bits.max_level();
  // drift-lint: allow(narrow) — clamped to ±max_level (≤ 2^15 - 1 for
  // the widest Precision) on this line, so the value always fits i32.
  return static_cast<std::int32_t>(std::clamp<std::int64_t>(q, -lim, lim));
}

float dequantize_value(std::int32_t q, const QuantParams& params) {
  return static_cast<float>(static_cast<double>(q) * params.delta);
}

std::int32_t convert_to_low(std::int32_t q, Precision lp,
                            const ConversionChoice& choice) {
  DRIFT_CHECK(choice.hc >= 0 && choice.lc >= 0, "invalid conversion choice");
  // Round-to-nearest when dropping the lc low bits (divide by 2^lc).
  const double shifted =
      static_cast<double>(q) / static_cast<double>(std::int64_t{1} << choice.lc);
  auto q_lp = static_cast<std::int64_t>(std::llround(shifted));
  // Clipping hc high bits leaves lp live bits; clamp to the lp range.
  // The RR criterion guarantees this clamp does not engage for
  // correctly selected sub-tensors, but convert_to_low stays total.
  const std::int64_t lim = lp.max_level();
  // drift-lint: allow(narrow) — clamped to the lp range (±max_level,
  // at most 15 live bits) on this line, so the value always fits i32.
  return static_cast<std::int32_t>(std::clamp<std::int64_t>(q_lp, -lim, lim));
}

float dequantize_low(std::int32_t q_lp, const QuantParams& params,
                     const ConversionChoice& choice) {
  const double step =
      params.delta * static_cast<double>(std::int64_t{1} << choice.lc);
  return static_cast<float>(static_cast<double>(q_lp) * step);
}

}  // namespace drift::core
