// Symmetric linear quantization (Equation 1) and low-precision
// conversion (Section 3.1).
//
// The initial quantization maps FP32 to INT-N with a per-tensor scale
//     q = round(x / Δ),  Δ = max|X| / (2^(N-1) - 1).
// Dynamic precision then re-renders individual sub-tensors of the INT
// tensor at fewer bits by clipping hc high bits and lc low bits:
//     q_lp = clamp(round(q / 2^lc), ±(2^(lp-1) - 1))
// which dequantizes as q_lp * 2^lc * Δ.  The RR criterion (Eq. 5)
// guarantees the clamp is a no-op for correctly selected sub-tensors.
#pragma once

#include <cstdint>
#include <span>

#include "core/precision.hpp"

namespace drift::core {

/// Per-tensor quantization parameters.
struct QuantParams {
  double delta = 1.0;       ///< scaling factor Δ
  Precision bits = kInt8;   ///< storage precision of the quantized tensor

  /// Representation range of the full-precision rendering:
  /// (2^(N-1)-1) * Δ = max|X| by construction.
  double representation_range() const {
    return static_cast<double>(bits.max_level()) * delta;
  }
  /// Representation density of the full-precision rendering: Δ.
  double representation_density() const { return delta; }
};

/// Computes Δ from the data (Equation 1).  A degenerate all-zero tensor
/// yields Δ = 1 so round-tripping still works.
QuantParams compute_quant_params(std::span<const float> values,
                                 Precision bits = kInt8);

/// Quantizes x -> round(x / Δ), clamped to the representable range.
/// (Clamping only matters for values injected after Δ was calibrated.)
std::int32_t quantize_value(float x, const QuantParams& params);

/// Dequantizes q -> q * Δ.
float dequantize_value(std::int32_t q, const QuantParams& params);

/// Re-renders a single hp-bit integer at lp bits with choice (hc, lc).
/// Returns the *lp-bit integer code* (already shifted down by lc).
std::int32_t convert_to_low(std::int32_t q, Precision lp,
                            const ConversionChoice& choice);

/// Dequantizes an lp-bit code produced by convert_to_low.
float dequantize_low(std::int32_t q_lp, const QuantParams& params,
                     const ConversionChoice& choice);

}  // namespace drift::core
