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
};

/// Equation 1 from a tensor's max|X|: Δ = max|X| / (2^(N-1) - 1).  A
/// degenerate all-zero tensor yields Δ = 1 so round-tripping still
/// works.
QuantParams quant_params_from_max(double max_abs, Precision bits);

/// Computes Δ from the data (Equation 1).
QuantParams compute_quant_params(std::span<const float> values,
                                 Precision bits = kInt8);

// The scalar Eq. 1 / Section 3.1 semantics, one element at a time.
// No binary calls them: core::render runs whole rows through the
// dispatched quantize_convert_row kernel and scales the codes back
// itself.  PropQuantizer.RowKernelMatchesQuantizerAcrossBackends pins
// the kernel to quantize_value and convert_to_low bit for bit on every
// backend, and PropQuantizer.RenderMatchesPerElementOracleAcrossBackends
// AndThreads pins core::render to ref::render_per_element, which
// restates the renderer with all four.

/// Quantizes x -> round(x / Δ), clamped to the representable range.
/// (Clamping only matters for values injected after Δ was calibrated.)
// drift-lint: allow(dead-api) — the renderer's pinned semantics (above).
std::int32_t quantize_value(float x, const QuantParams& params);

/// Dequantizes q -> q * Δ.
// drift-lint: allow(dead-api) — the renderer's pinned semantics (above).
float dequantize_value(std::int32_t q, const QuantParams& params);

/// Re-renders a single hp-bit integer at lp bits with choice (hc, lc).
/// Returns the *lp-bit integer code* (already shifted down by lc).
// drift-lint: allow(dead-api) — the renderer's pinned semantics (above).
std::int32_t convert_to_low(std::int32_t q, Precision lp,
                            const ConversionChoice& choice);

/// Dequantizes an lp-bit code produced by convert_to_low.
// drift-lint: allow(dead-api) — the renderer's pinned semantics (above).
float dequantize_low(std::int32_t q_lp, const QuantParams& params,
                     const ConversionChoice& choice);

}  // namespace drift::core
