// Per-element oracle for core::render.
//
// The loop the accuracy path rendered every operand with (the DRQ and
// Drift renderings and the static INT8 one) before core::render
// replaced it: every element through quantize_value /
// dequantize_value, then every element of each low view re-quantized
// from that hp rendering and passed through convert_to_low /
// dequantize_low, one scalar call at a time.  core::render sends whole
// runs through the dispatched row kernel instead; the two must agree
// bitwise on every backend and at every thread count.
#pragma once

#include <span>
#include <vector>

// drift-lint: allow(oracle-include) — the per-element primitives
// (quantize_value, convert_to_low, dequantize_*) are the semantics this
// oracle restates; the renderer under test calls none of them.
#include "core/selector.hpp"

namespace drift::ref {

/// The hp rendering of every element, then each low view of `map`
/// re-rendered at `lp`, element by element.
std::vector<float> render_per_element(std::span<const float> values,
                                      const std::vector<SubTensorView>& views,
                                      const core::QuantParams& params,
                                      const core::PrecisionMap& map,
                                      core::Precision lp);

}  // namespace drift::ref
