// The one renderer of the accuracy path: the tensor the accelerator
// actually computes with, as dequantized floats.
//
// Every element first takes its Eq. 1 hp rendering,
//     q = clamp(round(x / Δ), ±(2^(hp-1) - 1)),  x' = q * Δ,
// and each sub-tensor selected low is then re-rendered from that hp
// rendering at lp bits with its (hc, lc) choice (Section 3.1),
//     q' = quantize(x'),  q_lp = clamp(round(q' / 2^lc), ±(2^(lp-1) - 1)),
//     x'' = q_lp * (Δ * 2^lc).
// Both passes run contiguous runs through the dispatched
// quantize_convert_row, which is pinned to quantize_value /
// convert_to_low bit for bit (kernel_dispatch.hpp invariant 1), so the
// output equals the per-element loop ref::render_per_element keeps as
// the oracle, on every backend and at every thread count.
#pragma once

#include <span>
#include <vector>

#include "core/precision.hpp"
#include "core/quantizer.hpp"
#include "core/selector.hpp"
#include "tensor/subtensor.hpp"

namespace drift::core {

/// The hp rendering of every element: dequantize(quantize(x)).  Static
/// INT8 execution computes with exactly this.
std::vector<float> render_hp(std::span<const float> values,
                             const QuantParams& params);

/// render_hp, then every view whose decision in `map` is low
/// re-rendered at `lp` from the hp rendering.  Views must be pairwise
/// disjoint (every partition_* result is); they are rendered in
/// parallel.
std::vector<float> render(std::span<const float> values,
                          const std::vector<SubTensorView>& views,
                          const QuantParams& params, const PrecisionMap& map,
                          Precision lp);

}  // namespace drift::core
