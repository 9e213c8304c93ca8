// Representation capability metrics (Section 3.2, Equation 3).
//
// For an hp-bit sub-tensor re-rendered at lp bits by clipping hc high
// bits and lc low bits, with original scaling factor Δ:
//
//   representation range   RR = (2^(hp-1) - 1) / 2^hc * Δ
//   representation density RD = 2^lc * Δ
//
// RR bounds the largest magnitude the low rendering can express; RD is
// the quantization step (rounding error scale) of the low rendering.
#pragma once

#include "core/precision.hpp"

namespace drift::core {

/// RR of the (hp, hc) rendering under scale Δ (Equation 3, top).
double representation_range(Precision hp, int hc, double delta);

/// RD of the lc-clipped rendering under scale Δ (Equation 3, bottom).
double representation_density(int lc, double delta);

}  // namespace drift::core
