// Controller model (Section 4.1): precision selector + index buffer +
// scheduler overhead accounting.
//
// The paper claims the algorithm "utilizes existing hardware resources
// and does not introduce additional computational or area overheads":
// the pooling unit already computes the per-sub-tensor statistics, the
// precision selector is a comparator pair plus a lookup table, and the
// decisions live in a small index buffer consulted by the dispatcher.
// This module quantifies that claim for a concrete workload:
//
//   - index-buffer bytes: one (use_low, hc) record per sub-tensor of
//     the layer with the most sub-tensors (1 + 3 bits, padded to 4);
//   - selection cycles: the selector consumes one sub-tensor statistic
//     pair per cycle as the pooling unit emits it, so selection for
//     layer L+1 overlaps layer L's execution and is "free" as long as
//     it finishes first;
//   - scheduler cycles: the greedy sweep evaluates O(R + C) candidate
//     splits, one Eq. 7 evaluation each (a handful of multiplies on
//     the control processor).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/precision_mix.hpp"

namespace drift::accel {

/// Per-layer controller cost.
struct ControllerLayerReport {
  std::string layer;
  std::int64_t subtensors = 0;       ///< activation rows + weight cols
  std::int64_t index_bits = 0;
  std::int64_t selection_cycles = 0;
  std::int64_t scheduler_cycles = 0;
  std::int64_t layer_compute_cycles = 0;  ///< what selection hides under
  bool overlapped = false;  ///< selection + scheduling fit under compute
};

/// Whole-model controller report.
struct ControllerReport {
  std::vector<ControllerLayerReport> layers;
  std::int64_t peak_index_bytes = 0;
  bool fits_index_buffer = false;
  double overlapped_fraction = 0.0;  ///< layers whose control work hides
};

/// Evaluates the controller cost of running `mixes` on the given array
/// (compute cycles from the Drift scheduler itself).
ControllerReport evaluate_controller(const std::vector<nn::LayerMix>& mixes,
                                     const core::ArrayDims& array);

}  // namespace drift::accel
