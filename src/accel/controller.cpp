#include "accel/controller.hpp"

#include <algorithm>

#include "core/scheduler.hpp"

namespace drift::accel {

ControllerReport evaluate_controller(const std::vector<nn::LayerMix>& mixes,
                                     const core::ArrayDims& array) {
  // Static controller provisioning.
  constexpr std::int64_t kIndexBufferBytes = 16 * 1024;  // provisioned SRAM
  constexpr std::int64_t kSelectorThroughput = 1;  // sub-tensors per cycle
  // Control-processor cycles per Eq. 7 candidate evaluation in the
  // greedy scheduler sweep.
  constexpr std::int64_t kCyclesPerSplitEval = 8;
  ControllerReport report;
  std::int64_t overlapped = 0;
  for (const nn::LayerMix& mix : mixes) {
    ControllerLayerReport lr;
    lr.layer = mix.layer.name;
    lr.subtensors = mix.layer.dims.M + mix.layer.dims.N;
    // 1 bit low/high + 3 bits encoding one of the five (hc, lc)
    // choices, padded to a nibble for alignment.
    lr.index_bits = lr.subtensors * 4;
    lr.selection_cycles =
        (lr.subtensors + kSelectorThroughput - 1) / kSelectorThroughput;
    lr.scheduler_cycles = (array.rows + array.cols + 2) * kCyclesPerSplitEval;
    lr.layer_compute_cycles =
        core::schedule_greedy(mix.work, array).makespan;
    lr.overlapped = lr.selection_cycles + lr.scheduler_cycles <=
                    lr.layer_compute_cycles;
    if (lr.overlapped) ++overlapped;
    report.peak_index_bytes =
        std::max(report.peak_index_bytes, (lr.index_bits + 7) / 8);
    report.layers.push_back(std::move(lr));
  }
  report.fits_index_buffer =
      report.peak_index_bytes <= kIndexBufferBytes;
  report.overlapped_fraction =
      mixes.empty() ? 0.0
                    : static_cast<double>(overlapped) /
                          static_cast<double>(mixes.size());
  return report;
}

}  // namespace drift::accel
