#include "accel/eyeriss.hpp"

#include <algorithm>
#include <cmath>

#include "accel/traffic.hpp"

namespace drift::accel {

std::int64_t EyerissModel::mapped_pes(const nn::LayerGemm& layer) {
  // Filter rows map to PE rows; replicate filter sets when the kernel
  // is short.  Output rows strip across PE columns.
  const std::int64_t kh = std::clamp<std::int64_t>(layer.kernel, 1, kPeRows);
  const std::int64_t groups = kPeRows / kh;
  const std::int64_t rows_used = groups * kh;
  // Output height: sqrt of M for square conv maps, M itself for
  // token/row streams.
  const std::int64_t oh =
      layer.kind == nn::LayerKind::kConv
          ? static_cast<std::int64_t>(std::llround(
                std::sqrt(static_cast<double>(layer.dims.M))))
          : layer.dims.M;
  const std::int64_t cols_used = std::clamp<std::int64_t>(oh, 1, kPeCols);
  return rows_used * cols_used;
}

RunResult EyerissModel::run(const nn::WorkloadSpec& spec,
                            const std::vector<nn::LayerMix>& mixes) {
  const auto& ec = config_.energy;
  RunResult result = run_layers(
      name(), config_, spec, mixes,
      ec.static_pj_per_unit_cycle * config_.fp32_unit_static_multiplier *
          static_cast<double>(kPeCount),
      [&](const nn::LayerMix& mix) {
        const core::GemmDims& dims = mix.layer.dims;
        LayerCost cost;
        const std::int64_t pes = mapped_pes(mix.layer);
        cost.compute_cycles = (dims.macs() + pes - 1) / pes;
        cost.utilization = static_cast<double>(dims.macs()) /
                           (static_cast<double>(cost.compute_cycles) *
                            static_cast<double>(kPeCount));

        // FP32 operands: 32-bit everything; the ifmap is re-read once
        // per 16-output-channel pass when it does not fit on chip.
        const std::int64_t n_tiles = std::max<std::int64_t>(
            (dims.N + kPeCols - 1) / kPeCols, 1);
        const std::int64_t k_tiles = 1;  // psums stay in PE register files
        const OperandBits bits{32.0, 32.0, 32};
        cost.traffic = compute_traffic(dims, bits, n_tiles, k_tiles, config_);
        cost.core_pj = static_cast<double>(dims.macs()) * ec.e_fp32_mac_pj;
        return cost;
      });

  // Eyeriss's stalls are its memory-bound cycles, which exist only once
  // run_layers has priced the DRAM traffic.
  for (std::size_t l = 0; l < result.layers.size(); ++l) {
    LayerResult& lr = result.layers[l];
    lr.stall_cycles =
        std::max<std::int64_t>(lr.dram_cycles - lr.compute_cycles, 0);
    result.stall_cycles += lr.stall_cycles * mixes[l].layer.repeat;
  }
  return result;
}

}  // namespace drift::accel
