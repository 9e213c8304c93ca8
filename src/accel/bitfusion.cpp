#include "accel/bitfusion.hpp"

#include "accel/traffic.hpp"

namespace drift::accel {

RunResult BitFusionModel::run(const nn::WorkloadSpec& spec,
                              const std::vector<nn::LayerMix>& mixes) {
  const auto& ec = config_.energy;
  const auto& array = config_.array;
  return run_layers(
      name(), config_, spec, mixes,
      ec.static_pj_per_unit_cycle * static_cast<double>(array.units()),
      [&](const nn::LayerMix& mix) {
        const core::GemmDims& dims = mix.layer.dims;
        LayerCost cost;

        // Static INT8 everywhere, regardless of what the mix says.
        core::LayerWork work;
        work.m_high = dims.M;
        work.n_high = dims.N;
        work.k = dims.K;

        cost.compute_cycles = core::ws_latency_cycles(dims, 8, 8, array);
        const std::int64_t k_tiles =
            core::ws_tile_repetitions({dims.M, dims.K, 1}, 8, 8, array);
        const std::int64_t n_tiles =
            core::ws_tile_repetitions({dims.M, 1, dims.N}, 8, 8, array);
        const OperandBits bits{8.0, 8.0, 8};
        cost.traffic = compute_traffic(dims, bits, n_tiles, k_tiles, config_);

        const double peak_macs_per_cycle = static_cast<double>(array.units());
        cost.utilization =
            static_cast<double>(dims.macs()) /
            (static_cast<double>(cost.compute_cycles) * peak_macs_per_cycle);
        cost.core_pj = core_energy_pj(work, ec);
        return cost;
      });
}

}  // namespace drift::accel
