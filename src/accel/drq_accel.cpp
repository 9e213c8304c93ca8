#include "accel/drq_accel.hpp"

#include "accel/traffic.hpp"
#include "core/analytical_model.hpp"
#include "systolic/stall_model.hpp"

namespace drift::accel {

RunResult DrqAccelModel::run(const nn::WorkloadSpec& spec,
                             const std::vector<nn::LayerMix>& mixes) {
  const auto& ec = config_.energy;
  const auto& array = config_.array;
  const std::int64_t R = array.rows, C = array.cols;
  return run_layers(
      name(), config_, spec, mixes,
      ec.static_pj_per_unit_cycle * static_cast<double>(array.units()),
      [&](const nn::LayerMix& mix) {
        const core::GemmDims& dims = mix.layer.dims;
        LayerCost cost;

        // Variable-speed execution: the array keeps a 4-bit rhythm;
        // 8-bit rows take two passes (cost 2).  A precision-mode switch
        // re-times the activation pipeline over a few stages (weights
        // stay resident, so no full drain) — cheap for the
        // block-contiguous patterns of CNN regions, ruinous for finely
        // interleaved token streams, where the controller falls back
        // to uniform 8-bit.
        constexpr std::int64_t kSpeedSwitchPenalty = 4;
        const auto run = systolic::run_switching_exe_cycles(
            mix.row_is_low, /*low_cost=*/1, /*high_cost=*/2,
            kSpeedSwitchPenalty);
        // K tiles at the 4-bit rhythm (ceil(K/R) == ceil(4K/4R)), weight
        // (N) tiles at the stored 8-bit width; shared Eq. 7 ceilings.
        const std::int64_t k_tiles = core::ws_k_tiles(dims.K, 4.0, R);
        const std::int64_t n_tiles = core::ws_n_tiles(dims.N, 8.0, C);
        const std::int64_t per_tile = R + run.exe_cycles + (R + C - 2);
        cost.compute_cycles = per_tile * k_tiles * n_tiles;
        cost.stall_cycles = run.stall_cycles * k_tiles * n_tiles;

        // Energy-wise, fallen-back rows burn 8-bit compute even though
        // their stored values are 4-bit.
        core::LayerWork work = mix.work;
        work.n_high = dims.N;  // DRQ weights are static 8-bit
        work.n_low = 0;
        if (run.fell_back_to_high) {
          work.m_high = dims.M;
          work.m_low = 0;
        }

        // Traffic at *stored* widths (DRQ and Drift load similar
        // amounts of data — Section 5.3).
        core::LayerWork stored = mix.work;
        stored.n_high = dims.N;
        stored.n_low = 0;
        const OperandBits bits = operand_bits_from_work(stored);
        cost.traffic = compute_traffic(dims, bits, n_tiles, k_tiles, config_);

        // Utilization in BitBrick-op terms: each unit supplies 16 BB ops
        // per cycle (a 4-bit row consumes 8 of them against 8-bit
        // weights).
        cost.utilization =
            total_bitbrick_ops(work) /
            (static_cast<double>(cost.compute_cycles) *
             static_cast<double>(array.units()) * 16.0);
        cost.core_pj = core_energy_pj(work, ec);
        return cost;
      });
}

}  // namespace drift::accel
