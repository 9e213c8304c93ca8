// Shared traffic and energy accounting for the accelerator models.
//
// Given one layer's GEMM, its precision mix, and the tiling the
// dataflow implies, computes DRAM bytes, buffer traffic and the
// resulting energy components.  All four models run their layers
// through run_layers, so their differences come from data width, tile
// counts and occupancy — not from bespoke bookkeeping.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "accel/accelerator.hpp"

namespace drift::accel {

/// Traffic description of one layer execution.
struct LayerTraffic {
  std::int64_t act_dram_bytes = 0;
  std::int64_t weight_dram_bytes = 0;
  std::int64_t out_dram_bytes = 0;
  std::int64_t buffer_read_bytes = 0;
  std::int64_t buffer_write_bytes = 0;

  std::int64_t dram_bytes() const {
    return act_dram_bytes + weight_dram_bytes + out_dram_bytes;
  }
};

/// Average operand widths (in bits) implied by a precision mix.
struct OperandBits {
  double act_bits = 8.0;     ///< row-weighted activation width
  double weight_bits = 8.0;  ///< channel-weighted weight width
  int out_bits = 8;          ///< outputs are re-quantized on write-back
};

/// Computes the mix-weighted operand widths.
OperandBits operand_bits_from_work(const core::LayerWork& work);

/// Computes the traffic of one GEMM execution.
///  - `n_tiles`: how many weight-column tiles the dataflow iterates
///    (activations are re-streamed once per tile unless the activation
///    matrix fits in the global buffer);
///  - `k_tiles`: reduction tiles (psum spill traffic beyond the first).
LayerTraffic compute_traffic(const core::GemmDims& dims,
                             const OperandBits& bits, std::int64_t n_tiles,
                             std::int64_t k_tiles,
                             const AccelConfig& config);

/// Buffer energy of a traffic record.
double buffer_energy_pj(const LayerTraffic& traffic,
                        const energy::EnergyConstants& constants);

/// DRAM occupancy + energy for a traffic record, using (and mutating)
/// the shared DRAM model.
struct DramOutcome {
  std::int64_t core_cycles = 0;
  double energy_pj = 0.0;
};
DramOutcome dram_outcome(const LayerTraffic& traffic, dram::DramModel& model);

/// Core (MAC) energy of a mix-split GEMM on a BitBrick substrate.
double core_energy_pj(const core::LayerWork& work,
                      const energy::EnergyConstants& constants);

/// Total BitBrick operations of a mix-split GEMM (the numerator of the
/// utilization metric: each unit supplies 16 BB ops per cycle).
double total_bitbrick_ops(const core::LayerWork& work);

/// What one model's dataflow makes of one layer instance (run_layers
/// applies the repeat factor).
struct LayerCost {
  std::int64_t compute_cycles = 0;  ///< array occupancy (incl. stalls)
  std::int64_t stall_cycles = 0;
  double utilization = 0.0;
  double core_pj = 0.0;
  LayerTraffic traffic;  ///< the model's compute_traffic result
};

/// The per-layer accounting loop every accelerator model shares.  It
/// checks there is one mix per layer of `spec`, calls `cost` per layer
/// inside an `accel.layer` span, prices the traffic on one DRAM model,
/// sets cycles = max(compute, dram) x repeat, scales stalls, DRAM bytes
/// and energy by repeat into the run totals, and adds static energy
/// `static_pj_per_cycle` x cycles.
RunResult run_layers(std::string name, const AccelConfig& hw,
                     const nn::WorkloadSpec& spec,
                     const std::vector<nn::LayerMix>& mixes,
                     double static_pj_per_cycle,
                     const std::function<LayerCost(const nn::LayerMix&)>& cost);

}  // namespace drift::accel
