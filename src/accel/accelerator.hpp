// Accelerator system models.
//
// Each model turns a workload (full-size layer shapes + per-layer
// precision mixes) into cycles and an energy breakdown:
//
//   Eyeriss   — FP32 row-stationary baseline, 224 PEs (14 x 16)
//   BitFusion — static INT8 on a 792-unit fused-BitBrick systolic array
//   DRQ       — dynamic 4/8-bit activations on one variable-speed
//               array (run-switching stall model with high fallback)
//   Drift     — four split systolic arrays + balanced online scheduler
//
// All four share the DRAM model, buffer traffic accounting and energy
// constants so differences come only from their dataflow: each model
// only supplies a per-layer cost to accel::run_layers (accel/traffic.hpp),
// which does the rest of the bookkeeping.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/analytical_model.hpp"
#include "dram/dram.hpp"
#include "energy/constants.hpp"
#include "nn/precision_mix.hpp"
#include "nn/workload.hpp"

namespace drift::accel {

/// Shared hardware configuration (Section 5.1: 792 units for the
/// precision-flexible designs, 224 PEs for Eyeriss).
struct AccelConfig {
  core::ArrayDims array{24, 33};          ///< BG / fusion-unit grid (792)
  std::int64_t global_buffer_bytes = 512 * 1024;
  std::int64_t weight_buffer_bytes = 512 * 1024;
  dram::DramConfig dram{};
  energy::EnergyConstants energy = energy::default_constants();
  /// Static power of one FP32 PE relative to one BitGroup (Eyeriss's
  /// PEs carry FP32 datapaths and large register files).
  double fp32_unit_static_multiplier = 4.0;
};

/// Per-layer outcome.  compute_cycles, dram_cycles, stall_cycles,
/// dram_bytes and utilization describe one instance of the layer;
/// cycles and energy carry its repeat factor.
struct LayerResult {
  std::string layer;
  std::int64_t compute_cycles = 0;  ///< array occupancy (incl. stalls)
  std::int64_t dram_cycles = 0;     ///< memory occupancy
  std::int64_t cycles = 0;          ///< max of the two, times repeat
  std::int64_t stall_cycles = 0;
  std::int64_t dram_bytes = 0;
  double utilization = 0.0;         ///< MAC throughput / peak
  energy::EnergyBreakdown energy;   ///< times repeat; no static share
};

/// Whole-model outcome: every field is the sum over layers, with the
/// per-instance LayerResult fields times repeat, and energy adds the
/// static share.
struct RunResult {
  std::string accelerator;
  std::string model;
  std::int64_t cycles = 0;
  std::int64_t stall_cycles = 0;
  std::int64_t dram_bytes = 0;
  energy::EnergyBreakdown energy;
  std::vector<LayerResult> layers;
};

/// Abstract accelerator.
class Accelerator {
 public:
  explicit Accelerator(AccelConfig config) : config_(std::move(config)) {}
  virtual ~Accelerator() = default;

  virtual std::string name() const = 0;

  /// Runs a workload.  `mixes` must contain one entry per layer of
  /// `spec`, produced by the algorithm make_accelerator maps to this
  /// model (Eyeriss ignores the mix and runs FP32).
  virtual RunResult run(const nn::WorkloadSpec& spec,
                        const std::vector<nn::LayerMix>& mixes) = 0;

  const AccelConfig& config() const { return config_; }

 protected:
  AccelConfig config_;
};

}  // namespace drift::accel
