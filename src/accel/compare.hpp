// End-to-end comparison harness: runs one workload on all four
// accelerator models with the matching quantization algorithm per
// design, and reports results normalized to Eyeriss (the convention of
// Figures 7 and 8), plus the settings and model factory every
// mix -> accelerator pipeline shares.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "accel/accelerator.hpp"
#include "accel/drift_accel.hpp"

namespace drift::accel {

/// One workload's results across the four designs.
struct Comparison {
  std::string model;
  RunResult eyeriss;
  RunResult bitfusion;
  RunResult drq;
  RunResult drift;
  std::vector<nn::LayerMix> drift_mixes;  ///< the mixes `drift` ran

  /// Latency speedups over Eyeriss (Figure 7's y-axis).
  double speedup_bitfusion() const;
  double speedup_drq() const;
  double speedup_drift() const;

  /// Normalized energy (Eyeriss = 1; Figure 8's y-axis).
  double energy_bitfusion() const;
  double energy_drq() const;
  double energy_drift() const;
};

/// Hardware, mix-generation and scheduler settings of a pipeline that
/// builds precision mixes and runs them on an accelerator model.
struct PipelineConfig {
  AccelConfig hw{};
  core::SelectorConfig drift_selector{};  ///< hp/lp (δ when fixed mode)
  core::DrqConfig drq_config{};
  bool drift_dynamic_weights = true;
  bool auto_threshold = true;   ///< per-operand minimum-δ selection
  double noise_budget = 0.05;   ///< excess-noise budget for auto mode
  SchedulerPolicy drift_policy = SchedulerPolicy::kGreedy;

  /// The mix settings of `algo` sampled at `seed`.  Only Drift's mix
  /// takes drift_selector; INT8 and DRQ keep the default hp/lp.
  nn::MixConfig mix_config(nn::MixAlgorithm algo, std::uint64_t seed) const;
};

/// Mix-generation + comparison settings.
struct CompareConfig : PipelineConfig {
  std::uint64_t seed = 17;
};

/// The model that executes `algo`'s mixes: INT8 -> BitFusion, DRQ ->
/// DRQ, Drift -> Drift with `drift_policy`.  (Eyeriss runs FP32 and
/// has no mix algorithm.)
std::unique_ptr<Accelerator> make_accelerator(nn::MixAlgorithm algo,
                                              const AccelConfig& hw,
                                              SchedulerPolicy drift_policy);

/// Runs the four designs on `spec`.
Comparison compare_workload(const nn::WorkloadSpec& spec,
                            const CompareConfig& config);

}  // namespace drift::accel
