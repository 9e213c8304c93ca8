// Quantized execution engine.
//
// The accuracy experiments (Figure 6, Table 1) run real forward passes
// where every GEMM operand is first replaced by the value the hardware
// would actually compute with:
//
//   kFloat32    — identity (the FP32 baseline)
//   kStaticInt8 — Eq. 1 per-tensor INT8 rendering (BitFusion baseline)
//   kDrq        — DRQ's region-based 4/8-bit rendering
//   kDrift      — the paper's distribution-based dynamic rendering
//
// The engine also records, per GEMM, the precision-class mix the
// hardware benches consume (fraction of low rows/channels).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/drq_quantizer.hpp"
#include "core/selector.hpp"
#include "tensor/tensor.hpp"

namespace drift::nn {

/// Which quantization algorithm the engine applies.
enum class QuantMode { kFloat32, kStaticInt8, kDrq, kDrift };

std::string to_string(QuantMode mode);

/// Per-GEMM record accumulated during a forward pass.
struct GemmRecord {
  std::string layer;
  std::int64_t m = 0, k = 0, n = 0;
  /// Element-weighted fraction of activation data selected low.
  double act_low_fraction = 0.0;
  /// Fraction of weight output channels selected low.
  double weight_low_fraction = 0.0;
};

/// Result of processing one operand.
struct OperandResult {
  TensorF effective;              ///< what the hardware computes with
  double low_fraction = 0.0;      ///< element-weighted low-precision share
  double low_fraction_rows = 0.0; ///< sub-tensor-count-weighted share
};

/// The engine.  Stateless between operands except for the record log.
class QuantEngine {
 public:
  struct Config {
    QuantMode mode = QuantMode::kFloat32;
    core::SelectorConfig drift{};   ///< Drift selector (hp/lp/δ)
    core::DrqConfig drq{};          ///< DRQ baseline parameters
    bool dynamic_weights = true;    ///< Drift: per-channel 4/8 weights
    /// Drift: when true, the per-tensor δ is chosen automatically as
    /// the minimum threshold whose excess rounding noise stays within
    /// `noise_budget` x signal variance (core/noise_budget.hpp); when
    /// false, `drift.density_threshold` is used as a fixed δ.
    bool auto_threshold = true;
    double noise_budget = 0.05;

    /// Field-wise.  Equal configs render every operand identically,
    /// which is what the layers' weight slots key on.
    bool operator==(const Config&) const = default;
  };

  explicit QuantEngine(Config config) : config_(config) {}
  const Config& config() const { return config_; }
  QuantMode mode() const { return config_.mode; }

  /// Processes a [M, K] activation matrix at row (token/patch)
  /// granularity.
  OperandResult process_activation_rows(const TensorF& x) const;

  /// Spatial region edge for conv inputs.
  static constexpr std::int64_t kRegion = 4;

  /// Processes a [C, H, W] activation tensor at DRQ's region
  /// granularity (all algorithms use the same sub-tensor size on CNN
  /// inputs, per Section 5.1).
  OperandResult process_activation_regions(const TensorF& x) const;

  /// Processes an output-major [N, K] weight matrix at per-output-
  /// channel granularity.  DRQ and INT8 keep weights static 8-bit;
  /// Drift optionally applies the same selector to weight channels.
  OperandResult process_weight(const TensorF& w) const;

  /// Appends one GEMM record to the log.
  void record(const std::string& layer, std::int64_t m, std::int64_t k,
              std::int64_t n, double act_low, double weight_low);

  const std::vector<GemmRecord>& records() const { return records_; }
  void clear_records() { records_.clear(); }

  /// Element-weighted mean activation low fraction over all records
  /// (weighted by GEMM MAC count) — the "% of 4-bit computation"
  /// summary number of Figure 6 / Table 1.
  double overall_act_low_fraction() const;

 private:
  OperandResult process_with_views(const TensorF& x,
                                   const std::vector<SubTensorView>& views)
      const;

  Config config_;
  mutable std::vector<GemmRecord> records_;
};

}  // namespace drift::nn
