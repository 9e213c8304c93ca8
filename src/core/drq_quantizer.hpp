// DRQ baseline algorithm (Song et al., ISCA 2020), reproduced as the
// paper's algorithmic comparison point.
//
// DRQ partitions the input feature map into fixed-size regions and
// classifies each region as *sensitive* or *insensitive* by comparing
// its mean absolute value against a calibrated threshold.  Sensitive
// regions are computed at 8-bit; insensitive regions at 4-bit, where
// the 4-bit rendering keeps the high (magnitude) bits of the
// tensor-wide 8-bit code, i.e. the low bits are truncated (hc = 0,
// lc = hp - lp), always with the *tensor-wide* scaling factor.
//
// This is precisely the design decision that breaks down on
// transformer activations: a handful of outlier tokens inflate the
// tensor-wide Δ, so the fixed low-bit truncation zeroes out the
// (semantically loaded) small-magnitude tokens — the > 12 % accuracy
// collapse Figure 6 of the Drift paper reports.
#pragma once

#include <span>
#include <vector>

#include "core/precision.hpp"
#include "core/quantizer.hpp"
#include "core/selector.hpp"
#include "tensor/subtensor.hpp"

namespace drift::core {

/// DRQ configuration.
struct DrqConfig {
  Precision hp = kInt8;
  Precision lp = kInt4;
  /// A region is sensitive when its mean(|Y|) exceeds
  /// `sensitivity` * mean(|X|) of the whole tensor.  DRQ calibrates
  /// this on CNN validation data; 1.0 reproduces its published
  /// behaviour (large-activation regions stay 8-bit).
  double sensitivity = 1.0;

  bool operator==(const DrqConfig&) const = default;
};

/// The DRQ region classifier + converter.  API mirrors
/// DynamicQuantizer so executors can swap algorithms.
class DrqQuantizer {
 public:
  explicit DrqQuantizer(DrqConfig config) : config_(config) {}

  const DrqConfig& config() const { return config_; }

  /// Classifies every region.  Insensitive regions are marked low with
  /// the fixed (hc = 0, lc = hp - lp) truncation choice.
  PrecisionMap select(std::span<const float> values,
                      const std::vector<SubTensorView>& views,
                      const QuantParams& params) const;

  /// Produces the dequantized tensor DRQ hardware computes with.
  std::vector<float> apply(std::span<const float> values,
                           const std::vector<SubTensorView>& views,
                           const QuantParams& params,
                           const PrecisionMap& map) const;

 private:
  DrqConfig config_;
};

}  // namespace drift::core
