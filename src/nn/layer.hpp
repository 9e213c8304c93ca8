// Layer interface for the functional simulation stack.
//
// Layers transform a single sample (no batch dimension): transformer
// layers see [T, D] token matrices, CNN layers see [C, H, W] feature
// maps.  Every GEMM-bearing layer routes its operands through the
// QuantEngine so one model definition serves all four execution modes.
#pragma once

#include <memory>
#include <mutex>
#include <string>

#include "nn/quant_engine.hpp"
#include "tensor/tensor.hpp"

namespace drift::nn {

/// Abstract layer.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward pass.  `engine` decides how operands are quantized and
  /// collects per-GEMM records.
  virtual TensorF forward(const TensorF& input, QuantEngine& engine) = 0;

  /// Human-readable layer name (unique within a model).
  virtual const std::string& name() const = 0;
};

using LayerPtr = std::unique_ptr<Layer>;

/// A layer's weight as one engine configuration renders it.
struct PreparedWeight {
  TensorF weight;                  ///< rendered, transposed to [K, N]
  double low_fraction_rows = 0.0;  ///< QuantEngine::process_weight's share
};

/// The prepared-weight slot of a GEMM layer (Linear, Conv2d).  It
/// stores the rendering transposed to [K, N], the layout matmul takes.
/// Rendering a weight reads only the weight and the engine's Config,
/// and layers expose their weights read-only, so the whole Config is a
/// complete key: the slot renders on first use, re-renders when a
/// forward pass brings a different Config, and otherwise returns the
/// cached rendering — bit for bit what process_weight would return
/// again.
/// Concurrent forwards are safe: the fill runs under the slot's lock,
/// and each caller holds its own reference, so a re-render never frees
/// a weight another forward is still multiplying by.
class WeightSlot {
 public:
  /// The rendering of `weight` — always the owning layer's weight —
  /// under `engine`'s config.
  std::shared_ptr<const PreparedWeight> get(const QuantEngine& engine,
                                            const TensorF& weight);

 private:
  std::mutex mutex_;
  QuantEngine::Config config_;
  std::shared_ptr<const PreparedWeight> prepared_;
};

}  // namespace drift::nn
