#include "nn/layer.hpp"

#include "nn/gemm.hpp"

namespace drift::nn {

std::shared_ptr<const PreparedWeight> WeightSlot::get(
    const QuantEngine& engine, const TensorF& weight) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (prepared_ == nullptr || config_ != engine.config()) {
    OperandResult rendered = engine.process_weight(weight);
    auto prepared = std::make_shared<PreparedWeight>();
    prepared->weight = transpose(rendered.effective);
    prepared->low_fraction_rows = rendered.low_fraction_rows;
    prepared_ = std::move(prepared);
    config_ = engine.config();
  }
  return prepared_;
}

}  // namespace drift::nn
