// Eyeriss baseline (Chen et al., ISSCC/ISCA 2016): a 14 x 16
// row-stationary PE array executing the uncompressed FP32 model
// (Section 5.1 normalizes all results to this design).
//
// The row-stationary mapping assigns filter rows to PE rows and output
// rows to PE columns; when the kernel is shorter than 14 rows, filter
// sets are replicated vertically.  Utilization therefore depends on
// how (kernel, output height) fit the 14 x 16 grid — full-size convs
// map well, pointwise/FC layers less so.
#pragma once

#include "accel/accelerator.hpp"

namespace drift::accel {

class EyerissModel : public Accelerator {
 public:
  explicit EyerissModel(AccelConfig config) : Accelerator(std::move(config)) {}

  std::string name() const override { return "Eyeriss"; }

  static constexpr std::int64_t kPeRows = 14;
  static constexpr std::int64_t kPeCols = 16;
  static constexpr std::int64_t kPeCount = kPeRows * kPeCols;  // 224
  /// Static power of one FP32 PE relative to one BitGroup (Eyeriss's
  /// PEs carry FP32 datapaths and large register files).
  static constexpr double kFp32UnitStaticMultiplier = 4.0;

  /// Active PEs for a layer under the row-stationary mapping.
  static std::int64_t mapped_pes(const nn::LayerGemm& layer);

  RunResult run(const nn::WorkloadSpec& spec,
                const std::vector<nn::LayerMix>& mixes) override;
};

}  // namespace drift::accel
