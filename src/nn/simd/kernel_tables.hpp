// Internal: the per-backend kernel tables linked into the dispatcher.
// Whether the vector table exists is a *build-time* property (the AVX2
// translation unit is only compiled with -mavx2 on x86-64); whether it
// is *used* is a runtime property of detect_cpu_features().  Nothing
// outside src/nn/simd/ includes this.
#pragma once

#include "nn/simd/kernel_dispatch.hpp"

namespace drift::nn::simd {

extern const KernelTable kScalarTable;

#ifdef DRIFT_SIMD_BUILD_AVX2
extern const KernelTable kAvx2Table;
#endif

}  // namespace drift::nn::simd
