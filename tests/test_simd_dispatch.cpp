// Unit tests for the SIMD kernel dispatch layer: backend selection,
// the force-scalar override, and a fully populated table on every
// backend.
#include <gtest/gtest.h>

#include <string>

#include "nn/simd/kernel_dispatch.hpp"

namespace drift::nn::simd {
namespace {

struct ForceScalarGuard {
  bool prev = force_scalar();
  ~ForceScalarGuard() { set_force_scalar(prev); }
};

TEST(SimdDispatch, ForceScalarPinsTheScalarTable) {
  ForceScalarGuard guard;
  set_force_scalar(true);
  EXPECT_TRUE(force_scalar());
  EXPECT_STREQ(active().name, "scalar");
}

TEST(SimdDispatch, NativeBackendMatchesDetectedFeatures) {
  ForceScalarGuard guard;
  set_force_scalar(false);
  const CpuFeatures features = detect_cpu_features();
  // The dispatcher may only pick a vector backend the CPU reports.
  const std::string name = active().name;
  if (name == "avx2") {
    EXPECT_TRUE(features.avx2);
  } else {
    EXPECT_EQ(name, "scalar");
  }
}

TEST(SimdDispatch, TablesAreFullyPopulated) {
  ForceScalarGuard guard;
  for (const bool force : {true, false}) {
    set_force_scalar(force);
    const KernelTable& kt = active();
    EXPECT_NE(kt.name, nullptr);
    EXPECT_NE(kt.quantize_convert_row, nullptr);
    EXPECT_NE(kt.reduce_stats, nullptr);
    EXPECT_NE(kt.gemm_f32_block, nullptr);
  }
}

}  // namespace
}  // namespace drift::nn::simd
