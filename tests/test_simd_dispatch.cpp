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
  EXPECT_EQ(active_backend(), Backend::kScalar);
  EXPECT_STREQ(active().name, "scalar");
}

TEST(SimdDispatch, BackendEnumMatchesTableName) {
  ForceScalarGuard guard;
  set_force_scalar(false);
  const std::string name = active().name;
  switch (active_backend()) {
    case Backend::kScalar:
      EXPECT_EQ(name, "scalar");
      break;
    case Backend::kAvx2:
      EXPECT_EQ(name, "avx2");
      break;
    case Backend::kNeon:
      EXPECT_EQ(name, "neon");
      break;
  }
}

TEST(SimdDispatch, NativeBackendMatchesDetectedFeatures) {
  ForceScalarGuard guard;
  set_force_scalar(false);
  const CpuFeatures features = detect_cpu_features();
  // The dispatcher may only pick a vector backend the CPU reports.
  if (active_backend() == Backend::kAvx2) EXPECT_TRUE(features.avx2);
  if (active_backend() == Backend::kNeon) EXPECT_TRUE(features.neon);
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
