// Unit tests for the SIMD kernel dispatch layer: backend selection,
// the force-scalar override, and the overflow bound the vector dot
// kernels rely on.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "nn/simd/kernel_dispatch.hpp"
#include "nn/simd/pack.hpp"

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
    EXPECT_NE(kt.dot_s8s8, nullptr);
    EXPECT_NE(kt.dot_s8s4, nullptr);
    EXPECT_NE(kt.dot_s4s4, nullptr);
    EXPECT_NE(kt.quantize_convert_row, nullptr);
    EXPECT_NE(kt.reduce_stats, nullptr);
    EXPECT_NE(kt.gemm_f32_block, nullptr);
  }
}

TEST(SimdDispatch, MaxDotLengthRespectsLaneAccumulatorRange) {
  // The widest vector layout spreads a length-n s8s8 dot over 8 int32
  // lanes with two products pre-added per madd step, so a lane absorbs
  // at most n/4 addends of at most 127*127 — the bound must keep that
  // under INT32_MAX with margin.
  const std::int64_t worst_lane =
      (kMaxDotLength / 4) * std::int64_t{127} * std::int64_t{127};
  EXPECT_LT(worst_lane, std::int64_t{INT32_MAX});
}

TEST(SimdDispatch, PackedSizeRoundsUp) {
  EXPECT_EQ(packed_size(0), 0);
  EXPECT_EQ(packed_size(1), 1);
  EXPECT_EQ(packed_size(2), 1);
  EXPECT_EQ(packed_size(7), 4);
  EXPECT_EQ(packed_size(8), 4);
}

}  // namespace
}  // namespace drift::nn::simd
