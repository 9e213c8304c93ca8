// Tests for the energy constants and breakdown accounting.
#include <gtest/gtest.h>

#include "energy/constants.hpp"

namespace drift::energy {
namespace {

TEST(Energy, BreakdownSumsAndAccumulates) {
  EnergyBreakdown a{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(a.total_pj(), 10.0);
  EnergyBreakdown b{0.5, 0.5, 0.5, 0.5};
  a += b;
  EXPECT_DOUBLE_EQ(a.static_pj, 1.5);
  EXPECT_DOUBLE_EQ(a.total_pj(), 12.0);
}

TEST(Energy, ConstantsOrderingsAreSane) {
  // An FP32 MAC costs far more than an INT8 MAC (16 BB ops + psum add).
  const double int8_mac = 16 * kBitbrickOpPj + kPsumAddPj;
  EXPECT_GT(kFp32MacPj, 3.0 * int8_mac);
  // INT4 is ~4x cheaper than INT8 on the BB substrate.
  const double int4_mac = 4 * kBitbrickOpPj + kPsumAddPj;
  EXPECT_GT(int8_mac / int4_mac, 2.5);
  // Buffer writes cost at least as much as reads.
  EXPECT_GE(kBufferWritePjPerByte, kBufferReadPjPerByte);
}

TEST(Energy, BitbrickOpsCoverFlexiblePrecisions) {
  // pa x ceil(pw/4): the spatial fusion arithmetic of the BG.
  EXPECT_EQ(bitbrick_ops_per_mac(1, 4), 1);
  EXPECT_EQ(bitbrick_ops_per_mac(8, 8), 16);
  EXPECT_EQ(bitbrick_ops_per_mac(5, 5), 10);
  EXPECT_EQ(bitbrick_ops_per_mac(3, 4), 3);
  EXPECT_EQ(bitbrick_ops_per_mac(4, 5), 8);
}

class BitbrickSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BitbrickSweep, MonotoneInBothOperands) {
  const auto [pa, pw] = GetParam();
  EXPECT_LE(bitbrick_ops_per_mac(pa, pw), bitbrick_ops_per_mac(pa + 1, pw));
  EXPECT_LE(bitbrick_ops_per_mac(pa, pw), bitbrick_ops_per_mac(pa, pw + 4));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BitbrickSweep,
    ::testing::Combine(::testing::Values(1, 3, 4, 5, 8),
                       ::testing::Values(3, 4, 5, 8)));

}  // namespace
}  // namespace drift::energy
