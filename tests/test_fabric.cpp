// Tests for the BitGroup fabric reconfiguration model and the
// controller overhead accounting (Section 4.1-4.2).
#include <gtest/gtest.h>

#include "accel/controller.hpp"
#include "accel/fabric.hpp"
#include "nn/precision_mix.hpp"
#include "util/assert.hpp"

namespace drift::accel {
namespace {

TEST(Fabric, PowerOnDefaultIsOneValidArray) {
  BitGroupFabric fabric({4, 5});
  EXPECT_EQ(fabric.current_r(), 4);
  EXPECT_EQ(fabric.current_c(), 5);
  EXPECT_EQ(fabric.validate(), "");
  for (std::int64_t r = 0; r < 4; ++r) {
    for (std::int64_t c = 0; c < 5; ++c) {
      EXPECT_EQ(fabric.links(r, c).act, ActFlow::kEast);
      EXPECT_EQ(fabric.links(r, c).psum, PsumFlow::kNorth);
    }
  }
}

TEST(Fabric, SplitProducesFourValidSubArrays) {
  BitGroupFabric fabric({24, 33});
  fabric.configure_split(9, 12);
  EXPECT_EQ(fabric.validate(), "");
  const auto subs = fabric.sub_arrays();
  ASSERT_EQ(subs.size(), 4u);
  EXPECT_EQ(subs[0].rows, 9);
  EXPECT_EQ(subs[0].cols, 12);
  EXPECT_EQ(subs[3].rows, 15);
  EXPECT_EQ(subs[3].cols, 21);
  std::int64_t total = 0;
  for (const auto& s : subs) total += s.rows * s.cols;
  EXPECT_EQ(total, 24 * 33);
}

TEST(Fabric, TopHalfDrainsNorthBottomDrainsSouth) {
  BitGroupFabric fabric({8, 8});
  fabric.configure_split(3, 4);
  EXPECT_EQ(fabric.links(0, 0).psum, PsumFlow::kNorth);
  EXPECT_EQ(fabric.links(2, 7).psum, PsumFlow::kNorth);
  EXPECT_EQ(fabric.links(3, 0).psum, PsumFlow::kSouth);
  EXPECT_EQ(fabric.links(7, 7).psum, PsumFlow::kSouth);
  EXPECT_EQ(fabric.links(0, 3).act, ActFlow::kEast);
  EXPECT_EQ(fabric.links(0, 4).act, ActFlow::kWest);
}

TEST(Fabric, ReconfigureCountsOnlyChangedLinks) {
  BitGroupFabric fabric({8, 8});
  fabric.configure_split(4, 4);
  // Same split again: nothing to rewrite.
  EXPECT_EQ(fabric.configure_split(4, 4), 0);
  // Moving the row cut by one affects exactly one row of psum links.
  EXPECT_EQ(fabric.configure_split(5, 4), 8);
}

TEST(Fabric, ReconfigureCyclesZeroWhenUnchanged) {
  BitGroupFabric fabric({8, 8});
  fabric.configure_split(4, 4);
  EXPECT_EQ(fabric.reconfigure_cycles(4, 4), 0);
  EXPECT_GT(fabric.reconfigure_cycles(2, 4), 0);
}

TEST(Fabric, DegenerateSplitsAreValid) {
  BitGroupFabric fabric({6, 6});
  for (std::int64_t r : {0L, 6L}) {
    for (std::int64_t c : {0L, 6L}) {
      fabric.configure_split(r, c);
      EXPECT_EQ(fabric.validate(), "") << "r=" << r << " c=" << c;
    }
  }
}

TEST(Fabric, OutOfRangeSplitThrows) {
  BitGroupFabric fabric({4, 4});
  EXPECT_THROW(fabric.configure_split(5, 0), drift::check_error);
  EXPECT_THROW(fabric.configure_split(0, -1), drift::check_error);
}

TEST(Controller, IndexBufferAndOverlapOnBert) {
  nn::MixConfig cfg;
  cfg.algo = nn::MixAlgorithm::kDrift;
  cfg.noise_budget = 0.05;
  const auto mixes = nn::build_mixes(nn::make_bert_base(), cfg);
  const auto report = evaluate_controller(mixes, {24, 33});
  ASSERT_EQ(report.layers.size(), mixes.size());
  // The paper's "no additional overhead" claim: the per-layer control
  // work hides under the previous layer's compute, and the index
  // records fit the provisioned buffer.
  EXPECT_TRUE(report.fits_index_buffer);
  EXPECT_GT(report.overlapped_fraction, 0.85);
  EXPECT_GT(report.peak_index_bytes, 0);
}

TEST(Controller, IndexBitsAreFourPerSubtensor) {
  nn::MixConfig cfg;
  cfg.algo = nn::MixAlgorithm::kDrift;
  const auto mixes = nn::build_mixes(nn::make_deit_s(), cfg);
  const auto report = evaluate_controller(mixes, {24, 33});
  for (std::size_t i = 0; i < mixes.size(); ++i) {
    EXPECT_EQ(report.layers[i].index_bits,
              4 * (mixes[i].layer.dims.M + mixes[i].layer.dims.N));
  }
}

}  // namespace
}  // namespace drift::accel
