// Tests for src/tensor: shapes, tensors, sub-tensor views/partitions.
#include <gtest/gtest.h>

#include <numeric>

#include "tensor/shape.hpp"
#include "tensor/subtensor.hpp"
#include "tensor/tensor.hpp"
#include "util/assert.hpp"

namespace drift {
namespace {

TEST(Shape, NumelAndRank) {
  const Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s.dim(1), 3);
}

TEST(Shape, OffsetComputation) {
  const Shape s{2, 3, 4};
  EXPECT_EQ(s.offset({0, 0, 0}), 0);
  EXPECT_EQ(s.offset({1, 2, 3}), 23);
  EXPECT_EQ(s.offset({1, 0, 2}), 14);
}

TEST(Shape, OffsetRejectsOutOfBounds) {
  const Shape s{2, 3};
  EXPECT_THROW(s.offset({2, 0}), check_error);
  EXPECT_THROW(s.offset({0, 3}), check_error);
  EXPECT_THROW(s.offset({0}), check_error);
}

TEST(Shape, Equality) {
  EXPECT_EQ((Shape{2, 3}), (Shape{2, 3}));
  EXPECT_NE((Shape{2, 3}), (Shape{3, 2}));
}

TEST(Shape, RejectsNegativeDims) {
  EXPECT_THROW(Shape({-1, 2}), check_error);
}

TEST(Tensor, FillAndAccessors) {
  TensorF t(Shape{2, 3}, 1.5f);
  EXPECT_EQ(t.numel(), 6);
  EXPECT_FLOAT_EQ(t(1, 2), 1.5f);
  t(0, 1) = 7.0f;
  EXPECT_FLOAT_EQ(t.at(1), 7.0f);
}

TEST(Tensor, RowViewIsContiguousSlice) {
  TensorF t(Shape{3, 4});
  std::iota(t.data().begin(), t.data().end(), 0.0f);
  auto row = t.row(1);
  ASSERT_EQ(row.size(), 4u);
  EXPECT_FLOAT_EQ(row[0], 4.0f);
  EXPECT_FLOAT_EQ(row[3], 7.0f);
  row[0] = -1.0f;
  EXPECT_FLOAT_EQ(t(1, 0), -1.0f);
}

TEST(Tensor, DataVectorConstructorValidatesSize) {
  EXPECT_THROW(TensorF(Shape{2, 2}, std::vector<float>{1.0f}), check_error);
}

TEST(Tensor, FourDAccessor) {
  Tensor<std::int32_t> t(Shape{2, 2, 2, 2}, 0);
  t(1, 1, 1, 1) = 42;
  EXPECT_EQ(t.at(15), 42);
}

TEST(Tensor, AccessorsRejectOutOfBoundsAndRankMismatch) {
  TensorF t2(Shape{2, 3});
  const TensorF& c2 = t2;
  EXPECT_THROW(t2(2, 0), check_error);
  EXPECT_THROW(t2(0, 3), check_error);
  EXPECT_THROW(c2(1, 3), check_error);
  EXPECT_THROW(t2(-1, 0), check_error);
  EXPECT_THROW(c2(0, -1), check_error);
  EXPECT_THROW(t2(0, 0, 0), check_error);
  EXPECT_THROW(c2(0, 0, 0, 0), check_error);

  TensorF t3(Shape{2, 3, 4});
  const TensorF& c3 = t3;
  EXPECT_FLOAT_EQ(c3(1, 2, 3), 0.0f);
  EXPECT_THROW(t3(2, 0, 0), check_error);
  EXPECT_THROW(t3(0, 3, 0), check_error);
  EXPECT_THROW(c3(0, 0, 4), check_error);
  EXPECT_THROW(t3(0, -1, 0), check_error);
  EXPECT_THROW(c3(-1, 0, 0), check_error);
  EXPECT_THROW(t3(0, 0), check_error);
  EXPECT_THROW(c3(0, 0, 0, 0), check_error);

  TensorF t4(Shape{2, 3, 4, 5});
  const TensorF& c4 = t4;
  EXPECT_FLOAT_EQ(c4(1, 2, 3, 4), 0.0f);
  EXPECT_THROW(t4(2, 0, 0, 0), check_error);
  EXPECT_THROW(c4(0, 3, 0, 0), check_error);
  EXPECT_THROW(t4(0, 0, 4, 0), check_error);
  EXPECT_THROW(c4(0, 0, 0, 5), check_error);
  EXPECT_THROW(t4(0, 0, 0, -1), check_error);
  EXPECT_THROW(c4(-2, 0, 0, 0), check_error);
  EXPECT_THROW(t4(0, 0, 0), check_error);
  EXPECT_THROW(c4(0, 0), check_error);

  // A rank-1 tensor has no accessor of its own rank; every arity fails.
  TensorF t1(Shape{4});
  EXPECT_THROW(t1(0, 0), check_error);
}

TEST(SubTensorView, GatherScatterRoundTrip) {
  std::vector<float> buffer(12);
  std::iota(buffer.begin(), buffer.end(), 0.0f);
  SubTensorView view(std::vector<::drift::Run>{{2, 3}, {8, 2}});
  EXPECT_EQ(view.size(), 5);

  std::vector<float> gathered(5);
  view.gather<float>(buffer, gathered);
  EXPECT_EQ(gathered, (std::vector<float>{2, 3, 4, 8, 9}));

  std::vector<float> replacement = {-1, -2, -3, -4, -5};
  view.scatter<float>(replacement, buffer);
  EXPECT_FLOAT_EQ(buffer[2], -1.0f);
  EXPECT_FLOAT_EQ(buffer[9], -5.0f);
  EXPECT_FLOAT_EQ(buffer[5], 5.0f);  // untouched
}

TEST(SubTensorView, ForEachVisitsAllElementsInOrder) {
  std::vector<float> buffer = {0, 1, 2, 3, 4, 5};
  SubTensorView view(std::vector<::drift::Run>{{4, 2}, {0, 1}});
  std::vector<float> seen;
  view.for_each<float>(buffer, [&](float v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<float>{4, 5, 0}));
}

TEST(SubTensorView, TransformMutatesInPlace) {
  std::vector<float> buffer = {1, 2, 3, 4};
  SubTensorView view(std::vector<::drift::Run>{{1, 2}});
  view.transform<float>(std::span<float>(buffer), [](float& v) { v *= 10; });
  EXPECT_EQ(buffer, (std::vector<float>{1, 20, 30, 4}));
}

TEST(SubTensorView, RejectsInvalidRuns) {
  EXPECT_THROW(SubTensorView(std::vector<::drift::Run>{{-1, 2}}), check_error);
  EXPECT_THROW(SubTensorView(std::vector<::drift::Run>{{0, 0}}), check_error);
}

TEST(PartitionRows, OneViewPerRow) {
  const auto views = partition_rows(Shape{4, 5});
  ASSERT_EQ(views.size(), 4u);
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(views[r].size(), 5);
    EXPECT_EQ(views[r].runs().front().offset,
              static_cast<std::int64_t>(r) * 5);
  }
}

TEST(PartitionRegions, CoversEveryElementExactlyOnce) {
  const Shape shape{3, 7, 5};  // deliberately non-divisible by region 4
  const auto views = partition_regions(shape, 4);
  std::vector<int> touched(static_cast<std::size_t>(shape.numel()), 0);
  std::int64_t total = 0;
  for (const auto& v : views) {
    total += v.size();
    for (const ::drift::Run& r : v.runs()) {
      for (std::int64_t i = 0; i < r.length; ++i) {
        ++touched[static_cast<std::size_t>(r.offset + i)];
      }
    }
  }
  EXPECT_EQ(total, shape.numel());
  for (int t : touched) EXPECT_EQ(t, 1);
}

TEST(PartitionRegions, RegionCountAndChannelSpan) {
  // 8x8 spatial, region 4 -> 2x2 regions, each spanning all channels.
  const auto views = partition_regions(Shape{16, 8, 8}, 4);
  ASSERT_EQ(views.size(), 4u);
  for (const auto& v : views) EXPECT_EQ(v.size(), 16 * 4 * 4);
}

TEST(PartitionBlocks, LastBlockMayBeShort) {
  const auto views = partition_blocks(10, 4);
  ASSERT_EQ(views.size(), 3u);
  EXPECT_EQ(views[0].size(), 4);
  EXPECT_EQ(views[2].size(), 2);
}

class PartitionRegionsParam
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(PartitionRegionsParam, PartitionIsAlwaysExact) {
  const auto [c, h, w, g] = GetParam();
  const Shape shape{c, h, w};
  const auto views = partition_regions(shape, g);
  std::int64_t total = 0;
  for (const auto& v : views) total += v.size();
  EXPECT_EQ(total, shape.numel());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionRegionsParam,
    ::testing::Values(std::make_tuple(1, 1, 1, 1),
                      std::make_tuple(4, 16, 16, 4),
                      std::make_tuple(3, 5, 9, 4),
                      std::make_tuple(8, 14, 14, 7),
                      std::make_tuple(2, 32, 8, 16),
                      std::make_tuple(5, 11, 13, 3)));

}  // namespace
}  // namespace drift
