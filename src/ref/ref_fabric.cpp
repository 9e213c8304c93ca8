#include "ref/ref_fabric.hpp"

#include <algorithm>
#include <sstream>

// drift-lint: allow(oracle-include) — assertion macro only; shares no
// computational code with the implementations under test.
#include "util/assert.hpp"

namespace drift::ref {

using accel::ActFlow;
using accel::BgLinks;
using accel::PsumFlow;
using accel::SubArray;

GridFabric::GridFabric(core::ArrayDims dims)
    : dims_(dims),
      grid_(static_cast<std::size_t>(dims.rows * dims.cols)) {
  DRIFT_CHECK(dims.rows > 0 && dims.cols > 0, "empty fabric");
  configure_split(dims.rows, dims.cols);
}

const BgLinks& GridFabric::links(std::int64_t row, std::int64_t col) const {
  DRIFT_CHECK_INDEX(row, dims_.rows);
  DRIFT_CHECK_INDEX(col, dims_.cols);
  return grid_[static_cast<std::size_t>(row * dims_.cols + col)];
}

BgLinks& GridFabric::mutable_links(std::int64_t row, std::int64_t col) {
  DRIFT_CHECK_INDEX(row, dims_.rows);
  DRIFT_CHECK_INDEX(col, dims_.cols);
  return grid_[static_cast<std::size_t>(row * dims_.cols + col)];
}

std::int64_t GridFabric::configure_split(std::int64_t r, std::int64_t c) {
  DRIFT_CHECK(r >= 0 && r <= dims_.rows, "row cut out of range");
  DRIFT_CHECK(c >= 0 && c <= dims_.cols, "column cut out of range");
  std::int64_t rewrites = 0;
  for (std::int64_t row = 0; row < dims_.rows; ++row) {
    for (std::int64_t col = 0; col < dims_.cols; ++col) {
      BgLinks next;
      next.psum = row < r ? PsumFlow::kNorth : PsumFlow::kSouth;
      next.act = col < c ? ActFlow::kEast : ActFlow::kWest;
      BgLinks& cur = mutable_links(row, col);
      if (!(cur == next)) {
        ++rewrites;
        cur = next;
      }
    }
  }
  r_ = r;
  c_ = c;
  return rewrites;
}

std::int64_t GridFabric::reconfigure_cycles(std::int64_t r, std::int64_t c) {
  const std::int64_t drain = dims_.rows + dims_.cols - 2;
  const std::int64_t before_r = r_, before_c = c_;
  const std::int64_t rewrites = configure_split(r, c);
  if (rewrites == 0 && before_r == r && before_c == c) return 0;
  const std::int64_t changed_rows =
      (std::max(before_r, r) - std::min(before_r, r)) +
      (before_c != c ? dims_.rows : 0);
  return drain + std::min<std::int64_t>(changed_rows, dims_.rows);
}

std::vector<SubArray> GridFabric::sub_arrays() const {
  return {
      {core::Quadrant::kHH, 0, r_, 0, c_},
      {core::Quadrant::kHL, 0, r_, c_, dims_.cols - c_},
      {core::Quadrant::kLH, r_, dims_.rows - r_, 0, c_},
      {core::Quadrant::kLL, r_, dims_.rows - r_, c_, dims_.cols - c_},
  };
}

std::string GridFabric::validate() const {
  std::ostringstream problems;
  for (std::int64_t col = 0; col < dims_.cols; ++col) {
    for (std::int64_t row = 0; row < dims_.rows; ++row) {
      const PsumFlow expect =
          row < r_ ? PsumFlow::kNorth : PsumFlow::kSouth;
      if (links(row, col).psum != expect) {
        problems << "psum link at (" << row << "," << col
                 << ") crosses the row cut; ";
      }
    }
  }
  for (std::int64_t row = 0; row < dims_.rows; ++row) {
    for (std::int64_t col = 0; col < dims_.cols; ++col) {
      const ActFlow expect = col < c_ ? ActFlow::kEast : ActFlow::kWest;
      if (links(row, col).act != expect) {
        problems << "act link at (" << row << "," << col
                 << ") crosses the column cut; ";
      }
    }
  }
  std::int64_t covered = 0;
  for (const SubArray& sa : sub_arrays()) covered += sa.rows * sa.cols;
  if (covered != dims_.rows * dims_.cols) {
    problems << "sub-arrays do not tile the grid; ";
  }
  return problems.str();
}

}  // namespace drift::ref
