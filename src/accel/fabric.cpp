#include "accel/fabric.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace drift::accel {
namespace {

// Top half (high-precision activation rows) drains north so its
// outputs leave at the top edge; bottom half drains south.
PsumFlow psum_for(std::int64_t row, std::int64_t r) {
  return row < r ? PsumFlow::kNorth : PsumFlow::kSouth;
}

// Left half (high-precision weight columns) streams east from the west
// edge; right half streams west from the east edge.
ActFlow act_for(std::int64_t col, std::int64_t c) {
  return col < c ? ActFlow::kEast : ActFlow::kWest;
}

}  // namespace

BitGroupFabric::BitGroupFabric(core::ArrayDims dims) : dims_(dims) {
  DRIFT_CHECK(dims.rows > 0 && dims.cols > 0, "empty fabric");
  // Link registers reset to BgLinks' defaults.  Power-on then programs
  // one whole-grid array (everything high-precision): acts stream east
  // from the west edge, psums drain north (the whole grid is the "top
  // half" of a degenerate split at r = rows).
  row_psum_.assign(static_cast<std::size_t>(dims.rows), BgLinks{}.psum);
  col_act_.assign(static_cast<std::size_t>(dims.cols), BgLinks{}.act);
  configure_split(dims.rows, dims.cols);
}

BgLinks BitGroupFabric::links(std::int64_t row, std::int64_t col) const {
  DRIFT_CHECK_INDEX(row, dims_.rows);
  DRIFT_CHECK_INDEX(col, dims_.cols);
  return {col_act_[static_cast<std::size_t>(col)],
          row_psum_[static_cast<std::size_t>(row)]};
}

std::int64_t BitGroupFabric::configure_split(std::int64_t r,
                                             std::int64_t c) {
  DRIFT_CHECK(r >= 0 && r <= dims_.rows, "row cut out of range");
  DRIFT_CHECK(c >= 0 && c <= dims_.cols, "column cut out of range");
  std::int64_t rows_changed = 0, cols_changed = 0;
  for (std::int64_t row = 0; row < dims_.rows; ++row) {
    PsumFlow& link = row_psum_[static_cast<std::size_t>(row)];
    const PsumFlow next = psum_for(row, r);
    rows_changed += link != next ? 1 : 0;
    link = next;
  }
  for (std::int64_t col = 0; col < dims_.cols; ++col) {
    ActFlow& link = col_act_[static_cast<std::size_t>(col)];
    const ActFlow next = act_for(col, c);
    cols_changed += link != next ? 1 : 0;
    link = next;
  }
  r_ = r;
  c_ = c;
  // A BG is rewritten when its row's psum or its column's activation
  // direction changed.
  return rows_changed * dims_.cols + cols_changed * dims_.rows -
         rows_changed * cols_changed;
}

std::int64_t BitGroupFabric::reconfigure_cycles(std::int64_t r,
                                                std::int64_t c) {
  const std::int64_t drain = dims_.rows + dims_.cols - 2;
  const std::int64_t before_r = r_, before_c = c_;
  const std::int64_t rewrites = configure_split(r, c);
  if (rewrites == 0 && before_r == r && before_c == c) return 0;
  // Config bus broadcasts one row of link registers per cycle; only
  // rows whose links changed need a broadcast.
  const std::int64_t changed_rows =
      (std::max(before_r, r) - std::min(before_r, r)) +
      (before_c != c ? dims_.rows : 0);
  return drain + std::min<std::int64_t>(changed_rows, dims_.rows);
}

std::array<SubArray, 4> BitGroupFabric::sub_arrays() const {
  return {{
      {core::Quadrant::kHH, 0, r_, 0, c_},
      {core::Quadrant::kHL, 0, r_, c_, dims_.cols - c_},
      {core::Quadrant::kLH, r_, dims_.rows - r_, 0, c_},
      {core::Quadrant::kLL, r_, dims_.rows - r_, c_, dims_.cols - c_},
  }};
}

std::string BitGroupFabric::validate() const {
  std::string problems;
  // Psum chains: every row must drain north above the cut at r_ and
  // south below it, so each column's chain reaches a chip edge without
  // crossing the cut.
  for (std::int64_t row = 0; row < dims_.rows; ++row) {
    if (row_psum_[static_cast<std::size_t>(row)] != psum_for(row, r_)) {
      problems += "psum links of row " + std::to_string(row) +
                  " cross the row cut; ";
    }
  }
  // Activation streams: east left of the cut at c_, west right of it,
  // so each stream originates at a chip edge.
  for (std::int64_t col = 0; col < dims_.cols; ++col) {
    if (col_act_[static_cast<std::size_t>(col)] != act_for(col, c_)) {
      problems += "act links of column " + std::to_string(col) +
                  " cross the column cut; ";
    }
  }
  // Sub-array extents must tile the grid exactly.
  std::int64_t covered = 0;
  for (const SubArray& sa : sub_arrays()) covered += sa.rows * sa.cols;
  if (covered != dims_.rows * dims_.cols) {
    problems += "sub-arrays do not tile the grid; ";
  }
  return problems;
}

}  // namespace drift::accel
