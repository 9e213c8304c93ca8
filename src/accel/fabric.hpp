// BitGroup fabric model (Section 4.2, Figure 5).
//
// Drift's computing engine is a grid of BitGroups whose inter-BG links
// are *bidirectional*: by programming each BG's activation-flow and
// psum-flow direction, the controller carves the one physical grid
// into four independent weight-stationary systolic arrays:
//
//   - the split point (r, c) assigns rows [0, r) and columns [0, c) to
//     the high-precision activation / weight classes;
//   - the top two sub-arrays drain partial sums *upward* (outputs exit
//     the top edge), the bottom two drain *downward* — the exact
//     reallocation move the paper describes ("reconfigure the data
//     flow direction of the psum in the third row of BGs from
//     downward to upward");
//   - the left two sub-arrays stream activations *rightward* from the
//     west edge, the right two stream *leftward* from the east edge.
//
// A split sets every BG's psum direction from its row alone and its
// activation direction from its column alone, so the fabric stores one
// psum direction per BG row and one activation direction per BG column
// (R + C entries, not R x C).  Reconfiguring, validating and counting
// rewritten BGs are O(R + C); the per-BG grid the counts must match is
// the oracle ref::GridFabric (src/ref/ref_fabric.hpp).
//
// This module materializes that link state, validates that a
// configuration forms four well-formed systolic arrays (every psum
// chain terminates at a chip edge without crossing a split boundary,
// every activation stream originates at a chip edge), and prices
// reconfiguration between layers in link rewrites and drain cycles.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/analytical_model.hpp"
#include "core/scheduler.hpp"

namespace drift::accel {

/// Per-BG dataflow directions.
enum class ActFlow : std::uint8_t { kEast, kWest };   ///< activation link
enum class PsumFlow : std::uint8_t { kSouth, kNorth };  ///< psum link

/// One BitGroup's link configuration.
struct BgLinks {
  ActFlow act = ActFlow::kEast;
  PsumFlow psum = PsumFlow::kSouth;

  bool operator==(const BgLinks&) const = default;
};

/// The four sub-arrays a split produces, with their grid extents.
struct SubArray {
  core::Quadrant quadrant;
  std::int64_t row0 = 0, rows = 0;
  std::int64_t col0 = 0, cols = 0;

  core::ArrayDims dims() const { return {rows, cols}; }
  bool empty() const { return rows == 0 || cols == 0; }
};

/// The reconfigurable BG grid.
class BitGroupFabric {
 public:
  explicit BitGroupFabric(core::ArrayDims dims);

  const core::ArrayDims& dims() const { return dims_; }

  /// Programs the four-way split at row cut `r` and column cut `c`
  /// (both may be 0 or the full extent for degenerate class mixes).
  /// Returns the number of BGs whose link directions changed:
  /// rows_changed * C + cols_changed * R - rows_changed * cols_changed.
  std::int64_t configure_split(std::int64_t r, std::int64_t c);

  /// Cycles one reconfiguration costs: the in-flight wavefronts drain
  /// (R + C - 2) and changed link registers are rewritten through the
  /// column-broadcast config bus (one cycle per affected row).
  std::int64_t reconfigure_cycles(std::int64_t r, std::int64_t c);

  /// Current split descriptors, in Quadrant order (hh, hl, lh, ll).
  std::array<SubArray, 4> sub_arrays() const;

  /// Link state of one BG: its row's psum and its column's activation
  /// direction.
  // drift-lint: allow(dead-api) — PropFabric.RowColumnStateMatchesGridOracle
  // compares every BG's links with ref::GridFabric's through it.
  BgLinks links(std::int64_t row, std::int64_t col) const;

  /// Structural validation of the current configuration:
  ///   - psum chains are uniform within each sub-array column and
  ///     terminate at the top or bottom chip edge,
  ///   - activation streams are uniform within each sub-array row and
  ///     originate at the west or east chip edge,
  ///   - no chain crosses the split boundary.
  /// Checks the R + C stored directions.  Returns an empty string
  /// when valid, else a diagnostic (built only on a failure).
  std::string validate() const;

  /// The programmed cut, which PropFabric.RowColumnStateMatchesGridOracle
  /// compares with ref::GridFabric's.
  // drift-lint: allow(dead-api) — the property's seam, as for links.
  std::int64_t current_r() const { return r_; }
  // drift-lint: allow(dead-api) — the property's seam, as for links.
  std::int64_t current_c() const { return c_; }

 private:
  core::ArrayDims dims_;
  std::int64_t r_ = 0, c_ = 0;
  std::vector<PsumFlow> row_psum_;  ///< one psum direction per BG row
  std::vector<ActFlow> col_act_;    ///< one act direction per BG column
};

}  // namespace drift::accel
