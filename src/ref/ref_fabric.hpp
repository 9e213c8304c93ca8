// Per-BG grid oracle for accel::BitGroupFabric's row/column link state.
//
// Stores every BitGroup's activation and psum direction (R x C cells),
// rewrites each cell on every split and validates by scanning the whole
// grid twice.  The production fabric keeps one psum direction per row
// and one activation direction per column; after any sequence of cuts
// the two must agree on rewrite counts, reconfiguration cycles, every
// BG's links, the current cut, the sub-arrays and validation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

// drift-lint: allow(oracle-include) — type-only include: BgLinks,
// SubArray and the flow enums are plain data types; the fabric code
// under test is not linked into the oracle.
#include "accel/fabric.hpp"

namespace drift::ref {

class GridFabric {
 public:
  explicit GridFabric(core::ArrayDims dims);

  const core::ArrayDims& dims() const { return dims_; }

  /// Programs the split at (r, c) cell by cell; returns the number of
  /// BGs whose links changed.
  std::int64_t configure_split(std::int64_t r, std::int64_t c);

  /// Drain (R + C - 2) plus one config-bus cycle per changed row.
  std::int64_t reconfigure_cycles(std::int64_t r, std::int64_t c);

  std::vector<accel::SubArray> sub_arrays() const;

  const accel::BgLinks& links(std::int64_t row, std::int64_t col) const;

  /// Scans every BG; empty when the grid forms four systolic arrays.
  std::string validate() const;

  std::int64_t current_r() const { return r_; }
  std::int64_t current_c() const { return c_; }

 private:
  accel::BgLinks& mutable_links(std::int64_t row, std::int64_t col);

  core::ArrayDims dims_;
  std::int64_t r_ = 0, c_ = 0;
  std::vector<accel::BgLinks> grid_;
};

}  // namespace drift::ref
