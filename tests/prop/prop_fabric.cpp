// Differential suite: the row/column BitGroup fabric vs. the per-BG
// grid in src/ref/ref_fabric.hpp.
//
// Random grids from 1x1 to 48x48 run through random cut sequences
// (0 and full cuts, repeats and one-slice moves included), mixing
// configure_split and reconfigure_cycles calls.  After every step the
// two must agree on the returned count, the current cut, every BG's
// links, the sub-arrays and validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "accel/fabric.hpp"
#include "proptest/proptest_gtest.hpp"
#include "ref/ref_fabric.hpp"

namespace drift {
namespace {

/// A cut in [0, extent]: weighted toward 0, the full extent, the
/// current cut and its neighbours.
std::int64_t gen_cut(Rng& rng, std::int64_t extent, std::int64_t current) {
  const double kind = rng.uniform();
  std::int64_t cut;
  if (kind < 0.15) {
    cut = 0;
  } else if (kind < 0.3) {
    cut = extent;
  } else if (kind < 0.4) {
    cut = current;
  } else if (kind < 0.55) {
    cut = current + (rng.bernoulli(0.5) ? 1 : -1);
  } else {
    cut = rng.uniform_int(0, extent);
  }
  return std::min(std::max<std::int64_t>(cut, 0), extent);
}

proptest::Result compare(const accel::BitGroupFabric& got,
                         const ref::GridFabric& want) {
  if (got.current_r() != want.current_r() ||
      got.current_c() != want.current_c()) {
    return proptest::fail("cut (", got.current_r(), ", ", got.current_c(),
                          ") vs oracle (", want.current_r(), ", ",
                          want.current_c(), ")");
  }
  const core::ArrayDims& dims = want.dims();
  for (std::int64_t row = 0; row < dims.rows; ++row) {
    for (std::int64_t col = 0; col < dims.cols; ++col) {
      if (!(got.links(row, col) == want.links(row, col))) {
        return proptest::fail("links of BG (", row, ", ", col,
                              ") differ from the oracle grid");
      }
    }
  }
  const auto subs = got.sub_arrays();
  const auto want_subs = want.sub_arrays();
  for (std::size_t q = 0; q < 4; ++q) {
    const accel::SubArray& a = subs[q];
    const accel::SubArray& b = want_subs[q];
    if (a.quadrant != b.quadrant || a.row0 != b.row0 || a.rows != b.rows ||
        a.col0 != b.col0 || a.cols != b.cols) {
      return proptest::fail("sub-array ", q, " differs from the oracle");
    }
  }
  const std::string problems = got.validate();
  if (!problems.empty() || !want.validate().empty()) {
    return proptest::fail("validate: '", problems, "' vs oracle '",
                          want.validate(), "'");
  }
  return proptest::pass();
}

TEST(PropFabric, RowColumnStateMatchesGridOracle) {
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    // Grid edges ramp with the case size up to 48; a quarter of the
    // cases pin one axis to a single slice.
    const std::int64_t cap = std::clamp<std::int64_t>(3 * size, 1, 48);
    core::ArrayDims dims{rng.uniform_int(1, cap), rng.uniform_int(1, cap)};
    if (rng.bernoulli(0.125)) dims.rows = 1;
    if (rng.bernoulli(0.125)) dims.cols = 1;
    accel::BitGroupFabric fabric(dims);
    ref::GridFabric oracle(dims);
    const std::string grid =
        std::to_string(dims.rows) + "x" + std::to_string(dims.cols);
    if (auto err = compare(fabric, oracle)) {
      return proptest::fail(grid, " at power-on: ", *err);
    }
    const std::int64_t steps = rng.uniform_int(1, 24);
    for (std::int64_t step = 0; step < steps; ++step) {
      const std::int64_t r = gen_cut(rng, dims.rows, oracle.current_r());
      const std::int64_t c = gen_cut(rng, dims.cols, oracle.current_c());
      const bool cycles = rng.bernoulli(0.5);
      const std::int64_t got = cycles ? fabric.reconfigure_cycles(r, c)
                                      : fabric.configure_split(r, c);
      const std::int64_t want = cycles ? oracle.reconfigure_cycles(r, c)
                                       : oracle.configure_split(r, c);
      const char* what = cycles ? "reconfigure_cycles" : "configure_split";
      if (got != want) {
        return proptest::fail(grid, " step ", step, ": ", what, "(", r, ", ",
                              c, ") = ", got, " vs oracle ", want);
      }
      if (auto err = compare(fabric, oracle)) {
        return proptest::fail(grid, " step ", step, " after ", what, "(", r,
                              ", ", c, "): ", *err);
      }
    }
    return proptest::pass();
  });
}

}  // namespace
}  // namespace drift
