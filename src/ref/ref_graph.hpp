// Reference oracles for the graph runtime's shape rules (src/graph):
// independent closed forms for per-op shape arithmetic, pinned against
// the op registry by tests/prop/prop_graph.cpp.
//
// Deliberately free of src/graph includes, so the oracle cannot
// accidentally agree with the implementation by construction.
#pragma once

#include <cstdint>
#include <vector>

namespace drift::ref {

// ---------------------------------------------------------------------
// Shape arithmetic by position counting (no division formulas).
// ---------------------------------------------------------------------

/// Number of valid convolution output positions along one axis: counts
/// window starts o = 0, s, 2s, ... whose k-wide window fits inside the
/// padded extent.  0 when nothing fits.
std::int64_t conv_positions(std::int64_t in, std::int64_t k, std::int64_t s,
                            std::int64_t p);

/// Pooling positions (no padding).
std::int64_t pool_positions(std::int64_t in, std::int64_t k, std::int64_t s);

/// Right-aligned numpy broadcast of two shapes; empty when the shapes
/// do not broadcast.
std::vector<std::int64_t> broadcast_shape(
    const std::vector<std::int64_t>& a, const std::vector<std::int64_t>& b);

/// Whether `dim` splits evenly into `heads` attention heads.
bool head_split_ok(std::int64_t dim, std::int64_t heads);

}  // namespace drift::ref
