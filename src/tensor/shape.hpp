// Tensor shapes (row-major, up to rank 4 used in practice).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "util/assert.hpp"

namespace drift {

/// Row-major tensor shape.  Dimensions are signed (int64) per the core
/// guidelines' advice to avoid unsigned arithmetic in index math.
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<std::int64_t> dims);
  explicit Shape(std::vector<std::int64_t> dims);

  std::int64_t rank() const { return static_cast<std::int64_t>(dims_.size()); }
  std::int64_t dim(std::int64_t axis) const;
  std::int64_t operator[](std::int64_t axis) const { return dim(axis); }

  /// Total element count (1 for rank-0).
  std::int64_t numel() const;

  /// Flat offset of a multi-index (must have length == rank), folded
  /// Horner-style over dims_: no strides vector, no allocation.
  std::int64_t offset(std::initializer_list<std::int64_t> index) const {
    DRIFT_CHECK(static_cast<std::int64_t>(index.size()) == rank(),
                "index rank mismatch");
    std::int64_t off = 0;
    const std::int64_t* dim = dims_.data();
    for (const std::int64_t i : index) {
      DRIFT_CHECK(i >= 0 && i < *dim, "index out of bounds");
      off = off * *dim + i;
      ++dim;
    }
    return off;
  }

  bool operator==(const Shape& other) const { return dims_ == other.dims_; }
  bool operator!=(const Shape& other) const { return !(*this == other); }

  const std::vector<std::int64_t>& dims() const { return dims_; }


 private:
  std::vector<std::int64_t> dims_;
};

}  // namespace drift
