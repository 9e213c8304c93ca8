#include "tensor/shape.hpp"

#include "util/assert.hpp"

namespace drift {

Shape::Shape(std::initializer_list<std::int64_t> dims) : dims_(dims) {
  for (auto d : dims_) DRIFT_CHECK(d >= 0, "negative dimension");
}

Shape::Shape(std::vector<std::int64_t> dims) : dims_(std::move(dims)) {
  for (auto d : dims_) DRIFT_CHECK(d >= 0, "negative dimension");
}

std::int64_t Shape::dim(std::int64_t axis) const {
  DRIFT_CHECK_INDEX(axis, rank());
  return dims_[static_cast<std::size_t>(axis)];
}

std::int64_t Shape::numel() const {
  std::int64_t n = 1;
  for (auto d : dims_) n *= d;
  return n;
}

}  // namespace drift
