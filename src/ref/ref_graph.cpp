#include "ref/ref_graph.hpp"

#include <algorithm>

namespace drift::ref {

std::int64_t conv_positions(std::int64_t in, std::int64_t k, std::int64_t s,
                            std::int64_t p) {
  std::int64_t count = 0;
  for (std::int64_t start = 0; start + k <= in + 2 * p; start += s) {
    ++count;
  }
  return count;
}

std::int64_t pool_positions(std::int64_t in, std::int64_t k,
                            std::int64_t s) {
  return conv_positions(in, k, s, 0);
}

std::vector<std::int64_t> broadcast_shape(
    const std::vector<std::int64_t>& a, const std::vector<std::int64_t>& b) {
  // Left-pad the shorter shape with 1s, then match axis by axis — the
  // textbook statement of the rule, rather than src/graph's
  // right-aligned index walk.
  std::vector<std::int64_t> pa = a;
  std::vector<std::int64_t> pb = b;
  while (pa.size() < pb.size()) pa.insert(pa.begin(), 1);
  while (pb.size() < pa.size()) pb.insert(pb.begin(), 1);
  std::vector<std::int64_t> out(pa.size(), 0);
  for (std::size_t r = 0; r < pa.size(); ++r) {
    if (pa[r] == pb[r] || pa[r] == 1 || pb[r] == 1) {
      out[r] = std::max(pa[r], pb[r]);
    } else {
      return {};
    }
  }
  return out;
}

bool head_split_ok(std::int64_t dim, std::int64_t heads) {
  if (dim <= 0 || heads <= 0) return false;
  return (dim / heads) * heads == dim;
}

}  // namespace drift::ref
