#include "core/capability.hpp"

#include "util/assert.hpp"

namespace drift::core {

double representation_range(Precision hp, int hc, double delta) {
  DRIFT_CHECK(hc >= 0 && hc < hp.bits(), "invalid high-end clip");
  return static_cast<double>(hp.max_level()) /
         static_cast<double>(std::int64_t{1} << hc) * delta;
}

double representation_density(int lc, double delta) {
  DRIFT_CHECK(lc >= 0, "invalid low-end clip");
  return static_cast<double>(std::int64_t{1} << lc) * delta;
}

}  // namespace drift::core
