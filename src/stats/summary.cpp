#include "stats/summary.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace drift::stats {

SampleSummary summarize(std::span<const float> values) {
  DRIFT_CHECK(!values.empty(), "cannot summarize an empty sample");
  SampleSummary s;
  s.count = values.size();
  s.min = std::numeric_limits<double>::infinity();
  s.max = -std::numeric_limits<double>::infinity();

  double mean = 0.0, m2 = 0.0, mean_abs = 0.0;
  std::size_t n = 0;
  for (const float raw : values) {
    const double x = static_cast<double>(raw);
    ++n;
    s.min = std::min(s.min, x);
    s.max = std::max(s.max, x);
    s.max_abs = std::max(s.max_abs, std::abs(x));
    const double d = x - mean;
    mean += d / static_cast<double>(n);
    m2 += d * (x - mean);
    mean_abs += (std::abs(x) - mean_abs) / static_cast<double>(n);
  }
  s.mean = mean;
  s.mean_abs = mean_abs;
  s.variance = m2 / static_cast<double>(n);
  return s;
}

}  // namespace drift::stats
