#include "stats/fit.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "stats/summary.hpp"
#include "util/assert.hpp"

namespace drift::stats {

Laplace fit_laplace(std::span<const float> sample) {
  const SampleSummary s = summarize(sample);
  DRIFT_CHECK(s.mean_abs > 0.0, "degenerate (all-zero) sample");
  return Laplace(s.mean_abs);
}

Normal fit_normal(std::span<const float> sample) {
  const SampleSummary s = summarize(sample);
  DRIFT_CHECK(s.variance > 0.0, "degenerate (constant) sample");
  return Normal(s.mean, std::sqrt(s.variance));
}

double ks_statistic(std::span<const float> sample,
                    const std::function<double(double)>& cdf) {
  DRIFT_CHECK(!sample.empty(), "empty sample");
  std::vector<float> sorted(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(sorted.size());
  double d = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const double model = cdf(sorted[i]);
    const double lo = static_cast<double>(i) / n;
    const double hi = static_cast<double>(i + 1) / n;
    d = std::max({d, std::abs(model - lo), std::abs(model - hi)});
  }
  return d;
}

double mean_log_likelihood(std::span<const float> sample,
                           const std::function<double(double)>& pdf) {
  DRIFT_CHECK(!sample.empty(), "empty sample");
  double acc = 0.0;
  for (float x : sample) {
    const double p = pdf(x);
    acc += std::log(std::max(p, 1e-300));
  }
  return acc / static_cast<double>(sample.size());
}

double excess_kurtosis(std::span<const float> sample) {
  const SampleSummary s = summarize(sample);
  DRIFT_CHECK(s.variance > 0.0, "degenerate (constant) sample");
  double m4 = 0.0;
  for (float x : sample) {
    const double d = static_cast<double>(x) - s.mean;
    m4 += d * d * d * d;
  }
  m4 /= static_cast<double>(sample.size());
  return m4 / (s.variance * s.variance) - 3.0;
}

}  // namespace drift::stats
