#include "stats/distribution.hpp"

#include "util/assert.hpp"

namespace drift::stats {

Laplace::Laplace(double b) : b_(b) {
  DRIFT_CHECK(b > 0.0, "Laplace scale must be positive");
}

double Laplace::pdf(double x) const {
  return std::exp(-std::abs(x) / b_) / (2.0 * b_);
}

double Laplace::cdf(double x) const {
  if (x < 0.0) return 0.5 * std::exp(x / b_);
  return 1.0 - 0.5 * std::exp(-x / b_);
}

Normal::Normal(double mean, double stddev) : mean_(mean), stddev_(stddev) {
  DRIFT_CHECK(stddev > 0.0, "Normal stddev must be positive");
}

double Normal::pdf(double x) const {
  const double z = (x - mean_) / stddev_;
  constexpr double kInvSqrt2Pi = 0.3989422804014327;
  return kInvSqrt2Pi / stddev_ * std::exp(-0.5 * z * z);
}

double Normal::cdf(double x) const {
  const double z = (x - mean_) / stddev_;
  return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

}  // namespace drift::stats
