// Analytic distribution objects.
//
// Section 2.1 of the paper rests on the observation that DNN
// sub-tensors are approximately zero-mean Laplace distributed, and
// Section 3.3 exploits the induced exponential distribution of |Y|.
// This module provides those distributions with pdf/cdf and moment
// queries so both the profiler (Figure 1) and the algorithm's
// derivations can be tested against closed forms.
#pragma once

#include <cmath>

namespace drift::stats {

/// Zero-mean Laplace distribution with scale `b` (pdf = exp(-|x|/b)/2b).
class Laplace {
 public:
  explicit Laplace(double b);

  double scale() const { return b_; }
  double mean() const { return 0.0; }
  /// var(Y) = 2 b^2.
  double variance() const { return 2.0 * b_ * b_; }
  /// E|Y| = b; the paper estimates b as avg(|Y|) (Section 3.3).
  double mean_abs() const { return b_; }

  double pdf(double x) const;
  double cdf(double x) const;

 private:
  double b_;
};

/// Normal distribution (used as the *contrast* model when checking that
/// Laplace fits sub-tensors better, and for synthetic-weight noise).
class Normal {
 public:
  Normal(double mean, double stddev);

  double mean() const { return mean_; }
  double stddev() const { return stddev_; }
  double variance() const { return stddev_ * stddev_; }

  double pdf(double x) const;
  double cdf(double x) const;

 private:
  double mean_;
  double stddev_;
};

}  // namespace drift::stats
