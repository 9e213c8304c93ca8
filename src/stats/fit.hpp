// Distribution fitting and goodness-of-fit.
//
// Figure 1 of the paper claims sub-tensors "roughly conform to Laplace
// distributions with zero mean".  The fig1 bench reproduces that claim
// quantitatively: fit Laplace and Normal models to each sub-tensor by
// maximum likelihood and compare Kolmogorov–Smirnov statistics.
#pragma once

#include <functional>
#include <span>

#include "stats/distribution.hpp"

namespace drift::stats {

/// MLE fit of a zero-mean Laplace: b_hat = avg(|x|).
Laplace fit_laplace(std::span<const float> sample);

/// MLE fit of a Normal (mean and stddev from sample moments).
Normal fit_normal(std::span<const float> sample);

/// One-sample Kolmogorov–Smirnov statistic: sup_x |F_n(x) - F(x)|.
/// `cdf` is the model CDF under test.  Smaller is a better fit.
double ks_statistic(std::span<const float> sample,
                    const std::function<double(double)>& cdf);

/// Average log-likelihood of the sample under a model pdf (higher is a
/// better fit); used to compare Laplace vs Normal models per sub-tensor.
double mean_log_likelihood(std::span<const float> sample,
                           const std::function<double(double)>& pdf);

/// Excess kurtosis of the sample.  Laplace has +3, Normal has 0 — a
/// cheap discriminator the profiler reports alongside KS.
double excess_kurtosis(std::span<const float> sample);

}  // namespace drift::stats
