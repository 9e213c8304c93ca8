// Tests for src/stats: distributions, summaries, fitting, histograms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "stats/distribution.hpp"
#include "stats/fit.hpp"
#include "stats/histogram.hpp"
#include "stats/summary.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace drift::stats {
namespace {

TEST(Laplace, PdfIntegratesToOneNumerically) {
  const Laplace d(0.8);
  double integral = 0.0;
  const double dx = 0.001;
  for (double x = -20.0; x < 20.0; x += dx) integral += d.pdf(x) * dx;
  EXPECT_NEAR(integral, 1.0, 1e-3);
}

TEST(Laplace, CdfMatchesPdfDerivative) {
  const Laplace d(1.3);
  for (double x : {-3.0, -0.5, 0.0, 0.7, 2.2}) {
    const double eps = 1e-5;
    const double numeric = (d.cdf(x + eps) - d.cdf(x - eps)) / (2 * eps);
    EXPECT_NEAR(numeric, d.pdf(x), 1e-5);
  }
}

TEST(Laplace, QuantileInvertsCdf) {
  // The closed-form inverse of the Laplace(b) CDF.
  const double b = 2.0;
  const auto quantile = [b](double p) {
    return p < 0.5 ? b * std::log(2.0 * p) : -b * std::log(2.0 * (1.0 - p));
  };
  const Laplace d(b);
  for (double p : {0.01, 0.25, 0.5, 0.75, 0.99}) {
    EXPECT_NEAR(d.cdf(quantile(p)), p, 1e-12);
  }
}

TEST(Laplace, MomentIdentities) {
  const Laplace d(1.5);
  EXPECT_DOUBLE_EQ(d.mean_abs(), 1.5);
  EXPECT_DOUBLE_EQ(d.variance(), 2.0 * 1.5 * 1.5);
}

TEST(Laplace, RejectsNonPositiveScale) {
  EXPECT_THROW(Laplace(0.0), check_error);
  EXPECT_THROW(Laplace(-1.0), check_error);
}

TEST(Exponential, AbsOfLaplaceIsExponential) {
  // Equation 4 of the paper: |Laplace(b)| ~ Exponential(1/b), whose CDF
  // is 1 - exp(-x / b).
  Rng rng(19);
  const double b = 1.2;
  std::vector<float> abs_sample;
  for (int i = 0; i < 50000; ++i) {
    abs_sample.push_back(static_cast<float>(std::abs(rng.laplace(b))));
  }
  const double ks = ks_statistic(
      abs_sample, [b](double x) { return 1.0 - std::exp(-x / b); });
  EXPECT_LT(ks, 0.01);
}

TEST(Normal, CdfKnownValues) {
  const Normal d(0.0, 1.0);
  EXPECT_NEAR(d.cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(d.cdf(1.96), 0.975, 1e-3);
}

TEST(Summary, MatchesHandComputation) {
  const std::vector<float> v = {1.0f, -2.0f, 3.0f, 0.0f};
  const SampleSummary s = summarize(std::span<const float>(v));
  EXPECT_EQ(s.count, 4u);
  EXPECT_FLOAT_EQ(s.min, -2.0f);
  EXPECT_FLOAT_EQ(s.max, 3.0f);
  EXPECT_FLOAT_EQ(s.max_abs, 3.0f);
  EXPECT_NEAR(s.mean, 0.5, 1e-12);
  EXPECT_NEAR(s.mean_abs, 1.5, 1e-12);
  // Population variance of {1,-2,3,0} around mean 0.5.
  EXPECT_NEAR(s.variance, (0.25 + 6.25 + 6.25 + 0.25) / 4.0, 1e-9);
}

TEST(Summary, LaplaceVarianceIdentityHoldsOnLaplaceData) {
  Rng rng(23);
  std::vector<float> v;
  for (int i = 0; i < 100000; ++i) {
    v.push_back(static_cast<float>(rng.laplace(0.9)));
  }
  const SampleSummary s = summarize(std::span<const float>(v));
  // var(Y) == 2*avg|Y|^2 for Laplace data (the paper's Eq. 4 usage).
  EXPECT_NEAR(s.laplace_variance() / s.variance, 1.0, 0.03);
}

TEST(Summary, EmptySampleThrows) {
  std::vector<float> v;
  EXPECT_THROW(summarize(std::span<const float>(v)), drift::check_error);
}

TEST(Fit, LaplaceMleRecoversScale) {
  Rng rng(29);
  std::vector<float> v;
  for (int i = 0; i < 60000; ++i) {
    v.push_back(static_cast<float>(rng.laplace(2.4)));
  }
  const Laplace fit = fit_laplace(v);
  EXPECT_NEAR(fit.scale(), 2.4, 0.05);
}

TEST(Fit, NormalMleRecoversMoments) {
  Rng rng(31);
  std::vector<float> v;
  for (int i = 0; i < 60000; ++i) {
    v.push_back(static_cast<float>(rng.normal(1.0, 0.5)));
  }
  const Normal fit = fit_normal(v);
  EXPECT_NEAR(fit.mean(), 1.0, 0.02);
  EXPECT_NEAR(fit.stddev(), 0.5, 0.02);
}

TEST(Fit, KsPrefersTrueModel) {
  // The Figure 1 claim mechanism: on Laplace data, the Laplace fit has
  // a smaller KS statistic than the Normal fit.
  Rng rng(37);
  std::vector<float> v;
  for (int i = 0; i < 30000; ++i) {
    v.push_back(static_cast<float>(rng.laplace(1.0)));
  }
  const Laplace lap = fit_laplace(v);
  const Normal nor = fit_normal(v);
  const double ks_lap =
      ks_statistic(v, [&](double x) { return lap.cdf(x); });
  const double ks_nor =
      ks_statistic(v, [&](double x) { return nor.cdf(x); });
  EXPECT_LT(ks_lap, ks_nor);
  EXPECT_LT(ks_lap, 0.02);
}

TEST(Fit, LogLikelihoodPrefersTrueModel) {
  Rng rng(41);
  std::vector<float> v;
  for (int i = 0; i < 30000; ++i) {
    v.push_back(static_cast<float>(rng.laplace(1.0)));
  }
  const Laplace lap = fit_laplace(v);
  const Normal nor = fit_normal(v);
  const double ll_lap =
      mean_log_likelihood(v, [&](double x) { return lap.pdf(x); });
  const double ll_nor =
      mean_log_likelihood(v, [&](double x) { return nor.pdf(x); });
  EXPECT_GT(ll_lap, ll_nor);
}

TEST(Fit, ExcessKurtosisDiscriminates) {
  Rng rng(43);
  std::vector<float> lap, nor;
  for (int i = 0; i < 50000; ++i) {
    lap.push_back(static_cast<float>(rng.laplace(1.0)));
    nor.push_back(static_cast<float>(rng.normal()));
  }
  EXPECT_NEAR(excess_kurtosis(lap), 3.0, 0.5);  // Laplace: +3
  EXPECT_NEAR(excess_kurtosis(nor), 0.0, 0.3);  // Normal: 0
}

TEST(Histogram, CountsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);    // bin 0
  h.add(9.99);   // bin 9
  h.add(-5.0);   // clamped to bin 0
  h.add(42.0);   // clamped to bin 9
  // At a width equal to the peak count each bar is its bin's count.
  std::vector<std::size_t> bars;
  std::istringstream lines(h.ascii(2));
  for (std::string line; std::getline(lines, line);) {
    bars.push_back(
        static_cast<std::size_t>(std::count(line.begin(), line.end(), '#')));
  }
  EXPECT_EQ(bars, (std::vector<std::size_t>{2, 0, 0, 0, 0, 0, 0, 0, 0, 2}));
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, BinCenters) {
  Histogram h(0.0, 1.0, 4);
  EXPECT_NEAR(h.bin_center(0), 0.125, 1e-12);
  EXPECT_NEAR(h.bin_center(3), 0.875, 1e-12);
}

TEST(Histogram, AsciiRendersOneLinePerBin) {
  Histogram h(0.0, 1.0, 5);
  for (int i = 0; i < 10; ++i) h.add(0.5);
  const std::string art = h.ascii(20);
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 5);
  EXPECT_NE(art.find('#'), std::string::npos);
}

}  // namespace
}  // namespace drift::stats
