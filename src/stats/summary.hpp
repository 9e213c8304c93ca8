// Sample summary statistics.
//
// The Drift selector consumes exactly two statistics per sub-tensor —
// max(|Y|) and avg(|Y|) (Section 3.3) — computed by the pooling unit in
// hardware.  SampleSummary collects those plus the usual moments used
// by tests and the profiler.
#pragma once

#include <cstddef>
#include <span>

namespace drift::stats {

/// One-pass summary over a span of values.
struct SampleSummary {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double max_abs = 0.0;   ///< max(|Y|): drives the RR criterion (Eq. 5)
  double mean = 0.0;
  double mean_abs = 0.0;  ///< avg(|Y|): MLE of the Laplace scale b
  double variance = 0.0;  ///< population variance

  /// Laplace-model variance 2*avg(|Y|)^2, the paper's proxy for var(Y).
  double laplace_variance() const { return 2.0 * mean_abs * mean_abs; }
};

/// Computes the summary in a single pass (Welford for the variance).
SampleSummary summarize(std::span<const float> values);

}  // namespace drift::stats
