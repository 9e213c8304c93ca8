#include "stats/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/assert.hpp"

namespace drift::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), bin_width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  DRIFT_CHECK(hi > lo, "histogram range must be non-empty");
  DRIFT_CHECK(bins > 0, "histogram needs at least one bin");
}

void Histogram::add(double value) {
  auto bin = static_cast<long long>(std::floor((value - lo_) / bin_width_));
  bin = std::clamp<long long>(bin, 0, static_cast<long long>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

void Histogram::add_all(std::span<const float> values) {
  for (float v : values) add(v);
}

std::size_t Histogram::count(std::size_t bin) const {
  DRIFT_CHECK_INDEX(bin, counts_.size());
  return counts_[bin];
}

double Histogram::bin_center(std::size_t bin) const {
  DRIFT_CHECK_INDEX(bin, counts_.size());
  return lo_ + (static_cast<double>(bin) + 0.5) * bin_width_;
}

std::string Histogram::ascii(std::size_t width) const {
  const std::size_t peak = *std::max_element(counts_.begin(), counts_.end());
  std::ostringstream os;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const std::size_t bar =
        peak == 0 ? 0 : counts_[b] * width / std::max<std::size_t>(peak, 1);
    os.width(9);
    os.precision(3);
    os << std::fixed << bin_center(b) << " |" << std::string(bar, '#') << '\n';
  }
  return os.str();
}

}  // namespace drift::stats
