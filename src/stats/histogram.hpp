// Fixed-bin histogram, used by the Figure 1 profiler to report
// sub-tensor value distributions in text form.
#pragma once

#include <span>
#include <string>
#include <vector>

namespace drift::stats {

/// Equal-width histogram over [lo, hi]; values outside are clamped to
/// the edge bins so mass is never dropped.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double value);
  void add_all(std::span<const float> values);

  std::size_t count(std::size_t bin) const;
  std::size_t total() const { return total_; }

  /// Center value of `bin`.
  double bin_center(std::size_t bin) const;

  /// Renders a vertical ASCII bar chart (one line per bin), `width`
  /// characters for the tallest bin.
  std::string ascii(std::size_t width = 50) const;

 private:
  double lo_, hi_, bin_width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace drift::stats
