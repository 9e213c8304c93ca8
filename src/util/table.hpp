// Console table formatting.
//
// Bench binaries mirror the paper's tables/figures as aligned text
// tables; this helper keeps the formatting in one place.
#pragma once

#include <string>
#include <vector>

namespace drift {

/// Builds an aligned, boxed text table.  Collect a header and rows,
/// then call `to_string` (column widths auto-fit to content).
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Appends a data row; width must match the header.
  void add_row(std::vector<std::string> cells);

  /// Appends a horizontal separator at this position.
  void add_separator();

  /// Renders the table.
  std::string to_string() const;

  /// Formats a double with `digits` digits after the decimal point.
  static std::string fmt(double value, int digits = 3);

  /// Formats a value as a percentage ("82.4%") from a 0..1 fraction.
  static std::string pct(double fraction, int digits = 1);

  /// Formats a speedup/ratio with a trailing '×' ("2.85x").
  static std::string ratio(double value, int digits = 2);

 private:
  std::vector<std::string> header_;
  // Separator rows are encoded as empty vectors.
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace drift
