#include "util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "util/assert.hpp"

namespace drift {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  DRIFT_CHECK(!header_.empty(), "table header must not be empty");
}

void TextTable::add_row(std::vector<std::string> cells) {
  DRIFT_CHECK(cells.size() == header_.size(), "table row width mismatch");
  rows_.push_back(std::move(cells));
}

void TextTable::add_separator() { rows_.emplace_back(); }

std::string TextTable::to_string() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto hline = [&] {
    std::string s = "+";
    for (std::size_t w : widths) s += std::string(w + 2, '-') + "+";
    s += '\n';
    return s;
  };
  auto emit_row = [&](const std::vector<std::string>& row) {
    std::string s = "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      s += ' ' + row[c] + std::string(widths[c] - row[c].size(), ' ') + " |";
    }
    s += '\n';
    return s;
  };

  std::string out = hline() + emit_row(header_) + hline();
  for (const auto& row : rows_) {
    out += row.empty() ? hline() : emit_row(row);
  }
  out += hline();
  return out;
}

std::string TextTable::fmt(double value, int digits) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(digits) << value;
  return os.str();
}

std::string TextTable::pct(double fraction, int digits) {
  return fmt(fraction * 100.0, digits) + "%";
}

std::string TextTable::ratio(double value, int digits) {
  return fmt(value, digits) + "x";
}

}  // namespace drift
