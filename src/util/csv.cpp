#include "util/csv.hpp"

#include <sstream>

#include "util/assert.hpp"

namespace drift {

CsvWriter::CsvWriter(const std::string& path,
                     const std::vector<std::string>& header)
    : out_(path), width_(header.size()) {
  if (!out_.good()) {
    throw check_error("failed to open CSV output file " + path);
  }
  DRIFT_CHECK(width_ > 0, "CSV header must not be empty");
  row(header);
}

void CsvWriter::row(const std::vector<std::string>& cells) {
  DRIFT_CHECK(cells.size() == width_, "CSV row width mismatch");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) out_ << ',';
    out_ << escape(cells[i]);
  }
  out_ << '\n';
}

std::string CsvWriter::escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string quoted = "\"";
  for (char c : cell) {
    if (c == '"') quoted += "\"\"";
    else quoted += c;
  }
  quoted += '"';
  return quoted;
}

}  // namespace drift
