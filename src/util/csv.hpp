// CSV emission for benchmark results.
//
// Every bench binary prints a human-readable table to stdout and can
// additionally persist rows as CSV so plots can be regenerated.
#pragma once

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace drift {

/// Append-only CSV writer.  Writes the header on construction and one
/// row per call to `row`.  All values are stringified by the caller via
/// the variadic overload, which accepts anything streamable.
class CsvWriter {
 public:
  /// Opens `path` for writing (truncates) and emits the header line.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);

  /// Writes one row.  The number of cells must match the header width.
  void row(const std::vector<std::string>& cells);

  /// Convenience: stringifies each argument with operator<<.
  template <typename... Ts>
  void row_values(const Ts&... values) {
    std::vector<std::string> cells;
    cells.reserve(sizeof...(values));
    (cells.push_back(stringify(values)), ...);
    row(cells);
  }

 private:
  template <typename T>
  static std::string stringify(const T& value) {
    std::ostringstream os;
    os << value;
    return os.str();
  }
  static std::string stringify(const std::string& value) { return value; }
  static std::string stringify(const char* value) { return value; }

  static std::string escape(const std::string& cell);

  std::ofstream out_;
  std::size_t width_;
};

}  // namespace drift
