#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.hpp"

namespace perfbench {
namespace {

/// Mismatch lines printed per run; later ones are only counted.
constexpr std::int64_t kMaxReported = 20;

std::vector<std::string> split_row(const std::string& line) {
  std::vector<std::string> cells;
  std::stringstream in(line);
  std::string cell;
  while (std::getline(in, cell, ',')) cells.push_back(cell);
  return cells;
}

/// A double as CsvWriter::row_values prints it (default ostream format).
std::string csv_format(double value) {
  std::ostringstream os;
  os << value;
  return os.str();
}

}  // namespace

void Checks::operation(std::string name) {
  current_ = std::move(name);
  current_failed_ = false;
  ++attempted_;
}

void Checks::expect(bool ok, const std::string& what) {
  if (ok) return;
  if (reported_++ < kMaxReported) {
    std::fprintf(stderr, "check failed: %s: %s\n", current_.c_str(),
                 what.c_str());
  }
  if (!current_failed_) {
    current_failed_ = true;
    ++failed_;
  }
}

void Checks::exact(double got, double want, const std::string& what) {
  if (got == want) return;
  char buf[96];
  std::snprintf(buf, sizeof(buf), " = %.17g, expected %.17g", got, want);
  expect(false, what + buf);
}

void Checks::reference(const std::string& key, double got) {
  if (record_) {
    recorded_[key] = got;
    return;
  }
  const auto& table = reference_table();
  const auto it = table.find(key);
  if (it == table.end()) {
    expect(false, "no reference value for " + key);
    return;
  }
  exact(got, it->second, key);
}

void Checks::artifact(const std::string& cell, double got,
                      const std::string& what) {
  const std::string printed = csv_format(got);
  expect(printed == cell,
         what + " prints " + printed + ", committed '" + cell + "'");
}

void Checks::print_recorded() const {
  for (const auto& [key, value] : recorded_) {
    std::printf("    {\"%s\", %.17g},\n", key.c_str(), value);
  }
}

std::string artifact_cell(const std::string& file, const std::string& row,
                          const std::string& column) {
  std::ifstream in(file);
  std::string line;
  if (!std::getline(in, line)) return {};
  const std::vector<std::string> header = split_row(line);
  const auto col = std::find(header.begin(), header.end(), column);
  if (col == header.end()) return {};
  const std::vector<std::string> key = split_row(row);
  while (std::getline(in, line)) {
    const std::vector<std::string> cells = split_row(line);
    if (cells.size() == header.size() &&
        std::equal(key.begin(), key.end(), cells.begin())) {
      return cells[static_cast<std::size_t>(col - header.begin())];
    }
  }
  return {};
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace perfbench
