#include "text.hpp"

#include <regex>
#include <sstream>
#include <vector>

namespace drift::lint {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool is_ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

std::size_t find_token(const std::string& code, const std::string& token) {
  std::size_t pos = 0;
  while ((pos = code.find(token, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(code[pos - 1]);
    const std::size_t end = pos + token.size();
    const bool right_ok = end >= code.size() || !is_ident_char(code[end]);
    if (left_ok && right_ok) return pos;
    pos = end;
  }
  return std::string::npos;
}

bool is_reporting_sink(const std::string& rel) {
  return starts_with(rel, "tools/graph/") ||
         starts_with(rel, "tools/lint/") ||
         starts_with(rel, "tools/report/") ||
         starts_with(rel, "tools/serve/");
}

std::optional<Include> parse_include(const std::string& raw) {
  static const std::regex kInclude(
      R"(^\s*#\s*include\s*([<"])([^">]+)[">])");
  std::smatch m;
  if (!std::regex_search(raw, m, kInclude)) return std::nullopt;
  return Include{m[2].str(), m[1].str() == "<"};
}

std::string normalize_path(const std::string& path) {
  std::vector<std::string> parts;
  std::stringstream ss(path);
  std::string part;
  while (std::getline(ss, part, '/')) {
    if (part.empty() || part == ".") continue;
    if (part == ".." && !parts.empty() && parts.back() != "..") {
      parts.pop_back();
    } else {
      parts.push_back(part);
    }
  }
  std::string out;
  for (const auto& p : parts) {
    if (!out.empty()) out += '/';
    out += p;
  }
  return out;
}

std::optional<std::string> resolve_include(
    const std::string& includer_rel, const std::string& inc,
    const std::unordered_set<std::string>& file_set) {
  std::vector<std::string> candidates;
  const std::size_t slash = includer_rel.find_last_of('/');
  if (slash != std::string::npos) {
    candidates.push_back(includer_rel.substr(0, slash + 1) + inc);
  }
  candidates.push_back("src/" + inc);
  candidates.push_back("tests/" + inc);
  for (const auto& c : candidates) {
    const std::string n = normalize_path(c);
    if (file_set.count(n)) return n;
  }
  return std::nullopt;
}

}  // namespace drift::lint
