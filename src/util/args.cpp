#include "util/args.hpp"

#include <cstdlib>

#include "util/assert.hpp"
#include "util/logging.hpp"

namespace drift {

Args Args::parse(int argc, const char* const* argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      args.positional_.push_back(token);
      continue;
    }
    const std::string body = token.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      args.flags_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc &&
               std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args.flags_[body] = argv[++i];
    } else {
      args.flags_[body] = "true";
    }
  }
  return args;
}

std::optional<std::string> Args::get(const std::string& flag) const {
  queried_[flag] = true;
  const auto it = flags_.find(flag);
  if (it == flags_.end()) return std::nullopt;
  return it->second;
}

std::string Args::get_string(const std::string& flag,
                             const std::string& fallback) const {
  return get(flag).value_or(fallback);
}

std::int64_t Args::get_int(const std::string& flag,
                           std::int64_t fallback) const {
  const auto v = get(flag);
  if (!v) return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(v->c_str(), &end, 10);
  DRIFT_CHECK(end != nullptr && *end == '\0',
              "flag value is not an integer");
  return parsed;
}

double Args::get_double(const std::string& flag, double fallback) const {
  const auto v = get(flag);
  if (!v) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  DRIFT_CHECK(end != nullptr && *end == '\0', "flag value is not a number");
  return parsed;
}

bool Args::get_bool(const std::string& flag, bool fallback) const {
  const auto v = get(flag);
  if (!v) return fallback;
  return *v == "true" || *v == "1" || *v == "yes" || *v == "on";
}

bool Args::has(const std::string& flag) const {
  queried_[flag] = true;
  return flags_.count(flag) > 0;
}

std::vector<std::string> Args::unqueried() const {
  std::vector<std::string> out;
  for (const auto& [flag, _] : flags_) {
    if (!queried_.count(flag)) out.push_back(flag);
  }
  return out;
}

bool Args::reject_unqueried(const std::string& accepted) const {
  const std::vector<std::string> unknown = unqueried();
  for (const std::string& flag : unknown) {
    DRIFT_LOG_ERROR("args") << "unknown flag --" << flag
                            << " (accepted: " << accepted << ")";
  }
  return !unknown.empty();
}

}  // namespace drift
