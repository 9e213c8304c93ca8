#include "util/args.hpp"

#include <cerrno>
#include <cmath>
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
    args.flags_[body.substr(0, eq)] =
        eq == std::string::npos ? "true" : body.substr(eq + 1);
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
  // Empty, trailing junk and values beyond 64 bits are all malformed.
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(v->c_str(), &end, 10);
  DRIFT_CHECK(end != v->c_str() && *end == '\0' && errno != ERANGE,
              "flag value is not an integer");
  return parsed;
}

double Args::get_double(const std::string& flag, double fallback) const {
  const auto v = get(flag);
  if (!v) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  DRIFT_CHECK(end != v->c_str() && *end == '\0',
              "flag value is not a number");
  return parsed;
}

bool Args::get_bool(const std::string& flag, bool fallback) const {
  const auto v = get(flag);
  if (!v) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") return true;
  DRIFT_CHECK(*v == "false" || *v == "0" || *v == "no" || *v == "off",
              "flag value is not a boolean");
  return false;
}

bool Args::has(const std::string& flag) const {
  queried_[flag] = true;
  return flags_.count(flag) > 0;
}

std::optional<bool> Args::bool_flag(const std::string& flag,
                                    bool fallback) const {
  const std::optional<std::string> text = get(flag);
  if (!text) return fallback;
  try {
    return get_bool(flag, fallback);
  } catch (const check_error&) {
    DRIFT_LOG_ERROR("args") << "--" << flag << "=" << *text
                            << " is not a boolean (valid: true/false, 1/0, "
                               "yes/no, on/off)";
    return std::nullopt;
  }
}

std::optional<std::int64_t> Args::int_flag(const std::string& flag,
                                           std::int64_t fallback,
                                           std::int64_t lo,
                                           std::int64_t hi) const {
  const std::optional<std::string> text = get(flag);
  if (!text) return fallback;
  std::int64_t value = 0;
  try {
    value = get_int(flag, fallback);
  } catch (const check_error&) {
    DRIFT_LOG_ERROR("args") << "--" << flag << "=" << *text
                            << " is not an integer";
    return std::nullopt;
  }
  if (value >= lo && value <= hi) return value;
  std::string range = ">= " + std::to_string(lo);
  if (hi != std::numeric_limits<std::int64_t>::max()) {
    range = std::to_string(lo) + ".." + std::to_string(hi);
  }
  DRIFT_LOG_ERROR("args") << "--" << flag << "=" << *text
                          << " is out of range (valid: " << range << ")";
  return std::nullopt;
}

namespace {

/// Shared body of positive_flag / nonnegative_flag.
std::optional<double> finite_flag(const Args& args, const std::string& flag,
                                  double fallback, bool zero_ok) {
  const std::optional<std::string> text = args.get(flag);
  if (!text) return fallback;
  double value = 0.0;
  try {
    value = args.get_double(flag, fallback);
  } catch (const check_error&) {
    DRIFT_LOG_ERROR("args") << "--" << flag << "=" << *text
                            << " is not a number";
    return std::nullopt;
  }
  if (std::isfinite(value) && (value > 0.0 || (zero_ok && value == 0.0))) {
    return value;
  }
  DRIFT_LOG_ERROR("args") << "--" << flag << "=" << *text
                          << " is out of range (valid: a finite number "
                          << (zero_ok ? ">= 0" : "> 0") << ")";
  return std::nullopt;
}

}  // namespace

std::optional<double> Args::positive_flag(const std::string& flag,
                                          double fallback) const {
  return finite_flag(*this, flag, fallback, /*zero_ok=*/false);
}

std::optional<double> Args::nonnegative_flag(const std::string& flag,
                                             double fallback) const {
  return finite_flag(*this, flag, fallback, /*zero_ok=*/true);
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
  if (positional_read_) return !unknown.empty();
  for (const std::string& arg : positional_) {
    DRIFT_LOG_ERROR("args") << "unexpected argument '" << arg
                            << "' (accepted: " << accepted << ")";
  }
  return !unknown.empty() || !positional_.empty();
}

}  // namespace drift
