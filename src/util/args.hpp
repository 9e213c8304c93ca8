// Minimal command-line flag parser for the tools and examples.
//
// Supports --flag=value and bare --flag (the value "true").  A bare
// flag never takes the next token, so a valued flag needs `=`: in
// `--layers gemm.json` the file is a positional argument.  Unknown
// flags and positional arguments nothing read are collected so callers
// can reject them.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace drift {

/// Parsed command line.
class Args {
 public:
  /// Parses a main()'s command line, the program name skipped.
  /// Positional arguments (tokens not starting with "--") are kept in
  /// order.
  static Args parse(int argc, const char* const* argv);

  /// Raw string lookup.
  std::optional<std::string> get(const std::string& flag) const;

  /// Typed lookups with defaults.  A malformed number or boolean throws
  /// check_error; the booleans are true/false, 1/0, yes/no and on/off.
  std::string get_string(const std::string& flag,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& flag, std::int64_t fallback) const;
  double get_double(const std::string& flag, double fallback) const;
  bool get_bool(const std::string& flag, bool fallback = false) const;

  bool has(const std::string& flag) const;

  // Checked readers for drivers that exit 2 on a bad value.  Each
  // gives `fallback` when the flag is absent; a given value that is
  // malformed ("--f=x is not an integer" / "is not a number" / "is not
  // a boolean") or out of its range ("--f=x is out of range (valid:
  // ...)") is logged as an error and gives nullopt.

  /// A boolean; a bare --f is true.
  std::optional<bool> bool_flag(const std::string& flag, bool fallback) const;

  /// An integer in [lo, hi].
  std::optional<std::int64_t> int_flag(
      const std::string& flag, std::int64_t fallback, std::int64_t lo,
      std::int64_t hi = std::numeric_limits<std::int64_t>::max()) const;
  /// A finite number > 0.
  std::optional<double> positive_flag(const std::string& flag,
                                      double fallback) const;
  /// A finite number >= 0.
  std::optional<double> nonnegative_flag(const std::string& flag,
                                         double fallback) const;

  /// The positional arguments, in order; reading them marks them used.
  const std::vector<std::string>& positional() const {
    positional_read_ = true;
    return positional_;
  }

  /// Flags that were provided but never queried — call after all gets
  /// to warn about typos.
  std::vector<std::string> unqueried() const;

  /// Call after all gets: logs "unknown flag --<flag> (accepted:
  /// <accepted>)" as an error for every unqueried flag, and "unexpected
  /// argument '<arg>'" for every positional argument when positional()
  /// was never called, and returns true if there was one, so a caller
  /// can exit 2 on a typo instead of running with defaults.
  bool reject_unqueried(const std::string& accepted) const;

 private:
  std::map<std::string, std::string> flags_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
  mutable bool positional_read_ = false;
};

}  // namespace drift
