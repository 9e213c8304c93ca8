// Shared string / include-resolution helpers for the drift_lint rule
// engine.  These were private to rules.cpp in v1; the v2 split into
// lexer rules (file_rules.cpp), symbol extraction (symbols.cpp) and
// graph analyses (analyses.cpp) makes them common infrastructure.
#pragma once

#include <optional>
#include <string>
#include <unordered_set>

namespace drift::lint {

bool starts_with(const std::string& s, const char* prefix);

bool is_ident_char(char c);

std::string trim(const std::string& s);

/// First occurrence of `token` in `code` delimited by non-identifier
/// characters on both sides (npos if absent).
std::size_t find_token(const std::string& code, const std::string& token);

/// CLI front-ends whose whole job is writing to stdout/stderr: the
/// graph, report, lint and serving tools.  These are allowed stdio
/// sinks for the `logging` rule so they don't need a suppression on
/// every print statement; library code under tools/ (anything else)
/// still routes through util/logging.hpp.
bool is_reporting_sink(const std::string& rel);

struct Include {
  std::string path;
  bool angled = false;
};

/// Parses a `#include <...>` / `#include "..."` line (std::nullopt if
/// the line is not an include directive).
std::optional<Include> parse_include(const std::string& raw);

/// Collapses "." and ".." components; keeps the path '/'-separated.
std::string normalize_path(const std::string& path);

/// Resolves a quoted include against the walked file set, mirroring the
/// build's include directories: the includer's own directory first,
/// then src/ and tests/ (the two target_include_directories roots).
std::optional<std::string> resolve_include(
    const std::string& includer_rel, const std::string& inc,
    const std::unordered_set<std::string>& file_set);

}  // namespace drift::lint
