// Output writers and ratchet gating for drift_lint.
//
// Three formats, all byte-deterministic so tests/lint/ can assert them
// exactly:
//
//   text   file:line: [rule] message        (summary on stderr)
//   json   the v1 machine format (files_scanned / violation_count /
//          violations[])
//   sarif  SARIF 2.1.0 with the rule catalog from rule_registry() in
//          tool.driver.rules and one result per violation, for GitHub
//          code-scanning upload
//
// The ratchet turns "exit 1 on any violation" into a burn-down gate: a
// committed JSON file maps rule id -> maximum allowed count, and the
// run fails only when some rule exceeds its budget.  Budgets default
// to zero for rules absent from the file, so new rules are born
// enforced.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "rules.hpp"

namespace drift::lint {

void print_text(const std::vector<Violation>& violations,
                std::size_t files_scanned);
void print_json(const std::vector<Violation>& violations,
                std::size_t files_scanned);
void print_sarif(const std::vector<Violation>& violations);

/// Loads `path`: a JSON object of "rule": budget pairs, every budget a
/// non-negative integer.  Returns false, with `error` naming the byte
/// offset or the key, when the file cannot be read or is anything else.
bool load_ratchet(const std::string& path, std::map<std::string, int>& budgets,
                  std::string& error);

/// Compares per-rule violation counts against `budgets` (absent rule =
/// budget 0) and prints a per-rule verdict to stderr.  Returns 0 when
/// every rule is within budget, 1 otherwise.
int apply_ratchet(const std::vector<Violation>& violations,
                  const std::map<std::string, int>& budgets);

}  // namespace drift::lint
