// Output writers for drift_lint.
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
// Both JSON formats are built as JsonValues and written by
// write_canonical (src/util/json).
#pragma once

#include <string>
#include <vector>

#include "rules.hpp"

namespace drift::lint {

void print_text(const std::vector<Violation>& violations,
                std::size_t files_scanned);
void print_json(const std::vector<Violation>& violations,
                std::size_t files_scanned);
void print_sarif(const std::vector<Violation>& violations);

}  // namespace drift::lint
