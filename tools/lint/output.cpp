#include "output.hpp"

#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>

#include "util/json.hpp"

namespace drift::lint {

void print_text(const std::vector<Violation>& violations,
                std::size_t files_scanned) {
  for (const auto& v : violations) {
    std::cout << v.file << ":" << v.line << ": [" << v.rule << "] "
              << v.message << "\n";
  }
  std::cerr << "drift_lint: " << violations.size() << " violation(s) in "
            << files_scanned << " file(s) scanned\n";
}

void print_json(const std::vector<Violation>& violations,
                std::size_t files_scanned) {
  std::cout << "{\n  \"files_scanned\": " << files_scanned
            << ",\n  \"violation_count\": " << violations.size()
            << ",\n  \"violations\": [";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    const auto& v = violations[i];
    std::cout << (i == 0 ? "\n" : ",\n")
              << "    {\"file\": " << json_quoted(v.file)
              << ", \"line\": " << v.line
              << ", \"rule\": " << json_quoted(v.rule)
              << ", \"message\": " << json_quoted(v.message) << "}";
  }
  std::cout << (violations.empty() ? "]\n}\n" : "\n  ]\n}\n");
}

void print_sarif(const std::vector<Violation>& violations) {
  const auto& rules = rule_registry();
  std::map<std::string, std::size_t> rule_index;
  for (std::size_t i = 0; i < rules.size(); ++i) {
    rule_index[rules[i].id] = i;
  }

  std::cout << "{\n"
            << "  \"$schema\": "
               "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
            << "  \"version\": \"2.1.0\",\n"
            << "  \"runs\": [\n"
            << "    {\n"
            << "      \"tool\": {\n"
            << "        \"driver\": {\n"
            << "          \"name\": \"drift_lint\",\n"
            << "          \"informationUri\": "
               "\"DESIGN.md#static-analysis-v2\",\n"
            << "          \"rules\": [";
  for (std::size_t i = 0; i < rules.size(); ++i) {
    std::cout << (i == 0 ? "\n" : ",\n")
              << "            {\"id\": " << json_quoted(rules[i].id)
              << ", \"shortDescription\": {\"text\": "
              << json_quoted(rules[i].summary) << "}}";
  }
  std::cout << "\n          ]\n"
            << "        }\n"
            << "      },\n"
            << "      \"results\": [";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    const auto& v = violations[i];
    const auto it = rule_index.find(v.rule);
    std::cout << (i == 0 ? "\n" : ",\n")
              << "        {\"ruleId\": " << json_quoted(v.rule);
    if (it != rule_index.end()) {
      std::cout << ", \"ruleIndex\": " << it->second;
    }
    std::cout << ", \"level\": \"error\", \"message\": {\"text\": "
              << json_quoted(v.message)
              << "}, \"locations\": [{\"physicalLocation\": "
                 "{\"artifactLocation\": {\"uri\": "
              << json_quoted(v.file)
              << "}, \"region\": {\"startLine\": " << v.line << "}}}]}";
  }
  std::cout << (violations.empty() ? "]\n" : "\n      ]\n")
            << "    }\n"
            << "  ]\n"
            << "}\n";
}

bool load_ratchet(const std::string& path,
                  std::map<std::string, int>& budgets, std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot read the file";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  JsonError json_error;
  const std::optional<JsonValue> doc = parse_json(buf.str(), json_error);
  if (!doc) {
    error = json_error.what();
    return false;
  }
  if (!doc->is_object()) {
    error = "the top level must be an object of \"rule\": budget pairs";
    return false;
  }
  for (const auto& [rule, budget] : doc->as_object()) {
    if (budget.kind() != JsonValue::Kind::kInt || budget.as_int() < 0 ||
        budget.as_int() > std::numeric_limits<int>::max()) {
      error = "the budget of '" + rule + "' is not a non-negative integer";
      return false;
    }
    budgets[rule] = static_cast<int>(budget.as_int());
  }
  return true;
}

int apply_ratchet(const std::vector<Violation>& violations,
                  const std::map<std::string, int>& budgets) {
  std::map<std::string, int> counts;
  for (const auto& v : violations) ++counts[v.rule];

  int exceeded = 0;
  for (const auto& [rule, count] : counts) {
    const auto it = budgets.find(rule);
    const int budget = it == budgets.end() ? 0 : it->second;
    if (count > budget) {
      std::cerr << "drift_lint: ratchet EXCEEDED for rule '" << rule
                << "': " << count << " > budget " << budget << "\n";
      ++exceeded;
    } else {
      std::cerr << "drift_lint: ratchet ok for rule '" << rule << "': "
                << count << " <= budget " << budget << "\n";
    }
  }
  // Budgets that are now over-generous invite regressions; nudge them
  // down but do not fail the gate.
  for (const auto& [rule, budget] : budgets) {
    if (budget > 0 && counts.find(rule) == counts.end()) {
      std::cerr << "drift_lint: ratchet budget for rule '" << rule
                << "' can be lowered to 0\n";
    }
  }
  return exceeded == 0 ? 0 : 1;
}

}  // namespace drift::lint
