#include "output.hpp"

#include <cstdint>
#include <iostream>
#include <map>

#include "util/json.hpp"

namespace drift::lint {

namespace {

JsonValue str(std::string s) { return JsonValue(std::move(s)); }

/// A one-member object {key: value}, the shape SARIF nests most values
/// in.
JsonValue wrap(const char* key, JsonValue value) {
  JsonObject out;
  out[key] = std::move(value);
  return JsonValue(std::move(out));
}

}  // namespace

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
  JsonArray list;
  for (const auto& v : violations) {
    JsonObject entry;
    entry["file"] = str(v.file);
    entry["line"] = JsonValue(std::int64_t{v.line});
    entry["rule"] = str(v.rule);
    entry["message"] = str(v.message);
    list.push_back(JsonValue(std::move(entry)));
  }
  JsonObject doc;
  doc["files_scanned"] = JsonValue(static_cast<std::int64_t>(files_scanned));
  doc["violation_count"] =
      JsonValue(static_cast<std::int64_t>(violations.size()));
  doc["violations"] = JsonValue(std::move(list));
  std::cout << write_canonical(JsonValue(std::move(doc)));
}

void print_sarif(const std::vector<Violation>& violations) {
  const auto& rules = rule_registry();
  std::map<std::string, std::size_t> rule_index;
  JsonArray catalog;
  for (std::size_t i = 0; i < rules.size(); ++i) {
    rule_index[rules[i].id] = i;
    JsonObject rule;
    rule["id"] = str(rules[i].id);
    rule["shortDescription"] = wrap("text", str(rules[i].summary));
    catalog.push_back(JsonValue(std::move(rule)));
  }
  JsonObject driver;
  driver["name"] = str("drift_lint");
  driver["informationUri"] = str("DESIGN.md#static-analysis-v2");
  driver["rules"] = JsonValue(std::move(catalog));

  JsonArray results;
  for (const auto& v : violations) {
    JsonObject location;
    location["artifactLocation"] = wrap("uri", str(v.file));
    location["region"] = wrap("startLine", JsonValue(std::int64_t{v.line}));
    JsonObject result;
    result["ruleId"] = str(v.rule);
    if (const auto it = rule_index.find(v.rule); it != rule_index.end()) {
      result["ruleIndex"] = JsonValue(static_cast<std::int64_t>(it->second));
    }
    result["level"] = str("error");
    result["message"] = wrap("text", str(v.message));
    result["locations"] = JsonValue(
        JsonArray{wrap("physicalLocation", JsonValue(std::move(location)))});
    results.push_back(JsonValue(std::move(result)));
  }
  JsonObject run;
  run["tool"] = wrap("driver", JsonValue(std::move(driver)));
  run["results"] = JsonValue(std::move(results));

  JsonObject doc;
  doc["$schema"] = str("https://json.schemastore.org/sarif-2.1.0.json");
  doc["version"] = str("2.1.0");
  doc["runs"] = JsonValue(JsonArray{JsonValue(std::move(run))});
  std::cout << write_canonical(JsonValue(std::move(doc)));
}

}  // namespace drift::lint
