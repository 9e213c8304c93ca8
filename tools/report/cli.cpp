#include "cli.hpp"

#include <fstream>
#include <optional>
#include <sstream>

#include "analysis.hpp"
#include "util/json.hpp"

namespace drift::report {

namespace {

constexpr const char* kUsage = R"(usage:
  drift_report summarize <metrics.json> [--trace <trace.json>]
               [--json] [--peak-bytes-per-cycle <v>]
  drift_report diff <a.json> <b.json> [--tolerances <tol.json>] [--json]
  drift_report ratchet <BENCH_kernels.json> --baseline <baseline.json>
               [--max-slowdown <v>] [--json]

exit codes: 0 clean, 1 findings, 2 usage/IO/parse error
)";

std::optional<JsonValue> load(const std::string& path, std::string& err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    err += "drift_report: cannot open '" + path + "'\n";
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  JsonError parse_error;
  auto doc = parse_json(buf.str(), parse_error);
  if (!doc) {
    err += "drift_report: '" + path + "': " + parse_error.what() + "\n";
    return std::nullopt;
  }
  return doc;
}

/// Pulls the value after `flag` out of `args`, erasing both tokens.
std::optional<std::string> take_flag(std::vector<std::string>& args,
                                     const std::string& flag) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == flag) {
      if (i + 1 >= args.size()) return std::nullopt;
      std::string value = args[i + 1];
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      return value;
    }
    if (args[i].rfind(flag + "=", 0) == 0) {
      std::string value = args[i].substr(flag.size() + 1);
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
      return value;
    }
  }
  return std::string();  // flag absent: empty value, distinguishable below
}

bool take_switch(std::vector<std::string>& args, const std::string& flag) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == flag) {
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
      return true;
    }
  }
  return false;
}

int cmd_summarize(std::vector<std::string> args, std::string& out,
                  std::string& err) {
  const bool as_json = take_switch(args, "--json");
  const auto trace_path = take_flag(args, "--trace");
  const auto peak = take_flag(args, "--peak-bytes-per-cycle");
  if (!trace_path || !peak) {
    err += kUsage;
    return 2;
  }
  if (args.size() != 1) {
    err += kUsage;
    return 2;
  }
  SummarizeOptions options;
  if (!peak->empty()) {
    try {
      options.peak_bytes_per_cycle = std::stod(*peak);
    } catch (...) {
      err += "drift_report: bad --peak-bytes-per-cycle '" + *peak + "'\n";
      return 2;
    }
  }
  const auto metrics = load(args[0], err);
  if (!metrics) return 2;
  std::optional<JsonValue> trace;
  if (!trace_path->empty()) {
    trace = load(*trace_path, err);
    if (!trace) return 2;
  }
  const JsonValue report =
      summarize(*metrics, trace ? &*trace : nullptr, options);
  out += as_json ? write_canonical(report) : summary_text(report);
  return 0;
}

int cmd_diff(std::vector<std::string> args, std::string& out,
             std::string& err) {
  const bool as_json = take_switch(args, "--json");
  const auto tol_path = take_flag(args, "--tolerances");
  if (!tol_path || args.size() != 2) {
    err += kUsage;
    return 2;
  }
  const auto a = load(args[0], err);
  const auto b = load(args[1], err);
  if (!a || !b) return 2;
  std::optional<JsonValue> tolerances;
  if (!tol_path->empty()) {
    tolerances = load(*tol_path, err);
    if (!tolerances) return 2;
  }
  DiffResult result;
  std::string diff_error;
  if (!diff_runs(*a, *b, tolerances ? &*tolerances : nullptr, result,
                 diff_error)) {
    err += "drift_report: " + diff_error + "\n";
    return 2;
  }
  if (as_json) {
    JsonObject doc;
    doc["compared"] = JsonValue(static_cast<std::int64_t>(result.compared));
    doc["ignored"] = JsonValue(static_cast<std::int64_t>(result.ignored));
    JsonArray failures;
    for (const DiffEntry& f : result.failures) {
      JsonObject row;
      row["path"] = JsonValue(f.path);
      row["a"] = JsonValue(f.a);
      row["b"] = JsonValue(f.b);
      row["rel_delta"] = JsonValue(f.rel_delta);
      row["note"] = JsonValue(f.note);
      failures.push_back(JsonValue(std::move(row)));
    }
    doc["failures"] = JsonValue(std::move(failures));
    doc["ok"] = JsonValue(result.failures.empty());
    out += write_canonical(JsonValue(std::move(doc)));
  } else {
    out += "== drift_report diff ==\n";
    out += "compared " + std::to_string(result.compared) + " leaves, ignored " +
           std::to_string(result.ignored) + "\n";
    for (const DiffEntry& f : result.failures) {
      out += "FAIL " + f.path + ": " + f.a + " vs " + f.b + " (" + f.note +
             ")\n";
    }
    out += result.failures.empty()
               ? "OK: runs agree within tolerance\n"
               : std::to_string(result.failures.size()) +
                     " metric(s) out of tolerance\n";
  }
  return result.failures.empty() ? 0 : 1;
}

int cmd_ratchet(std::vector<std::string> args, std::string& out,
                std::string& err) {
  const bool as_json = take_switch(args, "--json");
  const auto baseline_path = take_flag(args, "--baseline");
  const auto max_slowdown_s = take_flag(args, "--max-slowdown");
  if (!baseline_path || !max_slowdown_s || baseline_path->empty() ||
      args.size() != 1) {
    err += kUsage;
    return 2;
  }
  double max_slowdown = 1.5;
  if (!max_slowdown_s->empty()) {
    try {
      max_slowdown = std::stod(*max_slowdown_s);
    } catch (...) {
      err += "drift_report: bad --max-slowdown '" + *max_slowdown_s + "'\n";
      return 2;
    }
  }
  const auto current = load(args[0], err);
  const auto baseline = load(*baseline_path, err);
  if (!current || !baseline) return 2;
  const RatchetResult result = ratchet(*current, *baseline, max_slowdown);
  const bool failed = !result.failures.empty() || !result.missing.empty() ||
                      !result.mismatches.empty();
  if (as_json) {
    JsonObject doc;
    JsonArray checked;
    for (const RatchetEntry& e : result.checked) {
      JsonObject row;
      row["key"] = JsonValue(e.key);
      row["baseline_ops_per_s"] = JsonValue(e.baseline_ops);
      row["current_ops_per_s"] = JsonValue(e.current_ops);
      row["slowdown"] = JsonValue(e.slowdown);
      checked.push_back(JsonValue(std::move(row)));
    }
    doc["checked"] = JsonValue(std::move(checked));
    JsonArray failures;
    for (const RatchetEntry& e : result.failures) {
      failures.push_back(JsonValue(e.key));
    }
    doc["failures"] = JsonValue(std::move(failures));
    JsonArray missing, untracked, mismatches;
    for (const std::string& k : result.missing) missing.push_back(JsonValue(k));
    for (const std::string& k : result.untracked) {
      untracked.push_back(JsonValue(k));
    }
    for (const std::string& k : result.mismatches) {
      mismatches.push_back(JsonValue(k));
    }
    doc["missing"] = JsonValue(std::move(missing));
    doc["untracked"] = JsonValue(std::move(untracked));
    doc["proptest_mismatches"] = JsonValue(std::move(mismatches));
    doc["max_slowdown"] = JsonValue(max_slowdown);
    doc["ok"] = JsonValue(!failed);
    out += write_canonical(JsonValue(std::move(doc)));
  } else {
    out += "== drift_report ratchet (max slowdown " +
           format_double(max_slowdown) + "x) ==\n";
    for (const RatchetEntry& e : result.checked) {
      char line[256];
      std::snprintf(line, sizeof line, "  %-52s %8.3fx %s\n", e.key.c_str(),
                    e.slowdown, e.slowdown > max_slowdown ? "FAIL" : "ok");
      out += line;
    }
    for (const std::string& k : result.missing) {
      out += "  MISSING from this run: " + k + "\n";
    }
    for (const std::string& k : result.untracked) {
      out += "  note: not in baseline (new kernel?): " + k + "\n";
    }
    for (const std::string& k : result.mismatches) {
      out += "  PROPTEST MISMATCH: " + k + "\n";
    }
    out += failed ? "RATCHET FAILED\n" : "OK: no kernel regressed\n";
  }
  return failed ? 1 : 0;
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::string& out,
            std::string& err) {
  if (args.empty()) {
    err += kUsage;
    return 2;
  }
  const std::string& mode = args[0];
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  if (mode == "summarize") return cmd_summarize(rest, out, err);
  if (mode == "diff") return cmd_diff(rest, out, err);
  if (mode == "ratchet") return cmd_ratchet(rest, out, err);
  if (mode == "--help" || mode == "-h" || mode == "help") {
    out += kUsage;
    return 0;
  }
  err += "drift_report: unknown mode '" + mode + "'\n";
  err += kUsage;
  return 2;
}

}  // namespace drift::report
