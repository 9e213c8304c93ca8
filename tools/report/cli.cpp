#include "cli.hpp"

#include <fstream>
#include <optional>
#include <sstream>
#include <vector>

#include "analysis.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

namespace drift::report {

namespace {

constexpr const char* kUsage = R"(usage:
  drift_report summarize <metrics.json> [--trace=<trace.json>] [--json]
  drift_report diff <a.json> <b.json> [--tolerances=<tol.json>] [--json]
  drift_report ratchet <BENCH_kernels.json> --baseline=<baseline.json>
               [--max-slowdown=<v>] [--json]

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

/// The usage-error exit: appends the usage text to `err`, returns 2.
int usage_error(std::string& err) {
  err += kUsage;
  return 2;
}

/// True when, after a command read its flags, `args` holds no flag the
/// command does not take (Args::reject_unqueried) and exactly `want`
/// files follow the command.  A value given after a space instead of
/// `=` is one file too many; each excess one is logged by name.
bool flags_and_files_ok(const Args& args,
                        const std::vector<std::string>& files,
                        std::size_t want, const std::string& accepted) {
  const bool ok = !args.reject_unqueried(accepted) && files.size() == want;
  for (std::size_t i = want; i < files.size(); ++i) {
    DRIFT_LOG_ERROR("args") << "unexpected argument '" << files[i]
                            << "' (accepted: " << accepted << ")";
  }
  return ok;
}

int cmd_summarize(const Args& args, const std::vector<std::string>& files,
                  std::string& out, std::string& err) {
  const std::optional<bool> as_json = args.bool_flag("json", false);
  const std::string trace_path = args.get_string("trace", "");
  if (!as_json || !flags_and_files_ok(args, files, 1, "--trace, --json")) {
    return usage_error(err);
  }
  const auto metrics = load(files[0], err);
  if (!metrics) return 2;
  std::optional<JsonValue> trace;
  if (!trace_path.empty()) {
    trace = load(trace_path, err);
    if (!trace) return 2;
  }
  const JsonValue report = summarize(*metrics, trace ? &*trace : nullptr);
  out += *as_json ? write_canonical(report) : summary_text(report);
  return 0;
}

int cmd_diff(const Args& args, const std::vector<std::string>& files,
             std::string& out, std::string& err) {
  const std::optional<bool> as_json = args.bool_flag("json", false);
  const std::string tol_path = args.get_string("tolerances", "");
  if (!as_json ||
      !flags_and_files_ok(args, files, 2, "--tolerances, --json")) {
    return usage_error(err);
  }
  const auto a = load(files[0], err);
  const auto b = load(files[1], err);
  if (!a || !b) return 2;
  std::optional<JsonValue> tolerances;
  if (!tol_path.empty()) {
    tolerances = load(tol_path, err);
    if (!tolerances) return 2;
  }
  DiffResult result;
  std::string diff_error;
  if (!diff_runs(*a, *b, tolerances ? &*tolerances : nullptr, result,
                 diff_error)) {
    err += "drift_report: " + diff_error + "\n";
    return 2;
  }
  if (*as_json) {
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

int cmd_ratchet(const Args& args, const std::vector<std::string>& files,
                std::string& out, std::string& err) {
  const std::optional<bool> as_json = args.bool_flag("json", false);
  const std::string baseline_path = args.get_string("baseline", "");
  const std::optional<double> max_slowdown =
      args.positive_flag("max-slowdown", 1.5);
  if (!as_json || !max_slowdown ||
      !flags_and_files_ok(args, files, 1,
                          "--baseline, --max-slowdown, --json") ||
      baseline_path.empty()) {
    return usage_error(err);
  }
  const auto current = load(files[0], err);
  const auto baseline = load(baseline_path, err);
  if (!current || !baseline) return 2;
  const RatchetResult result = ratchet(*current, *baseline, *max_slowdown);
  const bool failed = !result.failures.empty() || !result.missing.empty();
  if (*as_json) {
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
    JsonArray missing, untracked;
    for (const std::string& k : result.missing) missing.push_back(JsonValue(k));
    for (const std::string& k : result.untracked) {
      untracked.push_back(JsonValue(k));
    }
    doc["missing"] = JsonValue(std::move(missing));
    doc["untracked"] = JsonValue(std::move(untracked));
    doc["max_slowdown"] = JsonValue(*max_slowdown);
    doc["ok"] = JsonValue(!failed);
    out += write_canonical(JsonValue(std::move(doc)));
  } else {
    out += "== drift_report ratchet (max slowdown " +
           format_double(*max_slowdown) + "x) ==\n";
    for (const RatchetEntry& e : result.checked) {
      char line[256];
      std::snprintf(line, sizeof line, "  %-52s %8.3fx %s\n", e.key.c_str(),
                    e.slowdown, e.slowdown > *max_slowdown ? "FAIL" : "ok");
      out += line;
    }
    for (const std::string& k : result.missing) {
      out += "  MISSING from this run: " + k + "\n";
    }
    for (const std::string& k : result.untracked) {
      out += "  note: not in baseline (new kernel?): " + k + "\n";
    }
    out += failed ? "RATCHET FAILED\n" : "OK: no kernel regressed\n";
  }
  return failed ? 1 : 0;
}

}  // namespace

int run_cli(const Args& args, std::string& out, std::string& err) {
  const std::optional<bool> help = args.bool_flag("help", false);
  if (!help) return usage_error(err);
  if (*help) {
    out += kUsage;
    return 0;
  }
  const std::vector<std::string>& positional = args.positional();
  if (positional.empty()) return usage_error(err);
  const std::string& mode = positional.front();
  const std::vector<std::string> files(positional.begin() + 1,
                                       positional.end());
  if (mode == "summarize") return cmd_summarize(args, files, out, err);
  if (mode == "diff") return cmd_diff(args, files, out, err);
  if (mode == "ratchet") return cmd_ratchet(args, files, out, err);
  err += "drift_report: unknown mode '" + mode + "'\n";
  return usage_error(err);
}

}  // namespace drift::report
