// drift_lint — project-specific static analysis for the Drift repo.
//
// Walks the given directories (default: src tools bench examples
// perfbench tests, the code every binary is built from), lexes
// every C++ source file, builds the whole-program model (symbol table,
// include graph, approximate call graph — see graph.hpp), and enforces
// the determinism / oracle-independence / numeric-safety / layering
// invariants described in rules.hpp and DESIGN.md "Static analysis"
// (+ "Static analysis v2").
//
// Usage:
//   drift_lint [--root=DIR] [--format=text|json|sarif] [dir ...]
//
// The command line is read through util::Args, like every other
// binary's: a valued flag needs `=` (a value after a space is read as
// a directory), and an unknown flag, an unknown format or a directory
// that does not exist under the root is a usage error.
//
// Exit codes: 0 clean, 1 violations found, 2 usage or I/O error.
//
// Output is deterministic (files walked in sorted order, violations
// sorted by file/line/rule) so `--format=json` and `--format=sarif`
// can be asserted exactly by tests/lint/.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "output.hpp"
#include "rules.hpp"
#include "util/args.hpp"
#include "util/logging.hpp"

namespace fs = std::filesystem;

namespace {

constexpr const char* kUsage =
    "usage: drift_lint [--root=DIR] [--format=text|json|sarif] [dir ...]\n";

bool has_lintable_extension(const fs::path& p) {
  static const std::set<std::string> kExts = {".cpp", ".hpp", ".h", ".cc",
                                              ".hh", ".cxx"};
  return kExts.count(p.extension().string()) > 0;
}

/// Directories never walked: build trees, VCS state, and lint fixture
/// corpora (tests/lint/fixtures holds files with intentional
/// violations).
bool is_skipped_dir(const std::string& name) {
  return name == ".git" || name == "fixtures" ||
         name.rfind("build", 0) == 0;
}

std::string to_rel(const fs::path& p, const fs::path& root) {
  return fs::relative(p, root).generic_string();
}

/// The lintable files under `dirs` (relative to `root`), sorted and
/// unique.
std::vector<std::string> collect_files(const fs::path& root,
                                       const std::vector<std::string>& dirs) {
  std::vector<std::string> rels;
  for (const auto& dir : dirs) {
    auto it = fs::recursive_directory_iterator(root / dir);
    for (const auto& entry : it) {
      if (entry.is_directory() &&
          is_skipped_dir(entry.path().filename().string())) {
        it.disable_recursion_pending();
        continue;
      }
      if (entry.is_regular_file() && has_lintable_extension(entry.path())) {
        rels.push_back(to_rel(entry.path(), root));
      }
    }
  }
  std::sort(rels.begin(), rels.end());
  rels.erase(std::unique(rels.begin(), rels.end()), rels.end());
  return rels;
}

}  // namespace

int main(int argc, char** argv) {
  const drift::Args args = drift::Args::parse(argc, argv);
  const std::optional<bool> help = args.bool_flag("help", false);
  const std::string root_flag = args.get_string("root", ".");
  const std::string format = args.get_string("format", "text");
  std::vector<std::string> dirs = args.positional();
  const bool format_ok =
      format == "text" || format == "json" || format == "sarif";
  if (!format_ok) {
    DRIFT_LOG_ERROR("args") << "--format=" << format
                            << " is not a format (valid: text, json, sarif)";
  }
  if (!help || !format_ok ||
      args.reject_unqueried("--root, --format")) {
    std::cerr << kUsage;
    return 2;
  }
  if (*help) {
    std::cout << kUsage;
    return 0;
  }
  if (dirs.empty()) {
    dirs = {"src", "tools", "bench", "examples", "perfbench", "tests"};
  }
  if (!fs::exists(root_flag)) {
    std::cerr << "drift_lint: root does not exist: " << root_flag << "\n";
    return 2;
  }
  const fs::path root = fs::canonical(root_flag);
  // A misspelled directory must not pass the gate as an empty scan.
  for (const std::string& dir : dirs) {
    if (!fs::is_directory(root / dir)) {
      std::cerr << "drift_lint: no directory '" << dir << "' under "
                << root.string() << "\n";
      return 2;
    }
  }

  const std::vector<std::string> rels = collect_files(root, dirs);
  std::vector<drift::lint::LexedFile> files;
  files.reserve(rels.size());
  for (const auto& rel : rels) {
    const fs::path abs = root / rel;
    std::ifstream in(abs, std::ios::binary);
    if (!in) {
      std::cerr << "drift_lint: cannot read " << abs << "\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    files.push_back(drift::lint::lex_file(abs, rel, buf.str()));
  }

  const auto violations = drift::lint::run_rules(files);
  if (format == "json") {
    drift::lint::print_json(violations, files.size());
  } else if (format == "sarif") {
    drift::lint::print_sarif(violations);
  } else {
    drift::lint::print_text(violations, files.size());
  }
  return violations.empty() ? 0 : 1;
}
