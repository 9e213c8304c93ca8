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
//   drift_lint [--root DIR] [--format=text|json|sarif]
//              [--ratchet FILE] [--exclude SUBSTR]... [dir ...]
//
// Exit codes: 0 clean (or within ratchet budgets), 1 violations found
// (or some ratchet budget exceeded), 2 usage or I/O error, or a
// ratchet file that is not a JSON object of non-negative budgets.
//
// Output is deterministic (files walked in sorted order, violations
// sorted by file/line/rule) so `--format=json` and `--format=sarif`
// can be asserted exactly by tests/lint/.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "output.hpp"
#include "rules.hpp"

namespace fs = std::filesystem;

namespace {

struct Options {
  fs::path root = ".";
  std::string format = "text";
  std::string ratchet_path;
  std::vector<std::string> excludes;
  std::vector<std::string> dirs;
};

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

std::vector<std::string> collect_files(const Options& opt) {
  std::vector<std::string> rels;
  for (const auto& dir : opt.dirs) {
    const fs::path base = opt.root / dir;
    if (!fs::exists(base)) continue;
    auto it = fs::recursive_directory_iterator(base);
    for (const auto& entry : it) {
      if (entry.is_directory() &&
          is_skipped_dir(entry.path().filename().string())) {
        it.disable_recursion_pending();
        continue;
      }
      if (!entry.is_regular_file() || !has_lintable_extension(entry.path())) {
        continue;
      }
      const std::string rel = to_rel(entry.path(), opt.root);
      const bool excluded =
          std::any_of(opt.excludes.begin(), opt.excludes.end(),
                      [&rel](const std::string& e) {
                        return rel.find(e) != std::string::npos;
                      });
      if (!excluded) rels.push_back(rel);
    }
  }
  std::sort(rels.begin(), rels.end());
  rels.erase(std::unique(rels.begin(), rels.end()), rels.end());
  return rels;
}

int usage() {
  std::cerr << "usage: drift_lint [--root DIR] [--format=text|json|sarif] "
               "[--ratchet FILE] [--exclude SUBSTR]... [dir ...]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root") {
      if (++i >= argc) return usage();
      opt.root = argv[i];
    } else if (arg.rfind("--format=", 0) == 0) {
      opt.format = arg.substr(9);
      if (opt.format != "text" && opt.format != "json" &&
          opt.format != "sarif") {
        return usage();
      }
    } else if (arg == "--ratchet") {
      if (++i >= argc) return usage();
      opt.ratchet_path = argv[i];
    } else if (arg == "--exclude") {
      if (++i >= argc) return usage();
      opt.excludes.push_back(argv[i]);
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      opt.dirs.push_back(arg);
    }
  }
  if (opt.dirs.empty()) {
    opt.dirs = {"src", "tools", "bench", "examples", "perfbench", "tests"};
  }
  if (!fs::exists(opt.root)) {
    std::cerr << "drift_lint: root does not exist: " << opt.root << "\n";
    return 2;
  }
  opt.root = fs::canonical(opt.root);

  const std::vector<std::string> rels = collect_files(opt);
  std::vector<drift::lint::LexedFile> files;
  files.reserve(rels.size());
  for (const auto& rel : rels) {
    const fs::path abs = opt.root / rel;
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
  if (opt.format == "json") {
    drift::lint::print_json(violations, files.size());
  } else if (opt.format == "sarif") {
    drift::lint::print_sarif(violations);
  } else {
    drift::lint::print_text(violations, files.size());
  }

  if (!opt.ratchet_path.empty()) {
    std::map<std::string, int> budgets;
    std::string error;
    if (!drift::lint::load_ratchet(opt.ratchet_path, budgets, error)) {
      std::cerr << "drift_lint: ratchet file " << opt.ratchet_path << ": "
                << error << "\n";
      return 2;
    }
    return drift::lint::apply_ratchet(violations, budgets);
  }
  return violations.empty() ? 0 : 1;
}
