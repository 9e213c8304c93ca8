// The v1 lexer-level rules: per-file token matching over the lexed
// code channel.  Registered through add_file_rules so they share
// suppression handling and output plumbing with the graph analyses in
// analyses.cpp.  Rule semantics are documented in rules.hpp.
#include <optional>
#include <regex>
#include <string>
#include <vector>

#include "rules.hpp"
#include "text.hpp"

namespace drift::lint {

namespace {

void rule_thread(const Context& ctx, const LexedFile& file) {
  if (file.rel == "src/util/thread_pool.hpp" ||
      file.rel == "src/util/thread_pool.cpp") {
    return;
  }
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& code = file.lines[i].code;
    for (const char* tok :
         {"std::jthread", "std::async", "pthread_create"}) {
      if (find_token(code, tok) != std::string::npos) {
        report(ctx, file.rel, static_cast<int>(i), "thread",
               std::string("raw threading primitive '") + tok +
                   "'; route parallelism through util/thread_pool.hpp");
      }
    }
    const std::size_t pos = find_token(code, "std::thread");
    if (pos != std::string::npos) {
      // std::thread::hardware_concurrency is a read-only query.
      std::size_t after = pos + std::string("std::thread").size();
      while (after < code.size() && code[after] == ' ') ++after;
      if (code.compare(after, 23, "::hardware_concurrency(") != 0) {
        report(ctx, file.rel, static_cast<int>(i), "thread",
               "raw threading primitive 'std::thread'; route parallelism "
               "through util/thread_pool.hpp");
      }
    }
    if (code.find("#pragma") != std::string::npos &&
        find_token(code, "omp") != std::string::npos) {
      report(ctx, file.rel, static_cast<int>(i), "thread",
             "OpenMP pragma; route parallelism through "
             "util/thread_pool.hpp");
    }
    const auto inc = parse_include(file.lines[i].raw);
    if (inc && inc->angled && (inc->path == "omp.h")) {
      report(ctx, file.rel, static_cast<int>(i), "thread",
             "OpenMP header include; route parallelism through "
             "util/thread_pool.hpp");
    }
  }
}

void rule_random(const Context& ctx, const LexedFile& file) {
  if (!starts_with(file.rel, "src/") || file.rel == "src/util/rng.hpp") {
    return;
  }
  static const std::vector<std::pair<std::string, std::regex>> kPatterns = {
      {"std::random_device", std::regex(R"(random_device)")},
      {"rand()", std::regex(R"((^|[^A-Za-z0-9_])rand\s*\()")},
      {"srand()", std::regex(R"((^|[^A-Za-z0-9_])srand\s*\()")},
      {"time()", std::regex(R"((^|[^A-Za-z0-9_.>])time\s*\()")},
      {"steady_clock::now()", std::regex(R"(steady_clock\s*::\s*now)")},
      {"system_clock::now()", std::regex(R"(system_clock\s*::\s*now)")},
      {"high_resolution_clock::now()",
       std::regex(R"(high_resolution_clock\s*::\s*now)")},
  };
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    for (const auto& [name, re] : kPatterns) {
      if (std::regex_search(file.lines[i].code, re)) {
        report(ctx, file.rel, static_cast<int>(i), "random",
               "nondeterministic source '" + name +
                   "'; draw from a seeded util/rng.hpp Rng instead");
      }
    }
  }
}

void rule_oracle_include(const Context& ctx, const LexedFile& file) {
  const bool in_ref = starts_with(file.rel, "src/ref/");
  const bool in_tests = starts_with(file.rel, "tests/");
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const auto inc = parse_include(file.lines[i].raw);
    if (!inc || inc->angled) continue;  // angled = standard library
    const auto resolved =
        resolve_include(file.rel, inc->path, *ctx.file_set);
    if (in_ref &&
        (!resolved || !starts_with(*resolved, "src/ref/"))) {
      report(ctx, file.rel, static_cast<int>(i), "oracle-include",
             "src/ref/ must stay oracle-independent: include \"" +
                 inc->path + "\" is not a src/ref/ or standard header");
    }
    if (!in_tests && resolved && starts_with(*resolved, "tests/")) {
      report(ctx, file.rel, static_cast<int>(i), "oracle-include",
             "non-test code includes \"" + inc->path + "\" from tests/");
    }
  }
}

void rule_narrow(const Context& ctx, const LexedFile& file) {
  if (!starts_with(file.rel, "src/core/") &&
      !starts_with(file.rel, "src/nn/")) {
    return;
  }
  static const std::regex kStatic(
      R"(static_cast<\s*(::)?(std::)?u?int(8|16|32)_t\s*>)");
  static const std::regex kCStyle(
      R"(\(\s*(::)?(std::)?u?int(8|16|32)_t\s*\)\s*[A-Za-z0-9_(+~!-])");
  static const std::regex kFunctional(
      R"((^|[^A-Za-z0-9_:<,])(std::)?u?int(8|16|32)_t\s*\()");
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& code = file.lines[i].code;
    std::smatch m;
    if (std::regex_search(code, m, kStatic) ||
        std::regex_search(code, m, kCStyle) ||
        std::regex_search(code, m, kFunctional)) {
      report(ctx, file.rel, static_cast<int>(i), "narrow",
             "narrowing cast to an int8/int4-carrying type; justify with "
             "'// drift-lint: allow(narrow) — <why the value fits>'");
    }
  }
}

void rule_intrinsic(const Context& ctx, const LexedFile& file) {
  // src/nn/simd/ is the one home for raw vector code; everything it
  // exports goes through the kernel dispatch table.
  if (starts_with(file.rel, "src/nn/simd/")) return;
  static const std::regex kIntrinsicHeader(
      R"((immintrin|x86intrin|emmintrin|smmintrin|tmmintrin|avxintrin|)"
      R"(arm_neon|arm_sve)\.h)");
  static const std::regex kIntrinsicToken(
      R"((^|[^A-Za-z0-9_])(_mm(256|512)?_[a-z0-9_]+|__m(128|256|512)[di]?|)"
      R"((u?int|float|poly)(8|16|32|64)x(1|2|4|8|16)_t))");
  const bool in_src = starts_with(file.rel, "src/");
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const auto inc = parse_include(file.lines[i].raw);
    if (inc) {
      // (a) Intrinsic headers are confined to the backend directory.
      if (std::regex_search(inc->path, kIntrinsicHeader)) {
        report(ctx, file.rel, static_cast<int>(i), "intrinsic",
               "vector intrinsic header <" + inc->path +
                   "> outside src/nn/simd/; add a kernel to the "
                   "dispatched backend instead");
        continue;
      }
      // (b) Production code consuming the backend does so through the
      // dispatch boundary, and says why.
      if (in_src && !inc->angled) {
        const auto resolved =
            resolve_include(file.rel, inc->path, *ctx.file_set);
        if (resolved && starts_with(*resolved, "src/nn/simd/")) {
          report(ctx, file.rel, static_cast<int>(i), "intrinsic",
                 "include \"" + inc->path +
                     "\" reaches into the SIMD backend; justify the "
                     "dispatch-boundary consumer with '// drift-lint: "
                     "allow(intrinsic) — <why>'");
        }
      }
      continue;
    }
    // (a) Raw intrinsic calls / vector register types in ordinary code.
    const std::string& code = file.lines[i].code;
    std::smatch m;
    if (std::regex_search(code, m, kIntrinsicToken)) {
      report(ctx, file.rel, static_cast<int>(i), "intrinsic",
             "raw SIMD intrinsic '" + m[2].str() +
                 "' outside src/nn/simd/; route through the kernel "
                 "dispatch table (nn/simd/kernel_dispatch.hpp)");
    }
  }
}

/// For each line, the 0-based line of the opening brace of the
/// outermost non-namespace block containing it (-1 at namespace/file
/// scope).  Class bodies count as one region — permissive, but a
/// DRIFT_CHECK anywhere in a small class is close enough for a lint.
std::vector<int> enclosing_block_starts(const LexedFile& file) {
  struct Frame {
    bool namespace_like = false;
    int line = 0;
  };
  std::vector<Frame> stack;
  std::vector<int> result(file.lines.size(), -1);

  const auto lowest_other = [&stack]() -> int {
    for (const auto& f : stack) {
      if (!f.namespace_like) return f.line;
    }
    return -1;
  };

  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& code = file.lines[i].code;
    int best = lowest_other();
    for (std::size_t p = 0; p < code.size(); ++p) {
      if (code[p] == '{') {
        const std::string before = code.substr(0, p);
        const bool ns = find_token(before, "namespace") != std::string::npos ||
                        find_token(before, "extern") != std::string::npos;
        stack.push_back({ns, static_cast<int>(i)});
        if (best == -1) best = lowest_other();
      } else if (code[p] == '}') {
        if (!stack.empty()) stack.pop_back();
      }
    }
    result[i] = best;
  }
  return result;
}

void rule_index(const Context& ctx, const LexedFile& file) {
  if (!starts_with(file.rel, "src/")) return;
  static const std::regex kRawIndex(R"(\.data\(\)\s*\[)");
  std::vector<int> block_starts;  // computed lazily: most files are clean
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    if (!std::regex_search(file.lines[i].code, kRawIndex)) continue;
    if (block_starts.empty()) block_starts = enclosing_block_starts(file);
    // Namespace/file scope has no enclosing function: same line only.
    const int start =
        block_starts[i] >= 0 ? block_starts[i] : static_cast<int>(i);
    bool checked = false;
    for (int l = start; l <= static_cast<int>(i); ++l) {
      if (file.lines[static_cast<std::size_t>(l)].code.find("DRIFT_CHECK") !=
          std::string::npos) {
        checked = true;
        break;
      }
    }
    if (!checked) {
      report(ctx, file.rel, static_cast<int>(i), "index",
             "raw .data()[...] indexing with no DRIFT_CHECK in the "
             "enclosing function; use at()/operator() or add "
             "DRIFT_CHECK_INDEX");
    }
  }
}

void rule_logging(const Context& ctx, const LexedFile& file) {
  const bool covered =
      starts_with(file.rel, "src/") ||
      (starts_with(file.rel, "tools/") && !is_reporting_sink(file.rel));
  if (!covered) return;
  static const std::regex kStdio(R"((^|[^A-Za-z0-9_:])(printf|fprintf|puts)\s*\()");
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& code = file.lines[i].code;
    for (const char* tok : {"std::cout", "std::cerr", "std::clog"}) {
      if (find_token(code, tok) != std::string::npos) {
        report(ctx, file.rel, static_cast<int>(i), "logging",
               std::string("direct stream output '") + tok +
                   "'; use util/logging.hpp (DRIFT_LOG_*)");
      }
    }
    if (std::regex_search(code, kStdio)) {
      report(ctx, file.rel, static_cast<int>(i), "logging",
             "direct stdio output; use util/logging.hpp (DRIFT_LOG_*)");
    }
  }
}

void rule_obs(const Context& ctx, const LexedFile& file) {
  // Hot paths must cache metric handles: a registry lookup-by-string
  // (.counter("...") / .gauge / .histogram / .run_histogram /
  // .layer_record) pays a mutex acquisition and a map walk, so calling
  // one per loop iteration turns instrumentation into contention.
  // Lines that cache into a `static` (what the DRIFT_OBS_* macros
  // expand to) are fine.
  // src/obs/ itself — the macro definitions and the registry — is
  // exempt.
  const bool covered =
      (starts_with(file.rel, "src/") && !starts_with(file.rel, "src/obs/")) ||
      (starts_with(file.rel, "tools/") && !is_reporting_sink(file.rel));
  if (!covered) return;
  static const std::regex kLookup(
      R"(\.\s*(counter|gauge|(run_)?histogram|layer_record)\s*\()");
  int loop_depth = 0;
  std::vector<bool> loop_stack;  // one flag per open brace: loop frame?
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& code = file.lines[i].code;
    // Flag before updating brace state: a lookup is in a loop when a
    // loop frame is already open, or a for/while precedes it in-line.
    std::smatch m;
    if (std::regex_search(code, m, kLookup)) {
      const std::string before =
          code.substr(0, static_cast<std::size_t>(m.position(0)));
      const bool loop_on_line =
          find_token(before, "for") != std::string::npos ||
          find_token(before, "while") != std::string::npos;
      const bool cached = find_token(code, "static") != std::string::npos;
      if ((loop_depth > 0 || loop_on_line) && !cached) {
        report(ctx, file.rel, static_cast<int>(i), "obs",
               "metrics registry lookup-by-string inside a loop; cache "
               "the handle outside the loop (static pointer or the "
               "DRIFT_OBS_* macros)");
      }
    }
    // A '{' opens a loop frame when for/while/do appears between the
    // previous statement boundary and the brace.  Braceless loop
    // bodies are covered by the in-line check above.
    std::size_t scan_from = 0;
    int paren_depth = 0;
    for (std::size_t p = 0; p < code.size(); ++p) {
      const char c = code[p];
      if (c == '(') {
        ++paren_depth;
      } else if (c == ')') {
        if (paren_depth > 0) --paren_depth;
      } else if (c == '{') {
        const std::string head = code.substr(scan_from, p - scan_from);
        const bool is_loop =
            find_token(head, "for") != std::string::npos ||
            find_token(head, "while") != std::string::npos ||
            find_token(head, "do") != std::string::npos;
        loop_stack.push_back(is_loop);
        if (is_loop) ++loop_depth;
        scan_from = p + 1;
      } else if (c == '}') {
        if (!loop_stack.empty()) {
          if (loop_stack.back()) --loop_depth;
          loop_stack.pop_back();
        }
        scan_from = p + 1;
      } else if (c == ';' && paren_depth == 0) {
        // A for-header's semicolons sit inside its parentheses and must
        // not clip the 'for' token off the statement head.
        scan_from = p + 1;
      }
    }
  }
}

}  // namespace

void add_file_rules(std::vector<Rule>& rules) {
  rules.push_back({"thread",
                   "parallelism is routed through util/thread_pool.hpp; no "
                   "raw std::thread / std::async / OpenMP elsewhere",
                   rule_thread, nullptr});
  rules.push_back({"random",
                   "every stochastic or timing decision in src/ flows "
                   "through the seeded util/rng.hpp Rng",
                   rule_random, nullptr});
  rules.push_back({"oracle-include",
                   "src/ref/ oracles include only src/ref/ and standard "
                   "headers; non-test code never includes tests/",
                   rule_oracle_include, nullptr});
  rules.push_back({"narrow",
                   "casts to int8/16/32-carrying types in src/{core,nn}/ "
                   "carry a justified allow(narrow)",
                   rule_narrow, nullptr});
  rules.push_back({"intrinsic",
                   "raw SIMD intrinsics are confined to src/nn/simd/; "
                   "dispatch-boundary consumers carry a justified allow",
                   rule_intrinsic, nullptr});
  rules.push_back({"index",
                   ".data()[...] indexing requires a DRIFT_CHECK in the "
                   "enclosing function",
                   rule_index, nullptr});
  rules.push_back({"logging",
                   "src/ and non-sink tools/ code logs through "
                   "util/logging.hpp, not raw stdio/iostream",
                   rule_logging, nullptr});
  rules.push_back({"obs",
                   "metrics registry lookups-by-string are cached outside "
                   "loops (static handle or DRIFT_OBS_* macros)",
                   rule_obs, nullptr});
}

}  // namespace drift::lint
