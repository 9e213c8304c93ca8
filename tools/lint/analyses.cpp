#include "analyses.hpp"

#include <cctype>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph.hpp"
#include "text.hpp"

namespace drift::lint {

namespace {

constexpr const char* kDagSpec =
    "util -> tensor/stats -> core/nn/dram/energy/systolic -> graph -> "
    "accel -> obs -> serve";

bool is_cpp_keyword(const std::string& s) {
  static const std::set<std::string> kKeywords = {
      "if",       "else",    "for",      "while",    "do",      "switch",
      "case",     "default", "return",   "break",    "continue", "goto",
      "new",      "delete",  "sizeof",   "typeid",   "this",    "true",
      "false",    "nullptr", "const",    "constexpr", "static",  "auto",
      "void",     "int",     "long",     "short",    "unsigned", "signed",
      "float",    "double",  "bool",     "char",     "struct",  "class",
      "enum",     "union",   "namespace", "using",   "template", "typename",
      "operator", "throw",   "try",      "catch",    "co_await", "co_return",
      "co_yield", "public",  "private",  "protected", "virtual", "override",
      "final",    "inline",  "extern",   "mutable",  "volatile", "noexcept",
      "explicit", "friend",  "typedef",  "decltype", "alignas", "alignof",
      "and",      "or",      "not",      "static_cast", "reinterpret_cast",
      "const_cast", "dynamic_cast"};
  return kKeywords.count(s) != 0;
}

bool all_caps(const std::string& s) {
  for (char c : s) {
    if (std::islower(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

// ---------------------------------------------------------------------
// layer: module layering DAG over include edges and qualified symbol
// references.
// ---------------------------------------------------------------------

/// Whether module `from` may reference module `to`.  Same-or-lower
/// rank is allowed (groups share a rank); obs is referenceable from
/// everywhere as the cross-cutting instrumentation sidecar.  simd as a
/// *target* is owned by the intrinsic rule and returns true here to
/// avoid double-reporting.
bool layer_edge_ok(const std::string& from, const std::string& to) {
  if (to == "simd") return true;   // intrinsic rule owns this boundary
  if (to == "obs") return true;    // instrumentation is cross-cutting
  if (to == "ref") return false;   // production code never calls oracles
  const int rf = module_rank(from);
  const int rt = module_rank(to);
  if (rf < 0 || rt < 0) return true;  // unknown module: out of scope
  return rt <= rf;
}

void analysis_layer(const Context& ctx, const RepoModel& model) {
  for (const auto& file : model.files) {
    const std::string& m = file.module_name;
    // ref's own includes are owned by oracle-include; non-src files
    // (tools, tests, bench, examples) sit above the whole DAG.
    if (m.empty() || m == "ref") continue;
    std::set<std::pair<int, std::string>> seen;
    for (const auto& [line, target_rel] : file.includes) {
      const std::string t = module_of(target_rel);
      if (t.empty() || t == m) continue;
      if (layer_edge_ok(m, t)) continue;
      if (!seen.insert({line, t}).second) continue;
      if (t == "ref") {
        report(ctx, file.rel, line, "layer",
               "production module '" + m +
                   "' depends on the src/ref/ oracles (include \"" +
                   target_rel +
                   "\"); oracles pin the code, the code never calls "
                   "its own oracle");
      } else {
        report(ctx, file.rel, line, "layer",
               "module '" + m + "' may not depend on module '" + t +
                   "' (include \"" + target_rel +
                   "\"); declared DAG: " + kDagSpec);
      }
    }
    for (const auto& ref : file.ns_refs) {
      const std::string& t = ref.module_ns;
      if (t.empty() || t == m) continue;
      if (layer_edge_ok(m, t)) continue;
      if (!seen.insert({ref.line, t}).second) continue;
      if (t == "ref") {
        report(ctx, file.rel, ref.line, "layer",
               "production module '" + m +
                   "' references the src/ref/ oracle namespace; oracles "
                   "pin the code, the code never calls its own oracle");
      } else {
        report(ctx, file.rel, ref.line, "layer",
               "module '" + m + "' references symbol in module '" + t +
                   "' against the declared DAG: " + kDagSpec);
      }
    }
  }
}

// ---------------------------------------------------------------------
// unordered: hash-order iteration on a call path to an artifact
// writer.
// ---------------------------------------------------------------------

void analysis_unordered(const Context& ctx, const RepoModel& model) {
  for (std::size_t f = 0; f < model.files.size(); ++f) {
    const auto& file = model.files[f];
    // Tests may iterate scratch containers into scratch files; the
    // committed artifacts are produced by src/, tools/ and bench/.
    if (starts_with(file.rel, "tests/")) continue;
    for (const auto& iter : file.unordered_iters) {
      if (iter.func < 0) continue;
      const int id = model.global_fn(static_cast<int>(f), iter.func);
      if (id < 0 || !model.reaches_sink[static_cast<std::size_t>(id)]) {
        continue;
      }
      const auto& fn =
          file.functions[static_cast<std::size_t>(iter.func)];
      report(ctx, file.rel, iter.line, "unordered",
             "iteration over unordered container '" + iter.container +
                 "' in '" + fn.qname +
                 "', which reaches artifact writer '" +
                 model.sink_via[static_cast<std::size_t>(id)] +
                 "'; hash order leaks into a committed artifact — use a "
                 "sorted container or sort before emitting");
    }
  }
}

// ---------------------------------------------------------------------
// float-accum: float += in a loop outside the canonical simd schedule.
// A file-scope rule: collects float-typed scalar declarations, then
// replays the rule_obs-style loop tracker to catch accumulation inside
// loop regions.
// ---------------------------------------------------------------------

void rule_float_accum(const Context& ctx, const LexedFile& file) {
  if (!starts_with(file.rel, "src/") ||
      starts_with(file.rel, "src/nn/simd/")) {
    return;
  }
  // Pass 1: float-typed scalar names.  `float\s+name` followed by an
  // initializer/terminator; `float*`, `float&` and `vector<float>` do
  // not match (star/ref breaks the adjacency, '<' is excluded before).
  static const std::regex kFloatDecl(
      R"((^|[^\w.<>:])float\s+([A-Za-z_]\w*)\s*[=;{,)])");
  std::set<std::string> float_names;
  for (const auto& line : file.lines) {
    auto it = std::sregex_iterator(line.code.begin(), line.code.end(),
                                   kFloatDecl);
    for (; it != std::sregex_iterator(); ++it) {
      float_names.insert((*it)[2].str());
    }
  }
  if (float_names.empty()) return;

  // Pass 2: loop tracking (same brace discipline as rule_obs) and
  // `name +=` detection against the collected set.
  int loop_depth = 0;
  std::vector<bool> loop_stack;
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& code = file.lines[i].code;

    std::size_t pos = code.find("+=");
    while (pos != std::string::npos) {
      // Walk back over whitespace, then over the identifier.
      std::size_t e = pos;
      while (e > 0 && code[e - 1] == ' ') --e;
      std::size_t b = e;
      while (b > 0 && is_ident_char(code[b - 1])) --b;
      const std::string name = code.substr(b, e - b);
      const char before = b > 0 ? code[b - 1] : '\0';
      const bool bare = before != '.' && before != '>' && before != ']' &&
                        before != ')' && before != ':';
      if (bare && float_names.count(name)) {
        const std::string head = code.substr(0, b);
        const bool loop_on_line =
            find_token(head, "for") != std::string::npos ||
            find_token(head, "while") != std::string::npos;
        if (loop_depth > 0 || loop_on_line) {
          report(ctx, file.rel, static_cast<int>(i), "float-accum",
                 "float accumulator '" + name +
                     "' gains error per iteration; accumulate in double "
                     "(round once at the end) — only the src/nn/simd/ "
                     "canonical schedule may accumulate in float");
        }
      }
      pos = code.find("+=", pos + 2);
    }

    // Brace state update (paren-aware; mirrors rule_obs).
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
        scan_from = p + 1;
      }
    }
  }
}

// ---------------------------------------------------------------------
// rng-stream / atomic-order: v2 token rules (file-scope).
// ---------------------------------------------------------------------

void rule_rng_stream(const Context& ctx, const LexedFile& file) {
  if (!starts_with(file.rel, "src/") || file.rel == "src/util/rng.hpp") {
    return;
  }
  static const char* kTokens[] = {
      "std::mt19937",         "std::mt19937_64",
      "std::minstd_rand",     "std::minstd_rand0",
      "std::default_random_engine",
      "std::uniform_int_distribution",
      "std::uniform_real_distribution",
      "std::normal_distribution",
      "std::bernoulli_distribution",
      "std::poisson_distribution",
      "std::exponential_distribution",
      "std::geometric_distribution",
      "std::discrete_distribution"};
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& code = file.lines[i].code;
    if (code.find("std::") == std::string::npos) continue;
    for (const char* tok : kTokens) {
      if (find_token(code, tok) != std::string::npos) {
        report(ctx, file.rel, static_cast<int>(i), "rng-stream",
               std::string("raw engine/distribution '") + tok +
                   "' outside util/rng.hpp; draw from a seeded Rng "
                   "stream so replays stay bit-identical");
      }
    }
  }
}

void rule_atomic_order(const Context& ctx, const LexedFile& file) {
  if (!starts_with(file.rel, "src/") || starts_with(file.rel, "src/obs/")) {
    return;
  }
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    if (find_token(file.lines[i].code, "memory_order_relaxed") !=
        std::string::npos) {
      report(ctx, file.rel, static_cast<int>(i), "atomic-order",
             "memory_order_relaxed outside the src/obs/ metric shards; "
             "justify the ordering argument with '// drift-lint: "
             "allow(atomic-order) — <why relaxed is sound here>'");
    }
  }
}

// ---------------------------------------------------------------------
// race: parallel lambda mutating shared state through a by-reference
// capture.
// ---------------------------------------------------------------------

/// Names declared inside the lambda body (plus its parameters): writes
/// to these are thread-private.  Over-inclusive by design — a name
/// that *looks* declared anywhere in the body is treated as local.
std::set<std::string> body_locals(const ParallelSite& site) {
  std::set<std::string> locals(site.params.begin(), site.params.end());
  static const std::regex kDecl(
      R"((?:^|[;{(,]|\bfor\s*\()\s*(?:const\s+)?[A-Za-z_][\w:]*)"
      R"((?:\s*<[^<>;{}]*>)?(?:\s*[&*])?\s+([A-Za-z_]\w*)\s*(?:=[^=]|;|\{|:|,|\)))");
  auto it = std::sregex_iterator(site.body.begin(), site.body.end(), kDecl);
  for (; it != std::sregex_iterator(); ++it) {
    locals.insert((*it)[1].str());
  }
  return locals;
}

void analysis_race(const Context& ctx, const RepoModel& model) {
  for (const auto& file : model.files) {
    if (!starts_with(file.rel, "src/")) continue;
    for (const auto& site : file.parallel_sites) {
      if (site.captures.find('&') == std::string::npos) continue;
      if (site.body.empty()) continue;
      const std::set<std::string> locals = body_locals(site);
      std::set<std::string> flagged;  // one diagnostic per name per site
      const std::string& body = site.body;
      for (std::size_t p = 0; p < body.size();) {
        if (!is_ident_char(body[p]) ||
            (std::isdigit(static_cast<unsigned char>(body[p])) &&
             (p == 0 || !is_ident_char(body[p - 1])))) {
          ++p;
          continue;
        }
        std::size_t b = p;
        while (p < body.size() && is_ident_char(body[p])) ++p;
        const std::string name = body.substr(b, p - b);
        // Skip prefixed (member/qualified/deref) and non-bare uses;
        // subscripted writes (`slots[i] = ...`) never present a bare
        // ident before the operator, so disjoint-slot indexing passes.
        std::size_t pb = b;
        while (pb > 0 && body[pb - 1] == ' ') --pb;
        const char before = pb > 0 ? body[pb - 1] : '\0';
        if (before == '.' || before == '>' || before == ']' ||
            before == ')' || before == '*' || before == ':' ||
            before == '&') {
          continue;
        }
        if (is_cpp_keyword(name) || locals.count(name)) continue;
        // Operator after the ident (skipping whitespace).
        std::size_t a = p;
        while (a < body.size() && (body[a] == ' ' || body[a] == '\n')) ++a;
        bool write = false;
        if (a < body.size()) {
          const char c0 = body[a];
          const char c1 = a + 1 < body.size() ? body[a + 1] : '\0';
          if (c0 == '=' && c1 != '=') {
            write = true;
          } else if ((c0 == '+' || c0 == '-') && c1 == c0) {
            write = true;  // x++ / x--
          } else if ((c0 == '+' || c0 == '-' || c0 == '*' || c0 == '/' ||
                      c0 == '%' || c0 == '&' || c0 == '|' || c0 == '^') &&
                     c1 == '=') {
            write = true;  // compound assignment
          }
        }
        if (!write || !flagged.insert(name).second) continue;
        const int line =
            site.body_begin +
            static_cast<int>(std::count(body.begin(),
                                        body.begin() +
                                            static_cast<std::ptrdiff_t>(b),
                                        '\n'));
        report(ctx, file.rel, line, "race",
               "parallel lambda writes captured-by-reference '" + name +
                   "' from every worker; use an atomic, a per-worker "
                   "slot indexed by the loop variable, or a reduction");
      }
    }
  }
}

// ---------------------------------------------------------------------
// dead-api: exported header symbol with zero cross-TU references.  A
// reference from tests/ or src/ref/ counts only for a src/ref/ oracle,
// which exists for its tests; production code must be reached by a
// binary's code, and an oracle that restates it is not one.
// ---------------------------------------------------------------------

void analysis_dead_api(const Context& ctx, const RepoModel& model) {
  const auto is_test_side = [](const FileSyms& f) {
    return starts_with(f.rel, "tests/") || starts_with(f.rel, "src/ref/");
  };
  // Every callee name seen in any extracted function body, split by
  // whether the caller is a test or an oracle.  A call site in the
  // paired .cpp is a real use (the accessor feeds its own module's
  // implementation), even though the pair's ident set is excluded below
  // so the definition line itself does not count.
  std::set<std::string> called;
  std::set<std::string> test_called;
  for (const auto& f : model.files) {
    std::set<std::string>& into = is_test_side(f) ? test_called : called;
    for (const auto& fn : f.functions) {
      into.insert(fn.calls.begin(), fn.calls.end());
    }
  }
  for (const auto& file : model.files) {
    if (!file.is_header || !starts_with(file.rel, "src/")) continue;
    const bool oracle = starts_with(file.rel, "src/ref/");
    // The implementation file sharing the header's stem is the same
    // logical TU: a reference there does not make the symbol public.
    std::string pair_cpp = file.rel;
    const std::size_t dot = pair_cpp.rfind('.');
    if (dot != std::string::npos) pair_cpp.replace(dot, std::string::npos, ".cpp");

    std::set<std::string> handled;  // dedup overload sets per header
    for (const auto& fn : file.functions) {
      if (!fn.exported || fn.is_template || fn.is_virtual) continue;
      if (fn.name.size() < 4 || all_caps(fn.name) || fn.name[0] == '_' ||
          fn.name == "main") {
        continue;
      }
      // detail:: namespaces are internal by convention; their symbols
      // are typically reached through macros the extractor cannot see.
      if (fn.qname.find("detail::") != std::string::npos) continue;
      if (!handled.insert(fn.name).second) continue;

      bool referenced = called.count(fn.name) != 0 ||
                        (oracle && test_called.count(fn.name) != 0);
      // Cross-TU: the name appears anywhere in another walked file.
      for (const auto& other : model.files) {
        if (referenced) break;
        if (other.rel == file.rel || other.rel == pair_cpp) continue;
        if (!oracle && is_test_side(other)) continue;
        if (other.idents.count(fn.name)) {
          referenced = true;
          break;
        }
      }
      if (referenced) continue;
      report(ctx, file.rel, fn.decl_line, "dead-api",
             "exported symbol '" + fn.qname +
                 "' has no reference outside its own translation unit" +
                 (oracle ? "" : ", tests/ and src/ref/") +
                 "; delete it, make it internal, move it next to its "
                 "test, or justify with "
                 "'// drift-lint: allow(dead-api) — <why it stays>'");
    }
  }
}

}  // namespace

void add_graph_rules(std::vector<Rule>& rules) {
  rules.push_back({"layer",
                   "cross-module references respect the declared module DAG "
                   "(util -> tensor/stats -> core/nn/dram/energy/systolic -> "
                   "graph -> accel -> obs -> serve; ref isolated; simd "
                   "sealed; obs reachable from everywhere)",
                   nullptr, analysis_layer});
  rules.push_back({"unordered",
                   "no unordered-container iteration on a call path that "
                   "reaches an artifact writer",
                   nullptr, analysis_unordered});
  rules.push_back({"float-accum",
                   "float accumulation loops are confined to the "
                   "src/nn/simd/ canonical schedule; everything else "
                   "accumulates in double",
                   rule_float_accum, nullptr});
  rules.push_back({"rng-stream",
                   "randomness flows through seeded util/rng.hpp Rng "
                   "streams, never raw std engines/distributions",
                   rule_rng_stream, nullptr});
  rules.push_back({"race",
                   "parallel lambdas never write by-reference captures "
                   "without atomics or disjoint-slot indexing",
                   nullptr, analysis_race});
  rules.push_back({"atomic-order",
                   "relaxed atomics are confined to src/obs/ shards unless "
                   "explicitly justified",
                   rule_atomic_order, nullptr});
  rules.push_back({"dead-api",
                   "every exported (header, cross-TU visible) symbol has at "
                   "least one reference outside its own translation unit; "
                   "a reference from tests/ or src/ref/ counts only for a "
                   "src/ref/ oracle",
                   nullptr, analysis_dead_api});
}

}  // namespace drift::lint
