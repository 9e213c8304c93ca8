// Seeded mutation fuzzer for the JSON module (src/util/json) and the
// topology front end built on it (src/graph: json_topology, validate,
// infer_shapes, to_workload).
//
// The corpus is every JSON file the tree reads back: the model-zoo
// topologies, the drift_report fixtures, the obs metrics golden, the
// serving sweep drift_report summarizes and the kernel-sweep baseline.  Each case mutates corpus
// files with byte flips, inserts and deletes, truncation, numbers beyond
// int64/double range spliced over number tokens, and wrapping in up to
// 100k brackets, then checks:
//   1. nothing crashes (run it under ASan+UBSan);
//   2. a rejection carries a message and a byte offset <= the input
//      size, and any input opening more than kMaxJsonDepth containers
//      is rejected;
//   3. on accepted input, c = write_canonical(parse_json(x)) parses
//      again and re-emits exactly c;
//   4. a topology mutant that parses goes through validate, then
//      infer_shapes, then to_workload, and each stage returns errors
//      or succeeds, never throws.
// Seeds and case counts follow tests/proptest (DRIFT_PROPTEST_SEED,
// DRIFT_PROPTEST_ITERS).  Plain tests pin what random mutants reach only
// by luck: edge literals, the exact depth cap, out-of-range numbers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "graph/json_topology.hpp"
#include "graph/ops.hpp"
#include "graph/workload_export.hpp"
#include "proptest/proptest_gtest.hpp"
#include "util/json.hpp"

namespace drift {
namespace {

/// Mutants derived from each case's seed.
constexpr int kMutantsPerCase = 8;

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// The *.json files of `dir` (relative to the source root), sorted so
/// the corpus order, and with it every case, is the same on every host.
std::vector<std::string> json_files_in(const std::string& dir) {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(DRIFT_SOURCE_DIR) / dir)) {
    if (entry.path().extension() == ".json") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> texts;
  for (const auto& path : paths) texts.push_back(read_file(path));
  return texts;
}

const std::vector<std::string>& topology_corpus() {
  static const std::vector<std::string> corpus =
      json_files_in("examples/model_zoo");
  return corpus;
}

const std::vector<std::string>& json_corpus() {
  static const std::vector<std::string> corpus = [] {
    std::vector<std::string> all = topology_corpus();
    for (std::string& text : json_files_in("tests/report/fixtures")) {
      all.push_back(std::move(text));
    }
    const std::filesystem::path root(DRIFT_SOURCE_DIR);
    all.push_back(read_file(root / "tests/obs/golden/metrics.json"));
    all.push_back(read_file(root / "serving_study.json"));
    all.push_back(read_file(root / "bench/baseline.json"));
    return all;
  }();
  return corpus;
}

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// One mutant of `text`.  `wrap` is set to the number of brackets the
/// mutant opens before anything else (0 when it is not wrapped).
std::string mutate(Rng& rng, std::string text, int size, int& wrap) {
  static constexpr std::string_view kHugeNumbers[] = {
      "1e400", "-1e400", "99999999999999999999"};
  static constexpr std::string_view kSyntaxBytes = "{}[]\",:\\-.eE019 tfnu";
  const int edits = 1 + static_cast<int>(rng.uniform_int(0, size / 4));
  for (int e = 0; e < edits; ++e) {
    const std::size_t at = pick(rng, text.size() + 1);
    const double kind = rng.uniform();
    if (kind < 0.4) {
      // Splice a huge number over the number token at or after `at`
      // (inserted as is when there is none).
      const std::string_view huge = kHugeNumbers[pick(rng, 3)];
      std::size_t first = text.find_first_of("-0123456789", at);
      if (first == std::string::npos) {
        text.insert(std::min(at, text.size()), huge);
        continue;
      }
      std::size_t last = first + 1;
      while (last < text.size() &&
             std::string_view("0123456789.eE+-").find(text[last]) !=
                 std::string_view::npos) {
        ++last;
      }
      text.replace(first, last - first, huge);
    } else if (kind < 0.6 && at < text.size()) {
      text[at] = static_cast<char>(text[at] ^ (1 << rng.uniform_int(0, 7)));
    } else if (kind < 0.75) {
      const char byte =
          rng.bernoulli(0.5)
              ? kSyntaxBytes[pick(rng, kSyntaxBytes.size())]
              : static_cast<char>(rng.uniform_int(0, 255));
      text.insert(at, 1, byte);
    } else if (kind < 0.9) {
      text.erase(at, static_cast<std::size_t>(rng.uniform_int(1, 8)));
    } else {
      text.resize(at);
    }
  }
  wrap = 0;
  if (rng.bernoulli(0.2)) {
    static constexpr int kDepths[] = {1, 2, kMaxJsonDepth - 1, kMaxJsonDepth,
                                      kMaxJsonDepth + 1, 1000, 100000};
    wrap = kDepths[pick(rng, std::size(kDepths))];
    // Objects nest through a key: {"k":{"k":...}}.
    const bool objects = rng.bernoulli(0.5);
    std::string wrapped;
    for (int d = 0; d < wrap; ++d) wrapped += objects ? "{\"k\":" : "[";
    wrapped += text;
    if (rng.bernoulli(0.5)) {
      wrapped.append(static_cast<std::size_t>(wrap), objects ? '}' : ']');
    }
    text = std::move(wrapped);
  }
  return text;
}

proptest::Result check_json(const std::string& text, int wrap) {
  JsonError error;
  const std::optional<JsonValue> doc = parse_json(text, error);
  if (!doc) {
    if (error.offset > text.size()) {
      return proptest::fail("error offset ", error.offset,
                            " beyond the input size ", text.size(), ": ",
                            error.message);
    }
    if (error.message.empty()) return proptest::fail("error without text");
    return proptest::pass();
  }
  if (wrap > kMaxJsonDepth) {
    return proptest::fail("accepted ", wrap, " nested containers");
  }
  const std::string canonical = write_canonical(*doc);
  const std::optional<JsonValue> again = parse_json(canonical, error);
  if (!again) {
    return proptest::fail("canonical output rejected: ", error.what(), "\n",
                          canonical);
  }
  if (write_canonical(*again) != canonical) {
    return proptest::fail("write_canonical ∘ parse_json is not a fixed "
                          "point on\n",
                          canonical);
  }
  return proptest::pass();
}

TEST(PropJson, MutantsNeverCrashAndAcceptedOnesReachAFixedPoint) {
  const auto& corpus = json_corpus();
  ASSERT_GE(corpus.size(), 20u);
  proptest::gtest_check([&corpus](Rng& rng, int size) -> proptest::Result {
    for (int m = 0; m < kMutantsPerCase; ++m) {
      int wrap = 0;
      const std::string mutant =
          mutate(rng, corpus[pick(rng, corpus.size())], size, wrap);
      if (auto failure = check_json(mutant, wrap)) return failure;
    }
    return proptest::pass();
  });
}

/// Runs an accepted topology through the front end drift_graph runs
/// before any work: validate, infer_shapes, to_workload.
proptest::Result check_front_end(const graph::Graph& g,
                                 const std::string& mutant) {
  try {
    if (!graph::validate(g).empty()) return proptest::pass();
    const graph::ShapeResult shapes = graph::infer_shapes(g);
    if (!shapes.ok()) return proptest::pass();
    graph::to_workload(g, shapes);
  } catch (const std::exception& e) {
    return proptest::fail("front end threw: ", e.what(), "\non\n", mutant);
  }
  return proptest::pass();
}

// The name is historical: the property fuzzes the topology front end.
TEST(PropJson, TopologyMutantsRoundTripThroughTheEmitter) {
  const auto& corpus = topology_corpus();
  ASSERT_EQ(corpus.size(), 5u);
  proptest::gtest_check([&corpus](Rng& rng, int size) -> proptest::Result {
    for (int m = 0; m < kMutantsPerCase; ++m) {
      int wrap = 0;
      const std::string mutant =
          mutate(rng, corpus[pick(rng, corpus.size())], size, wrap);
      const graph::TopologyParseResult parsed = graph::parse_topology(mutant);
      if (!parsed.ok()) continue;
      if (auto failure = check_front_end(parsed.graph, mutant)) {
        return failure;
      }
    }
    return proptest::pass();
  });
}

TEST(PropJson, EdgeLiteralsReachAFixedPoint) {
  // Literals the random mutants reach only by luck: negative zero (an
  // int64 cannot hold it, so it reads as a double), out-of-range
  // numbers, escapes of every kind, and a raw control byte.
  const char* const kDocs[] = {
      "-0", "[-0, -0.0, 0e5]", "[1e400, -1e400, 1e-400, -1e-400]",
      "99999999999999999999", "[1.5e300, 5e-324, 0.1, 1E2, 12.50]",
      "\"\\u0000\\u001f\\u00e9\\uffff\\b\\f\\/\"",
      "\"tab\there\rcr\x01\"", "{\"k\": 1, \"k\": 2}"};
  for (const char* doc : kDocs) {
    const proptest::Result failure = check_json(doc, 0);
    EXPECT_FALSE(failure.has_value()) << doc << ": " << failure.value_or("");
  }
}

TEST(PropJson, NestingCapIsExactlyMaxDepth) {
  for (const bool objects : {false, true}) {
    for (const int depth : {kMaxJsonDepth, kMaxJsonDepth + 1}) {
      std::string text;
      for (int d = 0; d < depth; ++d) text += objects ? "{\"k\":" : "[";
      text += "0";
      text.append(static_cast<std::size_t>(depth), objects ? '}' : ']');
      JsonError error;
      const bool accepted = parse_json(text, error).has_value();
      EXPECT_EQ(accepted, depth <= kMaxJsonDepth)
          << depth << (objects ? " objects" : " arrays");
      if (!accepted) {
        // The offset names the opener of the first container too many.
        EXPECT_EQ(error.offset,
                  static_cast<std::size_t>(kMaxJsonDepth) * (objects ? 5 : 1));
      }
    }
  }
}

TEST(PropJson, OutOfRangeLiteralsReadAsSignedInfinityOrZero) {
  const struct {
    const char* text;
    double value;
  } kCases[] = {{"1e400", HUGE_VAL},
                {"-1e400", -HUGE_VAL},
                {"1e999", HUGE_VAL},
                {"0.001e312", HUGE_VAL},
                {"1e+99999999999999999999999", HUGE_VAL},
                {"12345e9223372036854775807", HUGE_VAL},
                {"1e-400", 0.0},
                {"-1e-400", -0.0},
                {"1000e-330", 0.0},
                {"1e-99999999999999999999999", 0.0},
                {"99999999999999999999", 1e20}};
  for (const auto& c : kCases) {
    JsonError error;
    const std::optional<JsonValue> v = parse_json(c.text, error);
    ASSERT_TRUE(v.has_value()) << c.text << ": " << error.what();
    EXPECT_EQ(v->kind(), JsonValue::Kind::kDouble) << c.text;
    EXPECT_EQ(v->as_double(), c.value) << c.text;
    EXPECT_EQ(std::signbit(v->as_double()), std::signbit(c.value)) << c.text;
  }
}

}  // namespace
}  // namespace drift
