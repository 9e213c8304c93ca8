// Tests for src/util: checks, CSV, tables, RNG, and the one JSON layout
// of every JSON file the tree writes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace drift {
namespace {

TEST(Check, PassingConditionIsSilent) {
  EXPECT_NO_THROW(DRIFT_CHECK(1 + 1 == 2));
}

TEST(Check, FailingConditionThrowsCheckError) {
  EXPECT_THROW(DRIFT_CHECK(false, "boom"), check_error);
}

TEST(Check, MessageContainsExpressionAndText) {
  try {
    DRIFT_CHECK(2 < 1, "custom context");
    FAIL() << "expected throw";
  } catch (const check_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 < 1"), std::string::npos);
    EXPECT_NE(what.find("custom context"), std::string::npos);
  }
}

TEST(Check, IndexMacroAcceptsValidIndex) {
  EXPECT_NO_THROW(DRIFT_CHECK_INDEX(0, 3));
  EXPECT_NO_THROW(DRIFT_CHECK_INDEX(2, 3));
}

TEST(Check, IndexMacroRejectsOutOfRange) {
  EXPECT_THROW(DRIFT_CHECK_INDEX(3, 3), check_error);
  EXPECT_THROW(DRIFT_CHECK_INDEX(-1, 3), check_error);
}

TEST(Check, EqMacroPassesOnEqualValues) {
  EXPECT_NO_THROW(DRIFT_CHECK_EQ(2 + 2, 4));
  EXPECT_NO_THROW(DRIFT_CHECK_EQ(std::string("ab"), "ab", "with message"));
}

TEST(Check, EqMacroMessageShowsBothOperands) {
  const int lhs = 3;
  const int rhs = 5;
  try {
    DRIFT_CHECK_EQ(lhs, rhs, "operand context");
    FAIL() << "expected throw";
  } catch (const check_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("DRIFT_CHECK_EQ failed"), std::string::npos);
    EXPECT_NE(what.find("lhs == rhs"), std::string::npos);
    EXPECT_NE(what.find("(3 vs 5)"), std::string::npos);
    EXPECT_NE(what.find("operand context"), std::string::npos);
  }
}

TEST(Check, LeMacroAcceptsBoundary) {
  EXPECT_NO_THROW(DRIFT_CHECK_LE(4, 4));
  EXPECT_NO_THROW(DRIFT_CHECK_LE(3, 4, "with message"));
}

TEST(Check, LeMacroMessageShowsBothOperands) {
  try {
    DRIFT_CHECK_LE(9, 2);
    FAIL() << "expected throw";
  } catch (const check_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("DRIFT_CHECK_LE failed"), std::string::npos);
    EXPECT_NE(what.find("(9 vs 2)"), std::string::npos);
  }
}

TEST(Check, OpMacroEvaluatesOperandsOnce) {
  int calls = 0;
  const auto bump = [&calls] { return ++calls; };
  DRIFT_CHECK_EQ(bump(), 1, "single evaluation");
  EXPECT_EQ(calls, 1);
}

namespace {
struct Unprintable {
  bool operator==(const Unprintable&) const { return false; }
};
}  // namespace

TEST(Check, UnprintableOperandsDegradeGracefully) {
  try {
    DRIFT_CHECK_EQ(Unprintable{}, Unprintable{});
    FAIL() << "expected throw";
  } catch (const check_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("<unprintable>"), std::string::npos);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, ForkStreamsAreIndependentAndDeterministic) {
  Rng base(7);
  Rng f1 = base.fork(1);
  Rng f2 = base.fork(2);
  Rng f1_again = Rng(7).fork(1);
  EXPECT_DOUBLE_EQ(f1.uniform(), f1_again.uniform());
  EXPECT_NE(f1.uniform(), f2.uniform());
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 5.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, LaplaceSampleMomentsMatchTheory) {
  Rng rng(11);
  const double b = 1.7;
  double sum = 0.0, sum_abs = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.laplace(b);
    sum += x;
    sum_abs += std::abs(x);
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);       // zero mean
  EXPECT_NEAR(sum_abs / n, b, b * 0.02); // E|X| = b
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = "test_csv_out.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    csv.row({"1", "2"});
    csv.row_values(3.5, "x");
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::getline(in, line);
  EXPECT_EQ(line, "3.5,x");
  std::remove(path.c_str());
}

TEST(Csv, EscapesCommasAndQuotes) {
  const std::string path = "test_csv_escape.csv";
  {
    CsvWriter csv(path, {"v"});
    csv.row({"hello, world"});
    csv.row({"say \"hi\""});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // header
  std::getline(in, line);
  EXPECT_EQ(line, "\"hello, world\"");
  std::getline(in, line);
  EXPECT_EQ(line, "\"say \"\"hi\"\"\"");
  std::remove(path.c_str());
}

TEST(Csv, RowWidthMismatchThrows) {
  const std::string path = "test_csv_width.csv";
  CsvWriter csv(path, {"a", "b"});
  EXPECT_THROW(csv.row({"only-one"}), check_error);
  std::remove(path.c_str());
}

TEST(Table, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "2.5"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("longer-name"), std::string::npos);
  EXPECT_NE(s.find("| name "), std::string::npos);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(TextTable::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::pct(0.824, 1), "82.4%");
  EXPECT_EQ(TextTable::ratio(2.85), "2.85x");
}

TEST(Table, RowWidthMismatchThrows) {
  TextTable t({"a"});
  EXPECT_THROW(t.add_row({"1", "2"}), check_error);
}

TEST(Json, ArrayStreamLaysOutAsWriteCanonical) {
  JsonObject event;
  event["name"] = JsonValue(std::string("a\tb"));
  event["dur"] = JsonValue(std::int64_t{7});
  event["args"] = JsonValue(JsonObject{});
  const std::vector<JsonValue> elements = {
      JsonValue(std::move(event)), JsonValue(2.5), JsonValue(JsonArray{})};
  for (std::size_t n = 0; n <= elements.size(); ++n) {
    CanonicalArrayStream stream("traceEvents");
    JsonArray array;
    for (std::size_t i = 0; i < n; ++i) {
      stream.add(elements[i]);
      array.push_back(elements[i]);
    }
    JsonObject doc;
    doc["traceEvents"] = JsonValue(std::move(array));
    EXPECT_EQ(stream.finish(), write_canonical(JsonValue(std::move(doc))))
        << n << " elements";
  }
}

TEST(Json, CommittedArtifactsAreCanonical) {
  // Every JSON file the tree's code writes is laid out by
  // write_canonical, so re-canonicalizing a committed one is a no-op.
  const std::filesystem::path root(DRIFT_SOURCE_DIR);
  std::vector<std::filesystem::path> files = {
      root / "tests/obs/golden/metrics.json",
      root / "tests/graph/golden/resnet18.json",
      root / "tests/graph/golden/gpt2_layer.json",
      root / "tests/serve/golden/serve_metrics.json",
      root / "tests/lint/expected.json",
      root / "tests/lint/expected.sarif",
      root / "serving_study.json",
      root / "BENCH_kernels.json"};
  for (const auto& entry :
       std::filesystem::directory_iterator(root / "tests/report/golden")) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const std::filesystem::path& path : files) {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.is_open()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    JsonError error;
    const std::optional<JsonValue> doc = parse_json(text.str(), error);
    ASSERT_TRUE(doc.has_value()) << path << ": " << error.what();
    EXPECT_EQ(write_canonical(*doc), text.str()) << path;
  }
}

}  // namespace
}  // namespace drift
