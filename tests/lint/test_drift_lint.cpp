// Tests for tools/lint/drift_lint against the fixture corpus in
// tests/lint/fixtures (one file per rule with known violation lines, a
// clean file, a fully suppressed file, and suppression-hygiene cases).
//
// The linter's JSON output is asserted byte-for-byte against
// expected.json: any rule change that shifts a line number, message, or
// ordering must update the golden file consciously.
//
// Paths are injected by tests/lint/CMakeLists.txt:
//   DRIFT_LINT_BIN             built drift_lint binary
//   DRIFT_LINT_FIXTURES        fixture corpus root
//   DRIFT_LINT_EXPECTED        golden JSON for the full corpus
//   DRIFT_LINT_EXPECTED_SARIF  golden SARIF 2.1.0 for the full corpus
//   DRIFT_LINT_RATCHET_FIXTURE per-rule budgets equal to the corpus counts
//   DRIFT_LINT_RATCHET_ZERO    the committed all-zero repo baseline
//   DRIFT_LINT_RATCHET_MALFORMED  an unterminated, malformed ratchet file
//   DRIFT_LINT_REPO_ROOT       the real repository root (self-analysis)
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  ///< stdout only; stderr goes to the test log
};

RunResult run_lint(const std::string& args) {
  const std::string cmd = std::string(DRIFT_LINT_BIN) + " " + args;
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "failed to spawn: " << cmd;
  RunResult result;
  if (!pipe) return result;
  char buf[4096];
  while (std::size_t n = fread(buf, 1, sizeof buf, pipe)) {
    result.output.append(buf, n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string fixtures_root() { return DRIFT_LINT_FIXTURES; }

TEST(DriftLint, JsonOutputMatchesGoldenFileExactly) {
  const RunResult r =
      run_lint("--root " + fixtures_root() + " --format=json src tools tests");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(r.output, read_file(DRIFT_LINT_EXPECTED));
}

TEST(DriftLint, SarifOutputMatchesGoldenFileExactly) {
  const RunResult r =
      run_lint("--root " + fixtures_root() + " --format=sarif src tools tests");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(r.output, read_file(DRIFT_LINT_EXPECTED_SARIF));
}

TEST(DriftLint, RatchetWithinBudgetExitsZero) {
  // The fixture ratchet grants exactly the corpus's per-rule counts, so
  // the run reports violations but the gate passes.
  const RunResult r = run_lint("--root " + fixtures_root() +
                               " --format=json --ratchet " +
                               DRIFT_LINT_RATCHET_FIXTURE +
                               " src tools tests 2>/dev/null");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(DriftLint, RatchetExceededExitsOne) {
  // The committed repo baseline is all zeros; the fixture corpus blows
  // through every budget.
  const RunResult r = run_lint("--root " + fixtures_root() +
                               " --format=json --ratchet " +
                               DRIFT_LINT_RATCHET_ZERO +
                               " src tools tests 2>/dev/null");
  EXPECT_EQ(r.exit_code, 1) << r.output;
}

TEST(DriftLint, MissingRatchetFileExitsTwo) {
  const RunResult r =
      run_lint("--root " + fixtures_root() +
               " --ratchet /nonexistent/ratchet.json src 2>/dev/null");
  EXPECT_EQ(r.exit_code, 2);
}

TEST(DriftLint, MalformedRatchetFileExitsTwo) {
  // ratchet_malformed.json is unterminated and has stray commas; the gate
  // must refuse it rather than pass with whatever budgets it can find.
  const std::string scan =
      "--root " + fixtures_root() + " --format=json --ratchet ";
  RunResult r = run_lint(scan + DRIFT_LINT_RATCHET_MALFORMED +
                         " tests 2>&1 >/dev/null");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("JSON error at byte 13"), std::string::npos)
      << r.output;

  // Well-formed JSON that is not a map of non-negative budgets exits 2
  // too, naming the offending key.
  const std::string path = ::testing::TempDir() + "drift_lint_ratchet.json";
  const struct {
    const char* text;
    const char* named;
  } kCases[] = {{"[1, 2]", "top level"},
                {"{\"thread\": -1}", "'thread'"},
                {"{\"thread\": 1.5}", "'thread'"},
                {"{\"random\": \"0\"}", "'random'"}};
  for (const auto& c : kCases) {
    {
      std::ofstream out(path, std::ios::binary);
      out << c.text;
    }
    r = run_lint(scan + path + " tests 2>&1 >/dev/null");
    EXPECT_EQ(r.exit_code, 2) << c.text << "\n" << r.output;
    EXPECT_NE(r.output.find(c.named), std::string::npos)
        << c.text << "\n" << r.output;
  }
  std::remove(path.c_str());
}

TEST(DriftLint, SelfAnalysisIsClean) {
  // The analyzer must hold itself to its own rules.
  const RunResult r =
      run_lint(std::string("--root ") + DRIFT_LINT_REPO_ROOT + " tools/lint");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(DriftLint, CleanDirectoryExitsZero) {
  // fixtures/tests holds only clean files.
  const RunResult r =
      run_lint("--root " + fixtures_root() + " --format=json tests");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"violation_count\": 0"), std::string::npos)
      << r.output;
}

TEST(DriftLint, TextFormatReportsFileLineAndRule) {
  const RunResult r = run_lint("--root " + fixtures_root() + " src");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("src/core/narrow_viol.cpp:5: [narrow]"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("src/thread_viol.cpp:6: [thread]"),
            std::string::npos)
      << r.output;
}

TEST(DriftLint, CleanAndSuppressedFilesProduceNoFindings) {
  const RunResult r = run_lint("--root " + fixtures_root() + " src");
  EXPECT_EQ(r.output.find("clean.cpp"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("suppressed.cpp"), std::string::npos) << r.output;
}

TEST(DriftLint, UnknownFlagExitsWithUsageError) {
  const RunResult r = run_lint("--definitely-not-a-flag 2>/dev/null");
  EXPECT_EQ(r.exit_code, 2);
}

}  // namespace
