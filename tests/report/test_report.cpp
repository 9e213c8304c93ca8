// drift_report CLI tests, driven in-process through run_cli() so every
// assertion covers the exact binary behavior (exit codes, stdout
// bytes).
//
// Three groups:
//   1. Byte-exact goldens: `summarize` text and canonical-JSON output
//      on the checked-in fixture artifact must match
//      tests/report/golden/.  Regenerate after an intentional change:
//        DRIFT_REPORT_UPDATE_GOLDEN=1 ./build/tests/report/drift_report_tests
//   2. Exit-code matrices for diff / ratchet on fixture pairs,
//      including the two acceptance checks: two fixed-seed runs of the
//      real pipeline diff clean (exit 0), and a doctored 2x-slowdown
//      BENCH_kernels.json fails the ratchet (exit 1); a zero-ops
//      kernel's infinite slowdown survives the --json round trip.
//   3. Graceful degradation: an empty (DRIFT_OBS_OFF-style) artifact
//      summarizes with exit 0 and an explicit "no run data" note.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "core/quantizer.hpp"
#include "core/scheduler.hpp"
#include "core/selector.hpp"
#include "obs/metrics.hpp"
#include "proptest/proptest.hpp"
#include "systolic/cycle_sim.hpp"
#include "tensor/subtensor.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace drift::report {
namespace {

std::string fixture(const std::string& name) {
  return std::string(DRIFT_REPORT_FIXTURE_DIR) + "/" + name;
}

std::string golden_path(const std::string& name) {
  return std::string(DRIFT_REPORT_GOLDEN_DIR) + "/" + name;
}

std::string read_file_or_empty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Runs the CLI and returns the exit code; `out`/`err` are cleared
/// first so one test can issue several invocations.
int run(const std::vector<std::string>& args, std::string& out,
        std::string& err) {
  out.clear();
  err.clear();
  return run_cli(args, out, err);
}

// ---------------------------------------------------------------------------
// Goldens.

void check_golden(const std::string& name, const std::string& produced) {
  const std::string path = golden_path(name);
  if (std::getenv("DRIFT_REPORT_UPDATE_GOLDEN") != nullptr) {
    ASSERT_TRUE(obs::write_file(path, produced));
    GTEST_SKIP() << "golden regenerated at " << path;
  }
  const std::string golden = read_file_or_empty(path);
  ASSERT_FALSE(golden.empty())
      << "missing golden " << path
      << " — regenerate with DRIFT_REPORT_UPDATE_GOLDEN=1";
  EXPECT_EQ(produced, golden)
      << "drift_report output drifted from the golden; if intentional, "
         "regenerate with DRIFT_REPORT_UPDATE_GOLDEN=1";
}

TEST(ReportGolden, SummarizeTextMatchesGolden) {
  std::string out, err;
  ASSERT_EQ(run({"summarize", fixture("run_a.json"), "--trace",
                 fixture("trace_a.json")},
                out, err),
            0)
      << err;
  check_golden("summary_a.txt", out);
}

TEST(ReportGolden, SummarizeJsonMatchesGolden) {
  std::string out, err;
  ASSERT_EQ(run({"summarize", fixture("run_a.json"), "--trace",
                 fixture("trace_a.json"), "--json"},
                out, err),
            0)
      << err;
  check_golden("summary_a.json", out);
}

// run_serve.json is a fixed-seed serving artifact (the tests/serve
// golden scrape) with a serving_sweep array attached, so these goldens
// cover both the per-request SLO section and the sweep table.
TEST(ReportGolden, SummarizeServingTextMatchesGolden) {
  std::string out, err;
  ASSERT_EQ(run({"summarize", fixture("run_serve.json")}, out, err), 0)
      << err;
  check_golden("summary_serve.txt", out);
}

TEST(ReportGolden, SummarizeServingJsonMatchesGolden) {
  std::string out, err;
  ASSERT_EQ(run({"summarize", fixture("run_serve.json"), "--json"}, out,
                err),
            0)
      << err;
  check_golden("summary_serve.json", out);
}

// ---------------------------------------------------------------------------
// diff exit codes.

TEST(ReportDiff, IdenticalRunsExitZero) {
  std::string out, err;
  EXPECT_EQ(run({"diff", fixture("run_a.json"), fixture("run_a.json")}, out,
                err),
            0)
      << out << err;
}

TEST(ReportDiff, NoiseOnlyDifferencesAreIgnoredByDefault) {
  // run_b differs from run_a only in meta.git_sha and the wall-clock
  // thread_pool.queue_wait_us histogram — exactly the leaves the
  // built-in "meta." and "_us" ignore rules exist for.
  std::string out, err;
  EXPECT_EQ(run({"diff", fixture("run_a.json"), fixture("run_b.json")}, out,
                err),
            0)
      << out << err;
}

TEST(ReportDiff, DivergentCountersExitOne) {
  std::string out, err;
  EXPECT_EQ(run({"diff", fixture("run_a.json"), fixture("run_divergent.json")},
                out, err),
            1);
  EXPECT_NE(out.find("counters.sim.cycles"), std::string::npos) << out;
}

TEST(ReportDiff, ToleranceFileCanAbsorbDivergence) {
  std::string out, err;
  EXPECT_EQ(run({"diff", fixture("run_a.json"), fixture("run_divergent.json"),
                 "--tolerances", fixture("tolerances.json")},
                out, err),
            0)
      << out << err;
}

TEST(ReportDiff, MissingFileExitTwo) {
  std::string out, err;
  EXPECT_EQ(run({"diff", fixture("run_a.json"), fixture("no_such_file.json")},
                out, err),
            2);
  EXPECT_FALSE(err.empty());
}

TEST(ReportDiff, MalformedJsonExitTwo) {
  std::string out, err;
  EXPECT_EQ(run({"diff", fixture("run_a.json"), fixture("malformed.json")},
                out, err),
            2);
  EXPECT_FALSE(err.empty());
}

// ---------------------------------------------------------------------------
// ratchet exit codes.

TEST(ReportRatchet, BaselineAgainstItselfExitZero) {
  std::string out, err;
  EXPECT_EQ(run({"ratchet", fixture("bench_base.json"), "--baseline",
                 fixture("bench_base.json")},
                out, err),
            0)
      << out << err;
}

TEST(ReportRatchet, DoubledSlowdownExitOne) {
  // Acceptance criterion: bench_slow.json is bench_base.json with the
  // 4-thread gemm_lowp kernel doctored to half the ops/s (2x slowdown),
  // which must trip the default 1.5x gate.
  std::string out, err;
  EXPECT_EQ(run({"ratchet", fixture("bench_slow.json"), "--baseline",
                 fixture("bench_base.json")},
                out, err),
            1);
  EXPECT_NE(out.find("gemm_lowp"), std::string::npos) << out;
}

TEST(ReportRatchet, GenerousGateAbsorbsSlowdown) {
  std::string out, err;
  EXPECT_EQ(run({"ratchet", fixture("bench_slow.json"), "--baseline",
                 fixture("bench_base.json"), "--max-slowdown", "4.0"},
                out, err),
            0)
      << out << err;
}

TEST(ReportRatchet, KernelMissingFromRunFailsUntrackedOnlyWarns) {
  // bench_missing drops a baseline kernel (fail: a silently shrunk
  // corpus must not pass) and adds one the baseline has never seen
  // (warn-only).
  std::string out, err;
  EXPECT_EQ(run({"ratchet", fixture("bench_missing.json"), "--baseline",
                 fixture("bench_base.json")},
                out, err),
            1);
  EXPECT_NE(out.find("MISSING"), std::string::npos) << out;
  EXPECT_NE(out.find("unpack_c"), std::string::npos) << out;
}

TEST(ReportRatchet, UntrackedKernelAloneExitZero) {
  // Running the full corpus against a baseline that only knows a
  // subset must pass: new kernels are untracked warnings, not failures.
  std::string out, err;
  EXPECT_EQ(run({"ratchet", fixture("bench_base.json"), "--baseline",
                 fixture("bench_missing.json")},
                out, err),
            1)
      << "bench_missing as baseline also drops a kernel, so this "
         "direction still fails on unpack_c";
  EXPECT_NE(out.find("unpack_c"), std::string::npos) << out;
}

TEST(ReportRatchet, ProptestMismatchesExitOne) {
  std::string out, err;
  EXPECT_EQ(run({"ratchet", fixture("bench_mismatch.json"), "--baseline",
                 fixture("bench_base.json")},
                out, err),
            1);
  EXPECT_NE(out.find("MISMATCH"), std::string::npos) << out;
}

TEST(ReportRatchet, ZeroOpsJsonOutputParsesBack) {
  // bench_zero_ops.json reports 0 ops/s for one kernel, so its slowdown
  // is +inf.  The --json output writes it as 1e999, and the reader must
  // take its own writer's output back as the same infinity.
  std::string out, err;
  EXPECT_EQ(run({"ratchet", fixture("bench_zero_ops.json"), "--baseline",
                 fixture("bench_base.json"), "--json"},
                out, err),
            1)
      << out << err;
  JsonError error;
  const std::optional<JsonValue> doc = parse_json(out, error);
  ASSERT_TRUE(doc.has_value()) << error.what() << "\n" << out;
  const JsonValue* checked = doc->get("checked");
  ASSERT_TRUE(checked != nullptr && checked->is_array()) << out;
  int zero_ops_rows = 0;
  for (const JsonValue& row : checked->as_array()) {
    const JsonValue* current = row.get("current_ops_per_s");
    if (current == nullptr || current->as_double() != 0.0) continue;
    ++zero_ops_rows;
    const JsonValue* slowdown = row.get("slowdown");
    ASSERT_NE(slowdown, nullptr) << out;
    EXPECT_EQ(slowdown->as_double(), std::numeric_limits<double>::infinity());
  }
  EXPECT_EQ(zero_ops_rows, 1) << out;
}

TEST(ReportRatchet, MissingBaselineFlagExitTwo) {
  std::string out, err;
  EXPECT_EQ(run({"ratchet", fixture("bench_base.json")}, out, err), 2);
  EXPECT_FALSE(err.empty());
}

// ---------------------------------------------------------------------------
// Graceful degradation on empty artifacts.

TEST(ReportSummarize, EmptyArtifactExitZeroWithNote) {
  std::string out, err;
  EXPECT_EQ(run({"summarize", fixture("run_empty.json")}, out, err), 0) << err;
  EXPECT_NE(out.find("no run data"), std::string::npos) << out;
}

TEST(ReportSummarize, UnknownFlagExitTwo) {
  std::string out, err;
  EXPECT_EQ(run({"summarize", fixture("run_a.json"), "--frobnicate"}, out,
                err),
            2);
  EXPECT_FALSE(err.empty());
}

// ---------------------------------------------------------------------------
// Acceptance: two fixed-seed runs of the real pipeline diff clean.

/// Miniature of the tests/obs golden workload: selector -> scheduler ->
/// cycle sim under layer scopes, fixed seed, clean registry.  Returns
/// the full (unfiltered) metrics scrape, meta and wall-clock metrics
/// included — the diff's built-in noise rules must absorb those.
std::string run_fixed_workload_and_scrape() {
  obs::Registry::global().reset();
  Rng rng(42);
  for (int li = 0; li < 2; ++li) {
    obs::LayerScope scope("layer" + std::to_string(li));

    const std::int64_t rows = 6 + 2 * li;
    const std::int64_t cols = 32;
    std::vector<float> values(static_cast<std::size_t>(rows * cols));
    for (auto& v : values) v = static_cast<float>(rng.laplace(1.0));
    const auto views = partition_rows(Shape{rows, cols});
    const auto params = core::compute_quant_params(values, core::kInt8);
    core::SelectorConfig cfg;
    cfg.density_threshold = 0.5;
    const core::DynamicQuantizer quantizer(cfg);
    const core::PrecisionMap map = quantizer.select(values, views, params);
    quantizer.apply(values, views, params, map);

    core::LayerWork work;
    work.m_low = proptest::low_subtensors(map);
    work.m_high = rows - work.m_low;
    work.n_high = 20;
    work.n_low = 12;
    work.k = cols;
    (void)core::schedule_greedy(work, core::ArrayDims{8, 8});

    TensorI32 a(Shape{5 + li, 6});
    TensorI32 w(Shape{6, 7});
    for (auto& v : a.data()) {
      v = static_cast<std::int32_t>(rng.uniform_int(-8, 8));
    }
    for (auto& v : w.data()) {
      v = static_cast<std::int32_t>(rng.uniform_int(-8, 8));
    }
    (void)systolic::simulate_gemm(a, w, core::ArrayDims{3, 4});
  }
  return obs::Registry::global().to_json();
}

TEST(ReportDiff, TwoFixedSeedPipelineRunsExitZero) {
  // Works under DRIFT_OBS_OFF too: both scrapes are then equally empty.
  const std::string tmp = ::testing::TempDir();
  const std::string path_a = tmp + "/drift_report_run_a.json";
  const std::string path_b = tmp + "/drift_report_run_b.json";
  ASSERT_TRUE(obs::write_file(path_a, run_fixed_workload_and_scrape()));
  ASSERT_TRUE(obs::write_file(path_b, run_fixed_workload_and_scrape()));

  std::string out, err;
  EXPECT_EQ(run({"diff", path_a, path_b}, out, err), 0) << out << err;
}

}  // namespace
}  // namespace drift::report
