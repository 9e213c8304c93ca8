// Command-line contract of the drivers (label: cli): an unknown choice
// or flag, a malformed boolean, or a number out of its range, is a
// usage error — exit code 2 and a message listing every valid value —
// never a silent fallback to a default, and it writes no artifact; a
// malformed input file or a run that fails is an error exit (1), never
// a crash, and a failed run still flushes parseable partial artifacts.
// drift_graph compare prints every design.
//
// Binary paths are injected by tests/cli/CMakeLists.txt.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "util/json.hpp"

namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;  ///< stdout and stderr together
};

CliResult run(const std::string& binary, const std::string& args) {
  const std::string cmd = binary + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "failed to spawn: " << cmd;
  CliResult result;
  if (!pipe) return result;
  char buf[4096];
  while (std::size_t n = fread(buf, 1, sizeof buf, pipe)) {
    result.output.append(buf, n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

/// Runs `binary args` and expects exit code 2 with `valid` (the list of
/// accepted values) in the message.
void expect_usage_error(const std::string& binary, const std::string& args,
                        const std::string& valid) {
  const CliResult r = run(binary, args);
  EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
  EXPECT_NE(r.output.find(valid), std::string::npos)
      << args << ": message does not list '" << valid << "'\n"
      << r.output;
}

/// ctest runs the cases in parallel, so each names its own files.
std::string temp_path(const std::string& binary, const std::string& what) {
  return ::testing::TempDir() + "drift_cli_" +
         binary.substr(binary.find_last_of('/') + 1) + "_" + what;
}

/// Runs `binary args --metrics-out=<tmp>` and expects a usage error
/// naming `valid` that leaves no artifact.
void expect_usage_error_no_artifact(const std::string& binary,
                                    const std::string& args,
                                    const std::string& valid) {
  const std::string path = temp_path(binary, "usage_m.json");
  std::remove(path.c_str());
  expect_usage_error(binary, args + " --metrics-out=" + path, valid);
  EXPECT_FALSE(std::ifstream(path).good()) << args << " wrote " << path;
  std::remove(path.c_str());
}

/// Runs `binary args` on a 1-row grid, which cannot host the high and
/// low precision classes, so the run fails after its flags passed: it
/// must exit 1, not die on a signal, and the armed at-exit flush must
/// leave a parseable partial metrics and trace artifact.
void expect_failed_run_flushes(const std::string& binary,
                               const std::string& args) {
  const std::string metrics = temp_path(binary, "fail_m.json");
  const std::string trace = temp_path(binary, "fail_t.json");
  std::remove(metrics.c_str());
  std::remove(trace.c_str());
  const CliResult r = run(binary, args + " --rows=1 --metrics-out=" +
                                      metrics + " --trace-out=" + trace);
  EXPECT_EQ(r.exit_code, 1) << args << "\n" << r.output;
  EXPECT_NE(r.output.find("array rows too few"), std::string::npos)
      << r.output;
  for (const std::string& path : {metrics, trace}) {
    std::ifstream in(path, std::ios::binary);
    std::stringstream text;
    text << in.rdbuf();
    drift::JsonError error;
    EXPECT_TRUE(drift::parse_json(text.str(), error).has_value())
        << path << ": " << error.what() << "\n" << text.str();
    std::remove(path.c_str());
  }
}

constexpr const char* kAlgos = "int8, drq, drift";
constexpr const char* kPolicies = "greedy, exhaustive, fixed";

// These two keep the names they had when a standalone comparison
// driver ran them; drift_graph compare replaced it.
TEST(Cli, DriftsimRejectsUnknownPolicy) {
  expect_usage_error(DRIFT_GRAPH_BIN,
                     "compare --model=tiny-cnn --policy=bogus", kPolicies);
}

TEST(Cli, DriftsimRejectsUnknownModel) {
  expect_usage_error(DRIFT_GRAPH_BIN, "compare --model=bogus",
                     "tiny-bert, tiny-cnn, ResNet18, ResNet50, ViT-B, DeiT-S, "
                     "BERT, GPT2-XL, OPT-6.7B, BLOOM-7B1");
}

TEST(Cli, DriftGraphRejectsUnknownAlgoAndPolicy) {
  expect_usage_error(DRIFT_GRAPH_BIN, "run --zoo=resnet18 --algo=bogus",
                     kAlgos);
  expect_usage_error(DRIFT_GRAPH_BIN, "run --zoo=resnet18 --policy=bogus",
                     kPolicies);
}

// run, compare and emit read and check every flag before any work.
constexpr const char* kSimFlags =
    "--policy, --budget, --rows, --cols, --seed, --no-dynamic-weights, "
    "--layers, --metrics-out, --trace-out";

TEST(Cli, DriftGraphRejectsUnknownFlag) {
  expect_usage_error(DRIFT_GRAPH_BIN, "run --zoo=resnet18 --bogus=1",
                     std::string("accepted: --zoo, --algo, ") + kSimFlags);
  expect_usage_error(DRIFT_GRAPH_BIN, "compare --model=tiny-cnn --bogus=1",
                     std::string("accepted: --zoo, --model, ") + kSimFlags);
  // run takes no registry workload: --model is unknown there.
  expect_usage_error(DRIFT_GRAPH_BIN, "run --zoo=resnet18 --model=BERT",
                     "unknown flag --model");
  expect_usage_error(DRIFT_GRAPH_BIN, "emit --zoo=resnet18 --bogus=1",
                     "accepted: --zoo, --out");
  expect_usage_error(DRIFT_GRAPH_BIN, "list --bogus=1", "accepted: none");
}

TEST(Cli, DriftGraphRejectsUnknownZoo) {
  for (const char* command : {"run", "compare", "emit"}) {
    expect_usage_error(DRIFT_GRAPH_BIN,
                       std::string(command) + " --zoo=nosuch",
                       "bert_base, deit_s, gpt2_layer, resnet18, vit_b16");
  }
}

TEST(Cli, DriftGraphRejectsBadNumbers) {
  for (const std::string c :
       {"run --zoo=resnet18 ", "compare --model=tiny-cnn "}) {
    expect_usage_error(DRIFT_GRAPH_BIN, c + "--rows=0", "(valid: >= 1)");
    expect_usage_error(DRIFT_GRAPH_BIN, c + "--cols=-3", "(valid: >= 1)");
    expect_usage_error(DRIFT_GRAPH_BIN, c + "--seed=abc",
                       "--seed=abc is not an integer");
    expect_usage_error(DRIFT_GRAPH_BIN, c + "--seed=99999999999999999999",
                       "is not an integer");
    expect_usage_error(DRIFT_GRAPH_BIN, c + "--budget=abc",
                       "--budget=abc is not a number");
    for (const char* budget :
         {"--budget=-1", "--budget=inf", "--budget=nan"}) {
      expect_usage_error(DRIFT_GRAPH_BIN, c + budget,
                         "(valid: a finite number >= 0)");
    }
  }
}

// A boolean takes true/false, 1/0, yes/no or on/off; a typo such as
// --layers=ture used to read as false and run.
constexpr const char* kBooleans =
    "is not a boolean (valid: true/false, 1/0, yes/no, on/off)";

TEST(Cli, DriftGraphRejectsMalformedBooleans) {
  for (const char* flag : {"--layers=ture", "--no-dynamic-weights=nope"}) {
    expect_usage_error_no_artifact(
        DRIFT_GRAPH_BIN, std::string("compare --model=tiny-cnn ") + flag,
        std::string(flag) + " " + kBooleans);
  }
}

TEST(Cli, DriftGraphFailedRunExitsOneAndFlushes) {
  expect_failed_run_flushes(DRIFT_GRAPH_BIN, "compare --model=tiny-cnn");
}

TEST(Cli, DriftGraphCompareRunsEveryDesign) {
  const std::string trace = ::testing::TempDir() + "drift_cli_compare.trace";
  std::remove(trace.c_str());
  const CliResult r =
      run(DRIFT_GRAPH_BIN, "compare --model=tiny-cnn --trace-out=" + trace);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (const char* line :
       {"workload tiny-cnn: ", "\nEyeriss    cycles=",
        "\nBitFusion  cycles=", "\nDRQ        cycles=",
        "\nDrift      cycles=", "\nspeedup over Eyeriss: BitFusion ",
        "\nDrift double-buffered timeline",
        "\ncontroller: peak index buffer"}) {
    EXPECT_NE(r.output.find(line), std::string::npos)
        << line << "\n" << r.output;
  }
#ifndef DRIFT_OBS_OFF
  // The timeline also renders on the simulated-cycle trace tracks.
  std::ifstream in(trace);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("timeline.dram"), std::string::npos);
  EXPECT_NE(text.str().find("timeline.compute"), std::string::npos);
#endif
  std::remove(trace.c_str());
}

TEST(Cli, DriftGraphValidateDeepFileExitsOne) {
  // A malformed topology is a validation failure (exit 1) with a byte
  // offset, however deep it nests; it must never crash the reader.
  const std::string path = ::testing::TempDir() + "drift_cli_deep.json";
  {
    std::ofstream out(path, std::ios::binary);
    out << std::string(200000, '[');
  }
  const CliResult r = run(DRIFT_GRAPH_BIN, "validate " + path);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("JSON error at byte 64"), std::string::npos)
      << r.output;
  std::remove(path.c_str());
}

TEST(Cli, DriftGraphShapeErrorWritesNoArtifact) {
  // A topology that parses but fails shape inference is an error exit
  // (1); run and compare both check it before the at-exit flush is
  // armed, so neither leaves a partial artifact.
  const std::string topology = ::testing::TempDir() + "drift_cli_add.json";
  {
    std::ofstream out(topology, std::ios::binary);
    out << R"({"name": "bad_add", "family": "cnn",
  "inputs": [{"name": "a", "shape": [16, 4]}, {"name": "b", "shape": [16, 8]}],
  "nodes": [{"name": "sum", "op": "add", "inputs": ["a", "b"]}],
  "outputs": ["sum"]})";
  }
  const std::string path = ::testing::TempDir() + "drift_cli_add_m.json";
  for (const std::string command : {"run ", "compare "}) {
    std::remove(path.c_str());
    const CliResult r = run(DRIFT_GRAPH_BIN,
                            command + topology + " --metrics-out=" + path);
    EXPECT_EQ(r.exit_code, 1) << command << "\n" << r.output;
    EXPECT_NE(r.output.find("shape inference failed"), std::string::npos)
        << command << "\n" << r.output;
    EXPECT_FALSE(std::ifstream(path).good()) << command << "wrote " << path;
  }
  std::remove(path.c_str());
  std::remove(topology.c_str());
}

TEST(Cli, DriftServeRejectsUnknownAlgoAndWorkload) {
  expect_usage_error(DRIFT_SERVE_BIN, "--algo=bogus", kAlgos);
  expect_usage_error(DRIFT_SERVE_BIN, "--workloads=tiny-bert,nosuch",
                     "tiny-bert, tiny-cnn, ResNet18");
}

TEST(Cli, DriftServeRejectsUnknownArrival) {
  expect_usage_error(DRIFT_SERVE_BIN, "--arrival=bogus",
                     "poisson, bursty, diurnal");
}

// drift_serve reads and checks every flag before any work: a typo, a
// malformed number or a number out of its range exits 2 and names what
// is valid, instead of aborting (exit 134) or running on a default.
const std::string kServeArgs = "--workloads=tiny-cnn --requests=4 ";

TEST(Cli, DriftServeRejectsUnknownFlag) {
  expect_usage_error(DRIFT_SERVE_BIN, kServeArgs + "--request=10",
                     "accepted: --workloads, --algo, --arrival, --load, "
                     "--interarrival, --requests, --max-batch");
}

TEST(Cli, DriftServeRejectsOutOfRangeNumbers) {
  for (const char* flag : {"--max-batch=0", "--rows=0", "--cols=0",
                           "--requests=-5", "--requests=0"}) {
    expect_usage_error(DRIFT_SERVE_BIN, kServeArgs + flag, "(valid: >= 1)");
  }
  // --load=0 used to calibrate an infinite gap and print a negative p50.
  for (const char* flag :
       {"--load=0", "--load=-1", "--load=nan", "--load=inf",
        "--interarrival=0", "--interarrival=-3", "--interarrival=inf"}) {
    expect_usage_error(DRIFT_SERVE_BIN, kServeArgs + flag,
                       "(valid: a finite number > 0)");
  }
}

TEST(Cli, DriftServeRejectsOutOfRangeThreads) {
  // The range DRIFT_NUM_THREADS accepts; checked before the pool grows.
  for (const char* flag : {"--threads=0", "--threads=-1", "--threads=1025"}) {
    expect_usage_error(DRIFT_SERVE_BIN, kServeArgs + flag,
                       "(valid: 1..1024)");
  }
}

TEST(Cli, DriftServeRejectsMalformedBooleans) {
  expect_usage_error_no_artifact(
      DRIFT_SERVE_BIN, kServeArgs + "--shared-mix=maybe",
      std::string("--shared-mix=maybe ") + kBooleans);
}

TEST(Cli, DriftServeFailedRunExitsOneAndFlushes) {
  expect_failed_run_flushes(DRIFT_SERVE_BIN, kServeArgs);
}

TEST(Cli, DriftServeMetricsOutIsStamped) {
  // The full scrape every other binary writes, meta block included.
  const std::string path = ::testing::TempDir() + "drift_cli_serve.json";
  std::remove(path.c_str());
  const CliResult r =
      run(DRIFT_SERVE_BIN, kServeArgs + "--metrics-out=" + path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("\"git_sha\""), std::string::npos) << text.str();
#ifndef DRIFT_OBS_OFF
  EXPECT_NE(text.str().find("\"serve.requests\""), std::string::npos)
      << text.str();
#endif
  std::remove(path.c_str());
}

TEST(Cli, DriftServeRejectsMalformedNumbers) {
  expect_usage_error(DRIFT_SERVE_BIN, kServeArgs + "--max-batch=four",
                     "--max-batch=four is not an integer");
  expect_usage_error(DRIFT_SERVE_BIN, kServeArgs + "--load=0.5x",
                     "--load=0.5x is not a number");
}

// The figure, table and ablation benches take only the artifact
// flags; a typo such as --metric-out must not run the whole figure and
// write nothing.  The check runs before any work, so these stay fast.
constexpr const char* kArtifactFlags = "--metrics-out, --trace-out";

std::string bench_bin(const char* name) {
  return std::string(BENCH_DIR) + "/" + name;
}

TEST(Cli, Fig6RejectsUnknownFlag) {
  expect_usage_error(bench_bin("fig6_accuracy"), "--metric-out=m.json",
                     kArtifactFlags);
}

TEST(Cli, Table1RejectsUnknownFlag) {
  expect_usage_error(bench_bin("table1_llm"), "--bogus=1", kArtifactFlags);
}

// The flags are checked before the artifact flush is armed, so a usage
// error leaves no (empty or partial) artifact behind.
TEST(Cli, UsageErrorWritesNoArtifact) {
  const std::string path = ::testing::TempDir() + "drift_cli_usage.json";
  for (const std::string& command :
       {bench_bin("fig7_latency"),
        std::string(DRIFT_GRAPH_BIN) + " run --zoo=resnet18",
        std::string(DRIFT_SERVE_BIN) + " " + kServeArgs}) {
    std::remove(path.c_str());
    const CliResult r = run(command, "--metrics-out=" + path + " --bogus=1");
    EXPECT_EQ(r.exit_code, 2) << command << "\n" << r.output;
    EXPECT_FALSE(std::ifstream(path).good()) << command << " wrote " << path;
  }
  std::remove(path.c_str());
}

class BenchFlags : public ::testing::TestWithParam<const char*> {};

TEST_P(BenchFlags, RejectsUnknownFlag) {
  expect_usage_error(bench_bin(GetParam()), "--metric-out=m.json",
                     kArtifactFlags);
}

INSTANTIATE_TEST_SUITE_P(
    Cli, BenchFlags,
    ::testing::Values("fig1_subtensor_dynamics", "fig2_stall_motivation",
                      "fig7_latency", "fig8_energy", "ablation_scheduler",
                      "ablation_threshold", "ablation_granularity",
                      "ablation_array_scaling"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

}  // namespace
