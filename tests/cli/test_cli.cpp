// Command-line contract of the drivers (label: cli): an unknown choice
// or flag, a malformed boolean, a number out of its range, or a
// positional argument the binary does not take, is a usage error —
// exit code 2 and a message listing every valid value — never a silent
// fallback to a default, and it writes no artifact; a malformed input
// file or a run that fails is an error exit (1), never a crash, and a
// failed run still flushes parseable partial artifacts.  A bare flag
// never takes the next token.  A topology with a mistyped or misspelled
// attribute, an unknown `kind` value or an unknown family, or with no
// GEMM node, exits 1 before any work, naming what is wrong.  A bench
// whose CSV cannot be opened exits 1, naming the file.  drift_graph
// compare prints every design, and the examples write only their
// artifact.
//
// Binary paths are injected by tests/cli/CMakeLists.txt.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

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

/// Expects the file at `path` to parse as JSON, then removes it.
void expect_parseable_json_and_remove(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  drift::JsonError error;
  EXPECT_TRUE(drift::parse_json(text.str(), error).has_value())
      << path << ": " << error.what() << "\n" << text.str();
  std::remove(path.c_str());
}

constexpr const char* kAlgos = "int8, drq, drift";
constexpr const char* kPolicies = "greedy, exhaustive, fixed";
constexpr const char* kWorkloads =
    "tiny-bert, tiny-cnn, ResNet18, ResNet50, ViT-B, DeiT-S, BERT, GPT2-XL, "
    "OPT-6.7B, BLOOM-7B1";

// The committed model-zoo topologies.
const std::string kZooDir = std::string(SOURCE_DIR) + "/examples/model_zoo/";
const std::string kResnet18 = kZooDir + "resnet18.json";

// These two keep the names they had when a standalone comparison
// driver ran them; drift_graph compare replaced it.
TEST(Cli, DriftsimRejectsUnknownPolicy) {
  expect_usage_error(DRIFT_GRAPH_BIN,
                     "compare --model=tiny-cnn --policy=bogus", kPolicies);
}

TEST(Cli, DriftsimRejectsUnknownModel) {
  expect_usage_error(DRIFT_GRAPH_BIN, "compare --model=bogus", kWorkloads);
}

TEST(Cli, DriftGraphRejectsUnknownAlgoAndPolicy) {
  expect_usage_error(DRIFT_GRAPH_BIN, "run " + kResnet18 + " --algo=bogus",
                     kAlgos);
  expect_usage_error(DRIFT_GRAPH_BIN, "run " + kResnet18 + " --policy=bogus",
                     kPolicies);
}

// run and compare read and check every flag before any work.
constexpr const char* kSimFlags =
    "--policy, --budget, --rows, --cols, --seed, --no-dynamic-weights, "
    "--layers, --metrics-out, --trace-out";

TEST(Cli, DriftGraphRejectsUnknownFlag) {
  expect_usage_error(DRIFT_GRAPH_BIN, "run " + kResnet18 + " --bogus=1",
                     std::string("accepted: --model, --algo, ") + kSimFlags);
  expect_usage_error(DRIFT_GRAPH_BIN, "compare --model=tiny-cnn --bogus=1",
                     std::string("accepted: --model, ") + kSimFlags);
  // A workload comes from one FILE or one --model, never both.
  for (const char* command : {"run ", "compare "}) {
    expect_usage_error(DRIFT_GRAPH_BIN,
                       command + kResnet18 + " --model=BERT",
                       "give one FILE or --model=NAME");
  }
  expect_usage_error(DRIFT_GRAPH_BIN, "list --bogus=1", "accepted: none");
}

// Kept under its old name: the one name registry is --model's.
TEST(Cli, DriftGraphRejectsUnknownZoo) {
  for (const char* command : {"run", "compare"}) {
    expect_usage_error(DRIFT_GRAPH_BIN,
                       std::string(command) + " --model=nosuch", kWorkloads);
  }
}

// A grid axis must host both precision classes, and 1024 bounds the
// O(R + C) tables sized from it.
constexpr const char* kBadAxes[] = {"--rows=0", "--cols=-3", "--rows=1",
                                    "--cols=1", "--rows=1025"};

TEST(Cli, DriftGraphRejectsBadNumbers) {
  for (const std::string& c :
       {"run " + kResnet18 + " ", std::string("compare --model=tiny-cnn ")}) {
    for (const char* axis : kBadAxes) {
      expect_usage_error(DRIFT_GRAPH_BIN, c + axis, "(valid: 2..1024)");
    }
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

// Kept under its old name: no drift_graph input is known to fail after
// its flags pass.  A one-row grid, which once did, is a usage error
// that writes no artifact; Cli/BenchCsvUnwritable.* covers the armed
// flush of a failed run.
TEST(Cli, DriftGraphFailedRunExitsOneAndFlushes) {
  expect_usage_error_no_artifact(DRIFT_GRAPH_BIN,
                                 "compare --model=tiny-cnn --rows=1",
                                 "--rows=1 is out of range (valid: 2..1024)");
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
  // The timeline also renders on the simulated-cycle trace tracks.
  std::ifstream in(trace);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("timeline.dram"), std::string::npos);
  EXPECT_NE(text.str().find("timeline.compute"), std::string::npos);
  std::remove(trace.c_str());
}

TEST(Cli, DriftGraphCompareBareLayersThenFile) {
  // A bare flag never takes the next token: the file after --layers is
  // the topology to compare, and --layers prints every design's table.
  const std::string topology = ::testing::TempDir() + "drift_cli_gemm.json";
  {
    std::ofstream out(topology, std::ios::binary);
    out << R"({"name": "gemm", "family": "bert",
  "inputs": [{"name": "x", "shape": [64, 32]}],
  "nodes": [{"name": "gemm", "op": "linear", "inputs": ["x"],
             "attrs": {"out_features": 48}}],
  "outputs": ["gemm"]})";
  }
  const CliResult r = run(DRIFT_GRAPH_BIN, "compare --layers " + topology);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("workload gemm: "), std::string::npos) << r.output;
  int tables = 0;
  for (std::size_t pos = 0;
       (pos = r.output.find("| layer |", pos)) != std::string::npos; ++pos) {
    ++tables;
  }
  EXPECT_EQ(tables, 4) << r.output;
  std::remove(topology.c_str());
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

/// Writes `topology` to a temp file named after `what` and expects
/// `validate` to exit `validate_exit`, then run and compare to exit 1
/// with `message` and no artifact: both export the topology before the
/// at-exit flush is armed.
void expect_run_and_compare_fail(const std::string& topology,
                                 const std::string& what, int validate_exit,
                                 const std::string& message) {
  const std::string file = temp_path("drift_graph", what + ".json");
  std::ofstream(file, std::ios::binary) << topology;
  EXPECT_EQ(run(DRIFT_GRAPH_BIN, "validate " + file).exit_code,
            validate_exit);
  const std::string path = temp_path("drift_graph", what + "_m.json");
  for (const std::string command : {"run ", "compare "}) {
    std::remove(path.c_str());
    const CliResult r = run(DRIFT_GRAPH_BIN,
                            command + file + " --metrics-out=" + path);
    EXPECT_EQ(r.exit_code, 1) << command << "\n" << r.output;
    EXPECT_NE(r.output.find(message), std::string::npos)
        << command << "\n" << r.output;
    EXPECT_FALSE(std::ifstream(path).good()) << command << "wrote " << path;
  }
  std::remove(path.c_str());
  std::remove(file.c_str());
}

TEST(Cli, DriftGraphShapeErrorWritesNoArtifact) {
  // A topology that parses but fails shape inference is an error exit
  // (1) for every command.
  const std::string bad_add = R"({"name": "bad_add", "family": "cnn",
  "inputs": [{"name": "a", "shape": [16, 4]}, {"name": "b", "shape": [16, 8]}],
  "nodes": [{"name": "sum", "op": "add", "inputs": ["a", "b"]}],
  "outputs": ["sum"]})";
  expect_run_and_compare_fail(bad_add, "add", 1, "shape inference failed");
}

TEST(Cli, DriftGraphNoGemmTopologyExitsOne) {
  // A topology without a GEMM node is structurally valid, but run and
  // compare have nothing to run: they once printed -nan% shares and
  // -nanx speedups and exited 0.
  const std::string only_relu = R"({"name": "only_relu", "family": "cnn",
  "inputs": [{"name": "x", "shape": [16, 4]}],
  "nodes": [{"name": "act", "op": "relu", "inputs": ["x"]}],
  "outputs": ["act"]})";
  expect_run_and_compare_fail(only_relu, "relu", 0,
                              "graph 'only_relu' has no GEMM node");
}

/// Writes the committed zoo file `stem`, its first `from` replaced by
/// `to`, to a temp file named after `what`; returns the path.
std::string edited_zoo_file(const std::string& stem, const std::string& from,
                            const std::string& to, const std::string& what) {
  std::ifstream in(kZooDir + stem + ".json", std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  std::string edited = text.str();
  const std::size_t at = edited.find(from);
  EXPECT_NE(at, std::string::npos) << stem << ": " << from;
  if (at != std::string::npos) edited.replace(at, from.size(), to);
  const std::string path = temp_path("drift_graph", what);
  std::ofstream(path, std::ios::binary) << edited;
  return path;
}

TEST(Cli, DriftGraphMistypedTopologyExitsOneNamingIt) {
  // Each once died in shape inference or the export with a message that
  // named neither node nor attribute, passed validate and failed in
  // run, or (the misspelled attribute and the unknown kind) ran on the
  // op's default.  Now validation names them: every command exits 1
  // before any work, and run and compare write no artifact.
  const struct {
    const char* stem;
    const char* from;
    const char* to;
    const char* message;
  } kProbes[] = {
      {"resnet18", "\"kernel\": 7,", "\"kernel\": \"7\",",
       "node 'conv1': attribute 'kernel' must be an integer"},
      {"resnet18", "\"kernel\": 7,", "\"kernel\": 7.5,",
       "node 'conv1': attribute 'kernel' must be an integer"},
      {"vit_b16", "\"heads\": 12}", "\"heads\": 12.0}",
       "node 'block0.attn': attribute 'heads' must be an integer"},
      {"resnet18", "\"kind\": \"fc\"", "\"kind\": 3",
       "node 'fc': attribute 'kind' must be a string"},
      {"resnet18", "\"family\": \"cnn\"", "\"family\": \"cnnx\"",
       "graph 'resnet18': unknown family 'cnnx' (valid: cnn, vit, bert, llm)"},
      {"resnet18", "\"stride\": 2}", "\"strid\": 2}",
       "node 'conv1': unknown attribute 'strid' (valid for conv2d: kernel, "
       "kind, out_channels, pad, stride)"},
      {"resnet18", "\"kind\": \"fc\"", "\"kind\": \"fcx\"",
       "node 'fc': attribute 'kind' has unknown value 'fcx' (valid for "
       "linear: fc, ffn, proj, qkv, embed)"},
  };
  const std::string metrics = temp_path("drift_graph", "mistyped_m.json");
  for (const auto& probe : kProbes) {
    const std::string bad =
        edited_zoo_file(probe.stem, probe.from, probe.to, "mistyped.json");
    for (const std::string& command :
         {"validate " + bad, "shapes " + bad,
          "run " + bad + " --metrics-out=" + metrics,
          "compare " + bad + " --metrics-out=" + metrics}) {
      std::remove(metrics.c_str());
      const CliResult r = run(DRIFT_GRAPH_BIN, command);
      EXPECT_EQ(r.exit_code, 1) << command << "\n" << r.output;
      EXPECT_NE(r.output.find(probe.message), std::string::npos)
          << command << "\n" << r.output;
      EXPECT_FALSE(std::ifstream(metrics).good()) << command << " wrote";
    }
    std::remove(bad.c_str());
  }
}

TEST(Cli, DriftGraphValidateReportsEveryFile) {
  // validate once stopped at the first file that threw.
  const std::string bad = edited_zoo_file(
      "resnet18", "\"kernel\": 7,", "\"kernel\": \"7\",", "first.json");
  const CliResult r =
      run(DRIFT_GRAPH_BIN, "validate " + bad + " " + kResnet18);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(kResnet18 + ": OK (resnet18: "), std::string::npos)
      << r.output;
  std::remove(bad.c_str());
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
  for (const char* flag : {"--max-batch=0", "--requests=-5", "--requests=0"}) {
    expect_usage_error(DRIFT_SERVE_BIN, kServeArgs + flag, "(valid: >= 1)");
  }
  for (const char* axis : kBadAxes) {
    expect_usage_error(DRIFT_SERVE_BIN, kServeArgs + axis,
                       "(valid: 2..1024)");
  }
  // --load=0 used to calibrate an infinite gap and print a negative p50.
  for (const char* flag :
       {"--load=0", "--load=-1", "--load=nan", "--load=inf",
        "--interarrival=0", "--interarrival=-3", "--interarrival=inf"}) {
    expect_usage_error(DRIFT_SERVE_BIN, kServeArgs + flag,
                       "(valid: a finite number > 0)");
  }
}

TEST(Cli, DriftServeRejectsMalformedBooleans) {
  expect_usage_error_no_artifact(
      DRIFT_SERVE_BIN, kServeArgs + "--shared-mix=maybe",
      std::string("--shared-mix=maybe ") + kBooleans);
}

// An arrival time past 2^62 cycles fails the run after its flags
// passed: it must exit 1, not die on a signal or serve a garbled trace,
// and the armed at-exit flush must leave a parseable partial metrics
// and trace artifact.
TEST(Cli, DriftServeFailedRunExitsOneAndFlushes) {
  const std::string metrics = temp_path(DRIFT_SERVE_BIN, "fail_m.json");
  const std::string trace = temp_path(DRIFT_SERVE_BIN, "fail_t.json");
  std::remove(metrics.c_str());
  std::remove(trace.c_str());
  const CliResult r =
      run(DRIFT_SERVE_BIN, kServeArgs + "--interarrival=1e300 --metrics-out=" +
                               metrics + " --trace-out=" + trace);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("arrival time of request 0 passes 2^62 cycles"),
            std::string::npos)
      << r.output;
  expect_parseable_json_and_remove(metrics);
  expect_parseable_json_and_remove(trace);
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
  EXPECT_NE(text.str().find("\"serve.requests\""), std::string::npos)
      << text.str();
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

std::string example_bin(const char* name) {
  return std::string(EXAMPLES_DIR) + "/" + name;
}

TEST(Cli, Fig6RejectsUnknownFlag) {
  expect_usage_error(bench_bin("fig6_accuracy"), "--metric-out=m.json",
                     kArtifactFlags);
}

TEST(Cli, Table1RejectsUnknownFlag) {
  expect_usage_error(bench_bin("table1_llm"), "--bogus=1", kArtifactFlags);
}

// A binary that takes no positional argument rejects one as it
// rejects an unknown flag: exit 2 before any work, no artifact.
TEST(Cli, StrayArgumentWritesNoArtifact) {
  for (const char* example :
       {"quickstart", "vit_pipeline", "llm_layer_study"}) {
    expect_usage_error_no_artifact(example_bin(example), "extra_positional",
                                   "unexpected argument 'extra_positional'");
  }
  expect_usage_error_no_artifact(DRIFT_SERVE_BIN, "stray --requests=8",
                                 "unexpected argument 'stray'");
}

// list takes nothing after the command: a stray argument is a usage
// error.  emit is not a command: it exits 2 and writes no file.
TEST(Cli, DriftGraphEmitAndListRejectStrayArgument) {
  const std::string path = temp_path("drift_graph", "emit.json");
  std::remove(path.c_str());
  expect_usage_error(DRIFT_GRAPH_BIN, "emit --out=" + path + " extra",
                     "unknown command 'emit'");
  EXPECT_FALSE(std::ifstream(path).good()) << "wrote " << path;
  expect_usage_error(DRIFT_GRAPH_BIN, "list extra",
                     "unexpected argument 'extra'");
}

// serving_study's one optional argument is its output path; a second
// is a usage error that writes nothing.
TEST(Cli, ServingStudyTakesOneOutputPath) {
  const std::string path = temp_path("serving_study", "out.json");
  std::remove(path.c_str());
  expect_usage_error(example_bin("serving_study"), path + " stray",
                     "unexpected argument 'stray'");
  EXPECT_FALSE(std::ifstream(path).good()) << "wrote " << path;
  std::remove(path.c_str());
}

// The flags are checked before the artifact flush is armed, so a usage
// error leaves no (empty or partial) artifact behind.
TEST(Cli, UsageErrorWritesNoArtifact) {
  const std::string path = ::testing::TempDir() + "drift_cli_usage.json";
  for (const std::string& command :
       {bench_bin("fig7_latency"), example_bin("vit_pipeline"),
        example_bin("llm_layer_study"),
        std::string(DRIFT_GRAPH_BIN) + " run " + kResnet18,
        std::string(DRIFT_SERVE_BIN) + " " + kServeArgs}) {
    std::remove(path.c_str());
    const CliResult r = run(command, "--metrics-out=" + path + " --bogus=1");
    EXPECT_EQ(r.exit_code, 2) << command << "\n" << r.output;
    EXPECT_FALSE(std::ifstream(path).good()) << command << " wrote " << path;
  }
  std::remove(path.c_str());
}

// A plain run of an example that prints its study exits 0 and writes
// exactly one file, its parseable --metrics-out artifact.
TEST(Cli, ExampleRunWritesOnlyItsMetrics) {
  for (const char* example : {"vit_pipeline", "llm_layer_study"}) {
    const std::string dir =
        ::testing::TempDir() + "drift_cli_" + example + "_plain";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const CliResult r = run("cd " + dir + " && " + example_bin(example),
                            "--metrics-out=m.json");
    EXPECT_EQ(r.exit_code, 0) << example << "\n" << r.output;
    std::vector<std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      files.push_back(entry.path().filename().string());
    }
    EXPECT_EQ(files, std::vector<std::string>{"m.json"}) << example;
    expect_parseable_json_and_remove(dir + "/m.json");
    std::filesystem::remove_all(dir);
  }
}

// Each bench runs in an empty directory of its own, which a usage
// error must leave empty: no CSV, and no BENCH_kernels.json from
// micro_benchmarks.
class BenchFlags : public ::testing::TestWithParam<const char*> {
 protected:
  /// `cd <empty dir> && <bench>`, to hand to the run helpers.
  std::string in_empty_dir(const std::string& what) {
    dir_ = ::testing::TempDir() + "drift_cli_" + GetParam() + "_" + what;
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    return "cd " + dir_ + " && " + bench_bin(GetParam());
  }
  void TearDown() override {
    EXPECT_TRUE(std::filesystem::is_empty(dir_)) << dir_;
    std::filesystem::remove_all(dir_);
  }

 private:
  std::string dir_;
};

// micro_benchmarks once took a filter flag that skipped everything but
// the kernel sweep; it is now unknown like any other.  It is spelled in
// two pieces so that searching the tree for it finds no live use.
constexpr const char* kOldSweepFilter = "--benchmark" "_filter=KernelSweepOnly";

TEST_P(BenchFlags, RejectsUnknownFlag) {
  const std::string bench = in_empty_dir("unknown");
  for (const char* flag : {"--metric-out=m.json", kOldSweepFilter}) {
    expect_usage_error_no_artifact(bench, flag, kArtifactFlags);
  }
}

TEST_P(BenchFlags, RejectsStrayArgument) {
  expect_usage_error_no_artifact(in_empty_dir("stray"), "positional",
                                 "unexpected argument 'positional'");
}

INSTANTIATE_TEST_SUITE_P(
    Cli, BenchFlags,
    ::testing::Values("fig1_subtensor_dynamics", "fig2_stall_motivation",
                      "fig7_latency", "fig8_energy", "ablation_scheduler",
                      "ablation_threshold", "ablation_granularity",
                      "ablation_array_scaling", "micro_benchmarks"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

// A bench whose CSV cannot be opened (a directory holds its name) fails
// after its flags passed: it exits 1 with the message, not on a signal,
// and the armed flush leaves a parseable --metrics-out artifact.
class BenchCsvUnwritable : public ::testing::TestWithParam<const char*> {};

TEST_P(BenchCsvUnwritable, ExitsOneAndFlushesMetrics) {
  const std::string dir = temp_path(GetParam(), "csv_dir");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/" + GetParam() + ".csv");
  const CliResult r = run("cd " + dir + " && " + bench_bin(GetParam()),
                          "--metrics-out=m.json");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("failed to open CSV output file"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find(std::string(GetParam()) + ".csv"),
            std::string::npos)
      << r.output;
  expect_parseable_json_and_remove(dir + "/m.json");
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Cli, BenchCsvUnwritable,
    ::testing::Values("fig1_subtensor_dynamics", "fig2_stall_motivation",
                      "fig6_accuracy", "table1_llm", "fig7_latency",
                      "fig8_energy", "ablation_scheduler",
                      "ablation_threshold", "ablation_granularity",
                      "ablation_array_scaling"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

// drift_report and drift_lint read their flags through Args as well:
// a valued flag needs `=`, and an unknown flag, a bad number or a value
// after a space exits 2 before any input is read.
const std::string kSlowRun = std::string(REPORT_FIXTURES) + "/bench_slow.json";
const std::string kBaseline =
    std::string(REPORT_FIXTURES) + "/bench_base.json";
const std::string kRatchet = "ratchet " + kSlowRun + " --baseline=" + kBaseline;

TEST(Cli, DriftReportRejectsBadMaxSlowdown) {
  // nan and inf used to pass every kernel, and 1.5x read as 1.5.
  for (const std::string value : {"nan", "inf", "0"}) {
    expect_usage_error(DRIFT_REPORT_BIN, kRatchet + " --max-slowdown=" + value,
                       "--max-slowdown=" + value +
                           " is out of range (valid: a finite number > 0)");
  }
  for (const std::string value : {"1.5x", ""}) {
    expect_usage_error(DRIFT_REPORT_BIN, kRatchet + " --max-slowdown=" + value,
                       "--max-slowdown=" + value + " is not a number");
  }
}

TEST(Cli, DriftReportRejectsSpaceFormAndUnknownFlag) {
  expect_usage_error(DRIFT_REPORT_BIN,
                     "ratchet " + kSlowRun + " --baseline " + kBaseline,
                     "unexpected argument '" + kBaseline + "'");
  expect_usage_error(DRIFT_REPORT_BIN, kRatchet + " --bogus=1",
                     "unknown flag --bogus (accepted: --baseline, "
                     "--max-slowdown, --json)");
}

TEST(Cli, DriftLintRejectsSpaceFormRoot) {
  // A bare --root is the value "true"; the path after it is a directory
  // to scan.
  expect_usage_error(DRIFT_LINT_BIN,
                     std::string("--root ") + SOURCE_DIR + " tools/lint",
                     "root does not exist: true");
}

}  // namespace
