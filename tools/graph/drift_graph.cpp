// drift_graph — operator-graph front end for the Drift stack.
//
//   drift_graph validate examples/model_zoo/*.json
//   drift_graph shapes examples/model_zoo/resnet18.json
//   drift_graph run --zoo=resnet18 --algo=drift --metrics-out=run.json
//   drift_graph run my_model.json --policy=exhaustive --budget=0.02
//   drift_graph emit --zoo=gpt2_layer --out=gpt2_layer.json
//   drift_graph list
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/json_topology.hpp"
#include "graph/ops.hpp"
#include "obs/report.hpp"
#include "pipeline.hpp"
#include "util/args.hpp"
#include "util/assert.hpp"
#include "zoo.hpp"

using namespace drift;
using namespace drift::graphcli;

namespace {

constexpr const char* kUsage = R"(drift_graph — operator-graph runner

usage: drift_graph <command> [args] [flags]

commands:
  validate FILE...  structural + shape validation; prints every error
                    ("node 'x': ..."), exit 1 if any file fails
  shapes FILE       print the inferred shape of every value, in
                    topological order
  run FILE          route every GEMM-bearing node through the selector
                    -> scheduler -> cycle model and print the per-model
                    summary (use --zoo=NAME instead of FILE for a
                    built-in topology)
  emit --zoo=NAME   print (or --out=PATH) the canonical topology JSON
                    of a built-in model
  list              list the built-in model-zoo topologies

run flags:
  --zoo=NAME        built-in topology instead of a file
  --algo=NAME       int8|drq|drift  (default: drift)
  --policy=NAME     drift scheduler: greedy|exhaustive|fixed
  --budget=F        excess-noise budget (default 0.05)
  --rows=N --cols=N BitGroup grid geometry (default 24x33)
  --seed=N          mix sampling seed (default 17)
  --no-dynamic-weights  keep weights static INT8 under Drift
  --layers          print per-layer detail
  --metrics-out=P   write the canonical metrics JSON artifact
  --trace-out=P     write the Chrome trace artifact
)";

/// Reads a whole file; returns false (with a message on stderr) when
/// the file cannot be opened.
bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "drift_graph: cannot open '%s'\n", path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

/// Loads a graph from a topology file; prints parse errors and returns
/// false on failure.
bool load_graph(const std::string& path, drift::graph::Graph& g) {
  std::string text;
  if (!read_file(path, text)) return false;
  const auto parsed = drift::graph::parse_topology(text);
  if (!parsed.ok()) {
    for (const std::string& err : parsed.errors) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), err.c_str());
    }
    return false;
  }
  g = parsed.graph;
  return true;
}

int cmd_validate(const std::vector<std::string>& files) {
  if (files.empty()) {
    std::fprintf(stderr, "drift_graph validate: no files given\n");
    return 2;
  }
  int failures = 0;
  for (const std::string& path : files) {
    drift::graph::Graph g;
    if (!load_graph(path, g)) {
      ++failures;
      continue;
    }
    const auto shapes = drift::graph::infer_shapes(g);
    if (!shapes.ok()) {
      for (const std::string& err : shapes.errors) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), err.c_str());
      }
      ++failures;
      continue;
    }
    std::printf("%s: OK (%s: %zu nodes, %zu values)\n", path.c_str(),
                g.name.c_str(), g.nodes.size(), shapes.by_name.size());
  }
  return failures == 0 ? 0 : 1;
}

int cmd_shapes(const std::vector<std::string>& files) {
  if (files.size() != 1) {
    std::fprintf(stderr, "drift_graph shapes: exactly one file expected\n");
    return 2;
  }
  drift::graph::Graph g;
  if (!load_graph(files[0], g)) return 1;
  const auto shapes = drift::graph::infer_shapes(g);
  if (!shapes.ok()) {
    for (const std::string& err : shapes.errors) {
      std::fprintf(stderr, "%s\n", err.c_str());
    }
    return 1;
  }
  for (const auto& in : g.inputs) {
    std::printf("%-32s %-18s %s\n", in.name.c_str(), "(input)",
                drift::graph::dims_to_string(in.dims).c_str());
  }
  for (const int idx : drift::graph::topological_order(g)) {
    const auto& node = g.nodes[static_cast<std::size_t>(idx)];
    std::printf("%-32s %-18s %s\n", node.name.c_str(), node.op.c_str(),
                drift::graph::dims_to_string(
                    shapes.by_name.at(node.name)).c_str());
  }
  return 0;
}

int cmd_run(const Args& args, const std::vector<std::string>& files) {
  drift::graph::Graph g;
  if (args.has("zoo")) {
    g = make_zoo_graph(args.get_string("zoo", ""));
  } else if (files.size() == 1) {
    if (!load_graph(files[0], g)) return 1;
  } else {
    std::fprintf(stderr, "drift_graph run: give one FILE or --zoo=NAME\n");
    return 2;
  }

  GraphPipelineConfig config;
  const std::string algo = args.get_string("algo", "drift");
  const std::string policy = args.get_string("policy", "greedy");
  const auto parsed_algo = nn::parse_mix_algorithm(algo);
  const auto parsed_policy = accel::parse_scheduler_policy(policy);
  if (!parsed_algo) {
    std::fprintf(stderr, "drift_graph run: unknown --algo '%s' "
                 "(valid: int8, drq, drift)\n", algo.c_str());
    return 2;
  }
  if (!parsed_policy) {
    std::fprintf(stderr, "drift_graph run: unknown --policy '%s' "
                 "(valid: greedy, exhaustive, fixed)\n", policy.c_str());
    return 2;
  }
  config.algo = *parsed_algo;
  config.drift_policy = *parsed_policy;
  config.noise_budget = args.get_double("budget", 0.05);
  config.drift_dynamic_weights = !args.get_bool("no-dynamic-weights");
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 17));
  config.hw.array.rows = args.get_int("rows", 24);
  config.hw.array.cols = args.get_int("cols", 33);

  const auto artifacts = obs::ReportOptions::from_args(args);
  const bool layers = args.get_bool("layers");
  const auto result = run_graph_pipeline(g, config);
  const auto& r = result.run;
  std::printf("%s on %s: %zu GEMMs, %.2f GMACs\n", g.name.c_str(),
              r.accelerator.c_str(), result.workload.layers.size(),
              static_cast<double>(result.workload.total_macs()) / 1e9);
  std::printf("cycles=%lld stalls=%lld dram=%.1f MB energy=%.3f mJ\n",
              static_cast<long long>(r.cycles),
              static_cast<long long>(r.stall_cycles),
              static_cast<double>(r.dram_bytes) / 1e6,
              r.energy.total_pj() / 1e9);
  if (layers) {
    for (const auto& l : r.layers) {
      std::printf("  %-32s compute=%-10lld dram=%-10lld cycles=%-10lld "
                  "util=%.1f%%\n",
                  l.layer.c_str(), static_cast<long long>(l.compute_cycles),
                  static_cast<long long>(l.dram_cycles),
                  static_cast<long long>(l.cycles), 100.0 * l.utilization);
    }
  }
  return artifacts.write() ? 0 : 1;
}

int cmd_emit(const Args& args) {
  if (!args.has("zoo")) {
    std::fprintf(stderr, "drift_graph emit: --zoo=NAME required\n");
    return 2;
  }
  const auto g = make_zoo_graph(args.get_string("zoo", ""));
  const std::string json = drift::graph::to_topology_json(g);
  const std::string out = args.get_string("out", "");
  if (out.empty()) {
    std::printf("%s", json.c_str());
    return 0;
  }
  std::ofstream file(out, std::ios::binary);
  file << json;
  if (!file.good()) {
    std::fprintf(stderr, "drift_graph emit: write to '%s' failed\n",
                 out.c_str());
    return 1;
  }
  return 0;
}

int cmd_list() {
  for (const std::string& name : zoo_names()) {
    std::printf("%s\n", name.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Args::parse(argc, argv);
  const auto& positional = args.positional();
  if (args.get_bool("help") || positional.empty()) {
    std::printf("%s", kUsage);
    return positional.empty() && !args.get_bool("help") ? 2 : 0;
  }
  const std::string command = positional.front();
  const std::vector<std::string> rest(positional.begin() + 1,
                                      positional.end());
  try {
    if (command == "validate") return cmd_validate(rest);
    if (command == "shapes") return cmd_shapes(rest);
    if (command == "run") return cmd_run(args, rest);
    if (command == "emit") return cmd_emit(args);
    if (command == "list") return cmd_list();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "drift_graph: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "drift_graph: unknown command '%s'\n%s",
               command.c_str(), kUsage);
  return 2;
}
