// drift_graph — operator-graph front end and accelerator comparison
// driver of the Drift stack.
//
//   drift_graph validate examples/model_zoo/*.json
//   drift_graph shapes examples/model_zoo/resnet18.json
//   drift_graph run examples/model_zoo/resnet18.json --metrics-out=run.json
//   drift_graph run my_model.json --policy=exhaustive --budget=0.02
//   drift_graph compare --model=BERT --layers
//   drift_graph compare gemm.json --budget=0.02   (a one-node topology)
//   drift_graph list
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "accel/compare.hpp"
#include "accel/controller.hpp"
#include "accel/timeline.hpp"
#include "graph/graph.hpp"
#include "graph/ops.hpp"
#include "nn/workload.hpp"
#include "obs/report.hpp"
#include "pipeline.hpp"
#include "util/args.hpp"
#include "util/assert.hpp"
#include "util/table.hpp"

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
                    -> scheduler -> cycle model of one design (--algo)
  compare FILE      run the workload on Eyeriss, BitFusion, DRQ and
                    Drift; print each, the speedups over Eyeriss, and
                    Drift's double-buffered timeline and controller
  list              list the --model workloads

run and compare flags (FILE is a topology JSON file, such as
examples/model_zoo/resnet18.json):
  --model=NAME      registry workload instead of FILE
  --algo=NAME       run only: int8|drq|drift  (default: drift)
  --policy=NAME     drift scheduler: greedy|exhaustive|fixed
  --budget=F        excess-noise budget, finite and >= 0 (default 0.05)
  --rows=N --cols=N BitGroup grid geometry, each 2..1024 (default 24x33)
  --seed=N          mix sampling seed (default 17)
  --no-dynamic-weights  keep weights static INT8 under Drift
  --layers          print per-layer detail
  --metrics-out=P   write the canonical metrics JSON artifact
  --trace-out=P     write the Chrome trace artifact

A usage error (an unknown flag, name or choice, a bad number) exits 2
before any work and writes no artifact.
)";

/// Loads a graph from a topology file; prints why and returns false
/// when the file cannot be opened or does not parse.
bool load_graph(const std::string& path, drift::graph::Graph& g) {
  drift::graph::TopologyParseResult parsed = read_topology_file(path);
  for (const std::string& err : parsed.errors) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), err.c_str());
  }
  if (!parsed.ok()) return false;
  g = std::move(parsed.graph);
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

/// The flags run and compare share besides the workload source and
/// the artifact flags (ReportOptions).
constexpr const char* kSimFlags =
    "--policy, --budget, --rows, --cols, --seed, --no-dynamic-weights, "
    "--layers";

/// Reads the flags run and compare share into `config` and `layers`.
/// Prints every bad value and returns false if there was one.
bool read_sim_flags(const Args& args, accel::CompareConfig& config,
                    bool& layers) {
  const std::string policy = args.get_string("policy", "greedy");
  const auto budget = args.nonnegative_flag("budget", 0.05);
  // >= 2 hosts both precision classes; 1024 bounds the O(R + C) tables.
  const auto rows = args.int_flag("rows", 24, 2, 1024);
  const auto cols = args.int_flag("cols", 33, 2, 1024);
  const auto seed =
      args.int_flag("seed", 17, std::numeric_limits<std::int64_t>::min());
  const auto no_dynamic_weights = args.bool_flag("no-dynamic-weights", false);
  const auto show_layers = args.bool_flag("layers", false);
  const auto parsed_policy = accel::parse_scheduler_policy(policy);
  if (!parsed_policy) {
    std::fprintf(stderr, "drift_graph: unknown --policy '%s' "
                 "(valid: greedy, exhaustive, fixed)\n", policy.c_str());
  }
  if (!parsed_policy || !budget || !rows || !cols || !seed ||
      !no_dynamic_weights || !show_layers) {
    return false;
  }
  config.drift_policy = *parsed_policy;
  config.noise_budget = *budget;
  config.hw.array.rows = *rows;
  config.hw.array.cols = *cols;
  config.seed = static_cast<std::uint64_t>(*seed);
  config.drift_dynamic_weights = !*no_dynamic_weights;
  layers = *show_layers;
  return true;
}

/// Loads the workload run and compare read into `spec`, from exactly
/// one source: one topology FILE (exported, and so validated, before
/// any artifact is armed) or --model=NAME.  Returns 0, or the exit code
/// after printing why: 2 for a usage error (no source or more than one,
/// an unknown name), 1 for a file that does not load.  A file that
/// loads but does not validate throws check_error.
int load_source(const Args& args, const std::vector<std::string>& files,
                nn::WorkloadSpec& spec) {
  const std::optional<std::string> name = args.get("model");
  if (files.size() + (name ? 1 : 0) != 1) {
    std::fprintf(stderr, "drift_graph: give one FILE or --model=NAME\n");
    return 2;
  }
  if (name) {
    try {
      spec = nn::make_workload(*name);
    } catch (const check_error& e) {
      std::fprintf(stderr, "drift_graph: %s\n", e.what());
      return 2;
    }
    return 0;
  }
  drift::graph::Graph g;
  if (!load_graph(files[0], g)) return 1;
  spec = export_workload(g);
  return 0;
}

void print_header(const nn::WorkloadSpec& spec,
                  const accel::PipelineConfig& config) {
  std::printf("workload %s: %lld GEMMs, %.2f GMACs, array %lldx%lld "
              "(%lld units), budget %.3f\n\n",
              spec.model.c_str(),
              static_cast<long long>(spec.total_gemms()),
              static_cast<double>(spec.total_macs()) / 1e9,
              static_cast<long long>(config.hw.array.rows),
              static_cast<long long>(config.hw.array.cols),
              static_cast<long long>(config.hw.array.units()),
              config.noise_budget);
}

/// One design's totals and energy split, then with `layers` its
/// per-layer table.
void print_run(const accel::RunResult& r, bool layers) {
  std::printf("%-10s cycles=%-12lld stalls=%-10lld dram=%.1f MB "
              "energy=%.3f mJ (static %.1f%% dram %.1f%% buffer %.1f%% "
              "core %.1f%%)\n",
              r.accelerator.c_str(), static_cast<long long>(r.cycles),
              static_cast<long long>(r.stall_cycles),
              static_cast<double>(r.dram_bytes) / 1e6,
              r.energy.total_pj() / 1e9,
              100.0 * r.energy.static_pj / r.energy.total_pj(),
              100.0 * r.energy.dram_pj / r.energy.total_pj(),
              100.0 * r.energy.buffer_pj / r.energy.total_pj(),
              100.0 * r.energy.core_pj / r.energy.total_pj());
  if (!layers) return;
  TextTable t({"layer", "compute", "dram", "cycles", "util"});
  for (const auto& l : r.layers) {
    t.add_row({l.layer, std::to_string(l.compute_cycles),
               std::to_string(l.dram_cycles), std::to_string(l.cycles),
               TextTable::pct(l.utilization)});
  }
  std::printf("%s", t.to_string().c_str());
}

int cmd_run(const Args& args, const std::vector<std::string>& files) {
  nn::WorkloadSpec spec;
  if (const int rc = load_source(args, files, spec)) return rc;
  GraphPipelineConfig config;
  bool layers = false;
  const std::string algo = args.get_string("algo", "drift");
  const auto parsed_algo = nn::parse_mix_algorithm(algo);
  if (!parsed_algo) {
    std::fprintf(stderr, "drift_graph run: unknown --algo '%s' "
                 "(valid: int8, drq, drift)\n", algo.c_str());
  }
  if (!read_sim_flags(args, config, layers) || !parsed_algo) return 2;
  config.algo = *parsed_algo;
  const auto artifacts = obs::ReportOptions::from_args(
      args, std::string("--model, --algo, ") + kSimFlags);
  if (!artifacts) return 2;

  const auto result = run_graph_pipeline(std::move(spec), config);
  print_header(result.workload, config);
  print_run(result.run, layers);
  return artifacts->write() ? 0 : 1;
}

int cmd_compare(const Args& args, const std::vector<std::string>& files) {
  nn::WorkloadSpec spec;
  if (const int rc = load_source(args, files, spec)) return rc;
  accel::CompareConfig config;
  bool layers = false;
  if (!read_sim_flags(args, config, layers)) return 2;
  const auto artifacts = obs::ReportOptions::from_args(
      args, std::string("--model, ") + kSimFlags);
  if (!artifacts) return 2;

  print_header(spec, config);
  const auto cmp = accel::compare_workload(spec, config);
  record_mix_coverage(cmp.drift_mixes);
  for (const accel::RunResult* r :
       {&cmp.eyeriss, &cmp.bitfusion, &cmp.drq, &cmp.drift}) {
    print_run(*r, layers);
  }
  std::printf("\nspeedup over Eyeriss: BitFusion %.2fx, DRQ %.2fx, "
              "Drift %.2fx\n",
              cmp.speedup_bitfusion(), cmp.speedup_drq(),
              cmp.speedup_drift());

  // With --trace-out, build_timeline also renders the timeline.dram and
  // timeline.compute tracks.
  std::vector<accel::TimelineLayer> timeline_layers;
  for (const auto& l : cmp.drift.layers) {
    timeline_layers.push_back({l.layer, l.compute_cycles, l.dram_cycles});
  }
  const auto timeline = accel::build_timeline(timeline_layers);
  std::printf("\nDrift double-buffered timeline (unique layers, repeats "
              "collapsed): %lld cycles, %.1f%% of DRAM hidden under "
              "compute\n",
              static_cast<long long>(timeline.total_cycles),
              100.0 * timeline.overlap_fraction);
  if (timeline.entries.size() <= 24) {
    std::printf("%s", timeline.gantt().c_str());
  }

  const auto report =
      accel::evaluate_controller(cmp.drift_mixes, config.hw.array);
  std::printf("\ncontroller: peak index buffer %lld bytes (%s), "
              "control work hidden under compute for %.1f%% of layers\n",
              static_cast<long long>(report.peak_index_bytes),
              report.fits_index_buffer ? "fits" : "OVERFLOWS",
              100.0 * report.overlapped_fraction);
  return artifacts->write() ? 0 : 1;
}

int cmd_list() {
  std::printf("workloads (run or compare --model=NAME):\n");
  for (const std::string& name : nn::workload_names()) {
    std::printf("  %s\n", name.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Args::parse(argc, argv);
  const auto& positional = args.positional();
  const std::optional<bool> help = args.bool_flag("help", false);
  if (!help) return 2;
  if (*help || positional.empty()) {
    std::printf("%s", kUsage);
    return *help ? 0 : 2;
  }
  const std::string command = positional.front();
  const std::vector<std::string> rest(positional.begin() + 1,
                                      positional.end());
  const bool flagless =
      command == "validate" || command == "shapes" || command == "list";
  if (flagless && args.reject_unqueried("none")) return 2;
  if (command == "list" && !rest.empty()) {
    std::fprintf(stderr, "drift_graph list: unexpected argument '%s'\n",
                 rest.front().c_str());
    return 2;
  }
  try {
    if (command == "validate") return cmd_validate(rest);
    if (command == "shapes") return cmd_shapes(rest);
    if (command == "run") return cmd_run(args, rest);
    if (command == "compare") return cmd_compare(args, rest);
    if (command == "list") return cmd_list();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "drift_graph: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "drift_graph: unknown command '%s'\n%s",
               command.c_str(), kUsage);
  return 2;
}
