// Graph -> hardware pipeline glue.
//
// Reads a topology file (examples/model_zoo/*.json is the model zoo),
// exports a validated graph's GEMMs (graph/workload_export.hpp) and
// routes them through the existing selector -> scheduler -> cycle
// model, with one obs layer record per GEMM: after nn::build_mixes,
// the pipeline opens each layer's DRIFT_OBS_LAYER_SCOPE in layer order
// to attribute the mix's coverage, into the same record the scheduler
// (Eq. 8 split, Eq. 7 latencies) and the accelerator's
// cycle/stall/DRAM accounting fill during the run — one per-layer
// artifact for a whole model in a single pass.
//
// Lives in tools/ (not src/graph) because the lint layer DAG places
// graph below accel: the graph library cannot depend on the
// accelerator models, so the composition happens here.
#pragma once

#include <vector>

#include <string>

#include "accel/compare.hpp"
#include "graph/graph.hpp"
#include "graph/json_topology.hpp"
#include "nn/precision_mix.hpp"

namespace drift::graphcli {

/// Pipeline knobs: the shared accelerator pipeline settings and mix
/// seed, plus the mix algorithm (which also selects the accelerator
/// model to run).
struct GraphPipelineConfig : accel::CompareConfig {
  nn::MixAlgorithm algo = nn::MixAlgorithm::kDrift;
};

/// Everything the run produced, for printing and for tests.
struct GraphPipelineResult {
  nn::WorkloadSpec workload;
  std::vector<nn::LayerMix> mixes;
  accel::RunResult run;
};

/// Reads and parses the topology file at `path`; a file that cannot be
/// opened is one error.
drift::graph::TopologyParseResult read_topology_file(const std::string& path);

/// Validates + shape-infers `g` (throws check_error naming the first
/// offending node on failure) and exports its GEMMs; a graph with no
/// GEMM node throws check_error naming the graph.
nn::WorkloadSpec export_workload(const drift::graph::Graph& g);

/// Adds each mix's Eq. 5/6 outcome (row classes and the
/// element-weighted 4-bit coverage) to its layer's obs record, opening
/// the layer's scope in mix order.  The mix path writes no record of
/// its own, so every command that builds mixes calls this.
void record_mix_coverage(const std::vector<nn::LayerMix>& mixes);

/// Builds the per-layer precision mixes of `workload` (an
/// export_workload result), attributes their coverage under per-layer
/// obs scopes (record_mix_coverage), and runs the accelerator model
/// matching `config.algo` (accel::make_accelerator).
GraphPipelineResult run_graph_pipeline(nn::WorkloadSpec workload,
                                       const GraphPipelineConfig& config);

}  // namespace drift::graphcli
