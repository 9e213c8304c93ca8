#include "pipeline.hpp"

#include <fstream>
#include <sstream>
#include <utility>

#include "graph/ops.hpp"
#include "graph/workload_export.hpp"
#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace drift::graphcli {

drift::graph::TopologyParseResult read_topology_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    drift::graph::TopologyParseResult result;
    result.errors.push_back("cannot open file");
    return result;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return drift::graph::parse_topology(text.str());
}

nn::WorkloadSpec export_workload(const drift::graph::Graph& g) {
  const auto structural = drift::graph::validate(g);
  if (!structural.empty()) {
    throw check_error("invalid graph: " + structural.front());
  }
  const auto shapes = drift::graph::infer_shapes(g);
  if (!shapes.ok()) {
    throw check_error("shape inference failed: " + shapes.errors.front());
  }
  nn::WorkloadSpec spec = drift::graph::to_workload(g, shapes);
  if (spec.layers.empty()) {
    throw check_error("graph '" + g.name + "' has no GEMM node to run");
  }
  return spec;
}

void record_mix_coverage(const std::vector<nn::LayerMix>& mixes) {
  for ([[maybe_unused]] const nn::LayerMix& mix : mixes) {
    DRIFT_OBS_LAYER_SCOPE(mix.layer.name);
    DRIFT_OBS_LAYER(
        rec, rec->subtensors_total += mix.work.m_high + mix.work.m_low;
        rec->subtensors_low += mix.work.m_low;
        rec->elements_total += (mix.work.m_high + mix.work.m_low) * mix.work.k;
        rec->elements_low += mix.work.m_low * mix.work.k);
  }
}

GraphPipelineResult run_graph_pipeline(nn::WorkloadSpec workload,
                                       const GraphPipelineConfig& config) {
  GraphPipelineResult result;
  result.workload = std::move(workload);

  result.mixes = nn::build_mixes(result.workload,
                                 config.mix_config(config.algo, config.seed));
  // Ahead of the scheduler / cycle / DRAM stages that fill the same
  // records, so the records keep layer order.
  record_mix_coverage(result.mixes);

  result.run = accel::make_accelerator(config.algo, config.hw,
                                       config.drift_policy)
                   ->run(result.workload, result.mixes);
  return result;
}

}  // namespace drift::graphcli
