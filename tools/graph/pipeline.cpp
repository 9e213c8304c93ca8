#include "pipeline.hpp"

#include "graph/ops.hpp"
#include "graph/workload_export.hpp"
#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace drift::graphcli {

nn::WorkloadSpec export_workload(const drift::graph::Graph& g,
                                 const std::string& prefix) {
  const auto structural = drift::graph::validate(g);
  if (!structural.empty()) {
    throw check_error("invalid graph: " + structural.front());
  }
  const auto shapes = drift::graph::infer_shapes(g);
  if (!shapes.ok()) {
    throw check_error("shape inference failed: " + shapes.errors.front());
  }
  drift::graph::WorkloadExportOptions export_options;
  export_options.prefix = prefix;
  return drift::graph::to_workload(g, shapes, export_options);
}

GraphPipelineResult run_graph_pipeline(const drift::graph::Graph& g,
                                       const GraphPipelineConfig& config) {
  GraphPipelineResult result;
  result.workload = export_workload(g, config.prefix);

  result.mixes = nn::build_mixes(result.workload,
                                 config.mix_config(config.algo, config.seed));

  // Attribute each mix's Eq. 5/6 outcome (row classes and the
  // element-weighted 4-bit coverage) to its layer's record, in layer
  // order, ahead of the scheduler / cycle / DRAM stages that fill the
  // same record — one artifact per GEMM.
  for ([[maybe_unused]] const nn::LayerMix& mix : result.mixes) {
    DRIFT_OBS_LAYER_SCOPE(mix.layer.name);
    DRIFT_OBS_LAYER(
        rec, rec->subtensors_total += mix.work.m_high + mix.work.m_low;
        rec->subtensors_low += mix.work.m_low;
        rec->elements_total += (mix.work.m_high + mix.work.m_low) * mix.work.k;
        rec->elements_low += mix.work.m_low * mix.work.k);
  }

  result.run = accel::make_accelerator(config.algo, config.hw,
                                       config.drift_policy)
                   ->run(result.workload, result.mixes);
  return result;
}

}  // namespace drift::graphcli
