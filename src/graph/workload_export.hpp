// Graph -> hardware workload export.
//
// Walks the graph in topological order and asks each GEMM-bearing op
// (conv2d, depthwise_conv2d, linear, attention) for its LayerGemm
// entries, producing the same nn::WorkloadSpec the hand-written
// make_resnet18()-style builders emit — so a whole topology flows
// through the existing selector -> scheduler -> cycle-sim pipeline
// unchanged, one per-layer Eq. 7/8 + stall + DRAM artifact per node.
#pragma once

#include <optional>

#include "graph/graph.hpp"
#include "graph/ops.hpp"
#include "nn/workload.hpp"

namespace drift::graph {

/// Maps the graph's family tag (the nn::to_string name: "cnn" | "vit" |
/// "bert" | "llm") to the model family; nullopt for any other tag.
std::optional<nn::ModelFamily> family_from_string(const std::string& family);

/// Exports every GEMM-bearing node.  `shapes` must be a clean
/// infer_shapes(g) result (DRIFT_CHECKed).
nn::WorkloadSpec to_workload(const Graph& g, const ShapeResult& shapes);

}  // namespace drift::graph
