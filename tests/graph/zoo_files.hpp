// The committed model-zoo topologies, examples/model_zoo/*.json: the
// only definition of the zoo graphs, read here the way drift_graph
// reads them (graphcli::read_topology_file).
#pragma once

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "pipeline.hpp"

namespace drift::zoo_files {

inline std::string path(const std::string& stem) {
  return std::string(DRIFT_MODEL_ZOO_DIR) + "/" + stem + ".json";
}

/// The stem of every examples/model_zoo/*.json, sorted.
inline std::vector<std::string> stems() {
  std::vector<std::string> out;
  for (const auto& entry :
       std::filesystem::directory_iterator(DRIFT_MODEL_ZOO_DIR)) {
    if (entry.path().extension() == ".json") {
      out.push_back(entry.path().stem().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Parses examples/model_zoo/<stem>.json; throws if it does not parse.
inline graph::Graph load(const std::string& stem) {
  graph::TopologyParseResult parsed = graphcli::read_topology_file(path(stem));
  if (!parsed.ok()) {
    throw std::runtime_error(path(stem) + ": " + parsed.errors.front());
  }
  return std::move(parsed.graph);
}

}  // namespace drift::zoo_files
