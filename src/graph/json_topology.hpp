// Tiny JSON topology format — whole-model workloads as data.
//
// Schema (examples/model_zoo/*.json):
//   {
//     "name": "resnet18",
//     "family": "cnn",                       // cnn | vit | bert | llm
//     "inputs":  [{"name": "image", "shape": [3, 224, 224]}],
//     "nodes":   [{"name": "conv1", "op": "conv2d",
//                  "inputs": ["image"],
//                  "attrs": {"out_channels": 64, "kernel": 7,
//                            "stride": 2, "pad": 3}}, ...],
//     "outputs": ["fc"]
//   }
//
// The committed examples/model_zoo/*.json files are the only
// definition of the five zoo topologies.  An attribute value is an
// integer or a string; a number with a fraction or exponent is an
// error naming the node and the attribute, since no op reads one.  The
// text is read by the shared JSON module (util/json.hpp), so its
// grammar, depth cap and error text apply; this file only converts the
// document to a graph.  String-in (no file I/O in src/): tools and
// tests read the file and pass the text.
#pragma once

#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace drift::graph {

/// Parse outcome: a graph plus error messages (one "JSON error at byte
/// N: ..." for a syntax error, node-named ones for schema errors).
struct TopologyParseResult {
  Graph graph;
  std::vector<std::string> errors;

  bool ok() const { return errors.empty(); }
};

TopologyParseResult parse_topology(const std::string& text);

}  // namespace drift::graph
