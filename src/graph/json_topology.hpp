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
// Attribute values are typed by their JSON form: integers stay
// integers, numbers with a fraction/exponent become doubles, strings
// stay strings.  The text is read by the shared JSON module
// (util/json.hpp), so its grammar, depth cap and error text apply;
// this file only converts the document to a graph.  String-in /
// string-out (no file I/O in src/): tools and tests read the file and
// pass the text.
//
// to_topology_json() is the inverse and is canonical — sorted attr
// keys (AttrMap is a std::map), fixed 2-space indentation, shortest
// round-trip doubles — so emit(parse(text)) is a fixed point and the
// committed model-zoo files can be pinned byte-exact against the
// programmatic zoo builders.
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

/// Canonical serialization (see header comment).
std::string to_topology_json(const Graph& g);

}  // namespace drift::graph
