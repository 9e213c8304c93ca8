// Operator-graph data model for whole-model topologies.
//
// A Graph is a list of named typed ops (nodes) wired by name: each
// node's inputs reference either a graph input or an earlier/later
// node — the structure is a DAG, not a layer list, so residual adds,
// concats and multi-branch topologies are first-class.  Nodes carry an
// attribute map (kernel sizes, widths, head counts) instead of
// per-op structs, so the whole surface serializes to the tiny JSON
// topology format in graph/json_topology.hpp and new workloads become
// data, not code.
//
// Everything here is pure structure: validation and deterministic
// topological ordering.  Shape inference lives with the op registry
// (graph/ops.hpp), execution in graph/executor.hpp, and the hardware
// workload export in graph/workload_export.hpp.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace drift::graph {

/// One node attribute: a tagged int / double / string scalar.
struct Attr {
  enum class Kind { kInt, kDouble, kString };

  Kind kind = Kind::kInt;
  std::int64_t i = 0;
  double d = 0.0;
  std::string s;

  static Attr of_int(std::int64_t v);
  static Attr of_double(double v);
  static Attr of_string(std::string v);

  bool operator==(const Attr& other) const;
};

/// Sorted so serialization and error listings are deterministic.
using AttrMap = std::map<std::string, Attr>;

/// One operator instance.  `op` names an entry of the registry
/// (graph/ops.hpp); `inputs` name graph inputs or producer nodes.
struct Node {
  std::string name;
  std::string op;
  std::vector<std::string> inputs;
  AttrMap attrs;

  /// Attribute lookups with fallback (bind/run-time use; the
  /// validation pass reports missing required attrs with node names).
  std::int64_t attr_int(const std::string& key, std::int64_t fallback) const;
  std::string attr_string(const std::string& key,
                          const std::string& fallback) const;
  bool has_attr(const std::string& key) const;
};

/// A named graph input with its static shape.
struct GraphInput {
  std::string name;
  std::vector<std::int64_t> dims;
};

/// Whole topology: inputs, nodes (any order consistent with some DAG),
/// output node names, plus the model-level metadata the hardware
/// export needs (family selects the distribution profiles).
struct Graph {
  std::string name;
  std::string family = "cnn";  ///< cnn | vit | bert | llm
  std::vector<GraphInput> inputs;
  std::vector<Node> nodes;
  std::vector<std::string> outputs;

  /// Index of the node named `name`, or -1.
  int node_index(const std::string& node_name) const;
  /// Index of the graph input named `name`, or -1.
  int input_index(const std::string& input_name) const;
};

/// Structural validation: unique names, known ops, resolvable inputs,
/// per-op arity, acyclicity, and non-empty resolvable outputs.  Every
/// message names the offending node ("node 'x': ...").  An empty
/// result means the graph is well-formed (shapes are checked
/// separately by infer_shapes in graph/ops.hpp).
std::vector<std::string> validate(const Graph& g);

/// Deterministic topological order (node indices): Kahn's algorithm
/// with the ready set kept in insertion order, so a graph whose nodes
/// are already listed in execution order keeps that order exactly.
/// Requires validate(g) to be clean.
std::vector<int> topological_order(const Graph& g);

}  // namespace drift::graph
