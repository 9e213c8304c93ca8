// Op registry and static shape inference.
//
// Every graph op is one registry entry: arity bounds, the attributes
// it reads with their kinds, the values its `kind` attribute takes, a
// shape rule, and an optional hardware-workload exporter that names
// the GEMMs the selector -> scheduler -> cycle-sim pipeline should
// account for.  Validation reads the same entry, so what an op accepts
// and what it reads cannot drift apart.  Adding an op touches exactly
// one table.
#pragma once

#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "nn/workload.hpp"

namespace drift::graph {

/// A static shape: one extent per axis.
using Dims = std::vector<std::int64_t>;

/// "[2, 3, 4]" — for error messages and artifacts.
std::string dims_to_string(const Dims& dims);

/// One attribute an op reads, with the kind it reads it as.
struct AttrSpec {
  const char* name;
  Attr::Kind kind;
};

/// One value of a GEMM op's `kind` attribute and the layer kind the
/// export gives its GEMM.
struct KindName {
  const char* name;
  nn::LayerKind kind;
};

/// One registry entry.  All hooks are stateless free functions; node
/// attributes carry the per-instance configuration.
struct OpSpec {
  int min_inputs = 1;
  int max_inputs = 1;  ///< -1 = unbounded

  /// Every attribute the op reads, sorted by name; validation rejects
  /// any other name and a value of the other kind.
  std::vector<AttrSpec> attrs;

  /// The values of the `kind` attribute, the default first; empty when
  /// the op reads no `kind`.  Validation rejects any other value, and
  /// the exporter maps the name through this same table.
  std::vector<KindName> kinds;

  /// Shape rule: fills `out` and returns "" on success, otherwise a
  /// message (the caller prepends the node name).
  std::string (*infer)(const Node& node, const std::vector<Dims>& in,
                       Dims& out) = nullptr;

  /// Appends this node's GEMMs (named `node.name[...]`) to a hardware
  /// workload export.  Null for non-GEMM ops.
  void (*export_gemms)(const Node& node, const std::vector<Dims>& in,
                       const Dims& out,
                       std::vector<nn::LayerGemm>& gemms) = nullptr;
};

/// Registry lookup; nullptr for unknown ops.
const OpSpec* find_op(const std::string& op);

/// Comma-separated sorted op names (for unknown-op error messages).
std::string op_names();

/// Result of whole-graph shape inference.
struct ShapeResult {
  /// Shape of every graph input and every successfully-inferred node.
  std::map<std::string, Dims> by_name;
  /// "node 'x': ..." messages; empty means every node has a shape.
  std::vector<std::string> errors;

  bool ok() const { return errors.empty(); }
};

/// Validates `g` structurally, then walks it in topological order
/// applying each op's shape rule.  A node whose producer failed to
/// infer is skipped (only the root cause is reported).
ShapeResult infer_shapes(const Graph& g);

/// Right-aligned numpy-style broadcast of two shapes; returns "" and
/// fills `out` on success, otherwise an error message.  Exposed for
/// the ref-oracle pin in tests/prop/prop_graph.cpp.
std::string broadcast_dims(const Dims& a, const Dims& b, Dims& out);

}  // namespace drift::graph
