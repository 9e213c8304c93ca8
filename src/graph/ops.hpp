// Op registry and static shape inference.
//
// Every graph op is one registry entry: arity bounds, a shape rule, a
// binder that constructs the backing src/nn layer (consuming the rng
// stream exactly like hand-built Sequential models do), an optional
// graph-level evaluator for the ops Sequential cannot express
// (add / concat / to_tokens), and an optional hardware-workload
// exporter that names the GEMMs the selector -> scheduler -> cycle-sim
// pipeline should account for.  Adding an op touches exactly one table.
#pragma once

#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "nn/layer.hpp"
#include "nn/workload.hpp"
#include "util/rng.hpp"

namespace drift::graph {

/// A static shape: one extent per axis.
using Dims = std::vector<std::int64_t>;

/// "[2, 3, 4]" — for error messages and artifacts.
std::string dims_to_string(const Dims& dims);

/// One registry entry.  All hooks are stateless free functions; node
/// attributes carry the per-instance configuration.
struct OpSpec {
  int min_inputs = 1;
  int max_inputs = 1;  ///< -1 = unbounded

  /// Shape rule: fills `out` and returns "" on success, otherwise a
  /// message (the caller prepends the node name).
  std::string (*infer)(const Node& node, const std::vector<Dims>& in,
                       Dims& out) = nullptr;

  /// Constructs the backing nn layer.  Parameterized ops consume `rng`
  /// in construction order — the same stream a hand-built Sequential
  /// uses, which is what makes graph execution bitwise-pinnable against
  /// it.  Null for graph-level ops evaluated by `run`.
  nn::LayerPtr (*bind)(const Node& node, const std::vector<Dims>& in,
                       Rng& rng) = nullptr;

  /// Graph-level evaluation for ops without an nn layer (float path,
  /// no quantization: residual adds and concats run on psums on the
  /// real accelerator).
  TensorF (*run)(const Node& node,
                 const std::vector<const TensorF*>& in) = nullptr;

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
