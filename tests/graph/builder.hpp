// Fluent graph construction for the validation tests.
//
// The builder is sugar over the Graph data model: it keeps track of
// the most recently produced value so straight-line chains read like a
// layer list, while branches (residual adds, concats) name their
// operands explicitly.  build() returns the plain Graph — the builder
// holds no extra state worth keeping.  Topologies outside the tests
// are JSON files (graph/json_topology.hpp).
#pragma once

#include <utility>

#include "graph/graph.hpp"

namespace drift::graph {

class GraphBuilder {
 public:
  explicit GraphBuilder(std::string name, std::string family = "cnn") {
    graph_.name = std::move(name);
    graph_.family = std::move(family);
  }

  /// Declares a graph input; it becomes the "last value" for then().
  GraphBuilder& input(std::string input_name,
                      std::vector<std::int64_t> dims) {
    last_ = input_name;
    graph_.inputs.push_back(GraphInput{std::move(input_name),
                                       std::move(dims)});
    return *this;
  }

  /// Adds a node with explicit operand names.
  GraphBuilder& node(std::string node_name, std::string op,
                     std::vector<std::string> node_inputs,
                     AttrMap attrs = {}) {
    last_ = node_name;
    graph_.nodes.push_back(Node{std::move(node_name), std::move(op),
                                std::move(node_inputs), std::move(attrs)});
    return *this;
  }

  /// Adds a node consuming the previous value (straight-line chains).
  GraphBuilder& then(std::string node_name, std::string op,
                     AttrMap attrs = {}) {
    return node(std::move(node_name), std::move(op), {last_},
                std::move(attrs));
  }

  /// Declares a graph output.
  GraphBuilder& output(std::string value_name) {
    graph_.outputs.push_back(std::move(value_name));
    return *this;
  }

  /// Finishes the graph; if no output was declared, the last value is
  /// promoted to the sole output.
  Graph build() const {
    Graph g = graph_;
    if (g.outputs.empty() && !last_.empty()) g.outputs.push_back(last_);
    return g;
  }

 private:
  Graph graph_;
  std::string last_;
};

}  // namespace drift::graph
