#include "graph/graph.hpp"

#include <algorithm>
#include <set>

#include "graph/ops.hpp"
#include "graph/workload_export.hpp"
#include "util/assert.hpp"

namespace drift::graph {

Attr Attr::of_int(std::int64_t v) {
  Attr a;
  a.kind = Kind::kInt;
  a.i = v;
  return a;
}

Attr Attr::of_string(std::string v) {
  Attr a;
  a.kind = Kind::kString;
  a.s = std::move(v);
  return a;
}

std::int64_t Node::attr_int(const std::string& key,
                            std::int64_t fallback) const {
  const auto it = attrs.find(key);
  if (it == attrs.end()) return fallback;
  DRIFT_CHECK(it->second.kind == Attr::Kind::kInt,
              "node '" + name + "': attribute '" + key + "' is not an integer");
  return it->second.i;
}

std::string Node::attr_string(const std::string& key,
                              const std::string& fallback) const {
  const auto it = attrs.find(key);
  if (it == attrs.end()) return fallback;
  DRIFT_CHECK(it->second.kind == Attr::Kind::kString,
              "node '" + name + "': attribute '" + key + "' is not a string");
  return it->second.s;
}

bool Node::has_attr(const std::string& key) const {
  return attrs.find(key) != attrs.end();
}

int Graph::node_index(const std::string& node_name) const {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].name == node_name) return static_cast<int>(i);
  }
  return -1;
}

int Graph::input_index(const std::string& input_name) const {
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (inputs[i].name == input_name) return static_cast<int>(i);
  }
  return -1;
}

namespace {

/// "valid for OP: a, b, c" over the names of `entries` (an op's
/// attributes or its `kind` values), for validation messages.
template <typename Entry>
std::string valid_names(const std::string& op,
                        const std::vector<Entry>& entries) {
  std::string names;
  for (const Entry& e : entries) {
    if (!names.empty()) names += ", ";
    names += e.name;
  }
  return "valid for " + op + ": " + (names.empty() ? "none" : names);
}

/// Producer-index adjacency: for each node, the indices of the nodes
/// it consumes (graph inputs excluded).  Only meaningful once names
/// resolve, so validation builds it after the reference checks.
std::vector<std::vector<int>> node_producers(const Graph& g) {
  std::vector<std::vector<int>> producers(g.nodes.size());
  for (std::size_t n = 0; n < g.nodes.size(); ++n) {
    for (const std::string& in : g.nodes[n].inputs) {
      const int p = g.node_index(in);
      if (p >= 0) producers[n].push_back(p);
    }
  }
  return producers;
}

}  // namespace

std::vector<std::string> validate(const Graph& g) {
  std::vector<std::string> errors;
  const auto node_error = [&errors](const std::string& node,
                                    const std::string& message) {
    errors.push_back("node '" + node + "': " + message);
  };

  // Name uniqueness across inputs and nodes (one namespace: node
  // inputs reference either kind by name).
  std::set<std::string> names;
  for (const GraphInput& in : g.inputs) {
    if (in.name.empty()) {
      errors.push_back("graph input with empty name");
      continue;
    }
    if (!names.insert(in.name).second) {
      node_error(in.name, "duplicate name (graph input)");
    }
    if (in.dims.empty()) node_error(in.name, "graph input has empty shape");
    for (const std::int64_t d : in.dims) {
      if (d <= 0) {
        node_error(in.name, "graph input has non-positive dimension");
        break;
      }
    }
  }
  for (const Node& node : g.nodes) {
    if (node.name.empty()) {
      errors.push_back("node with empty name (op '" + node.op + "')");
      continue;
    }
    if (!names.insert(node.name).second) {
      node_error(node.name, "duplicate name");
    }
  }

  // Op existence, arity, attributes, and input resolvability.
  for (const Node& node : g.nodes) {
    const OpSpec* spec = find_op(node.op);
    if (spec == nullptr) {
      node_error(node.name,
                 "unknown op '" + node.op + "' (known: " + op_names() + ")");
    } else {
      const int arity = static_cast<int>(node.inputs.size());
      if (arity < spec->min_inputs ||
          (spec->max_inputs >= 0 && arity > spec->max_inputs)) {
        node_error(node.name,
                   "op '" + node.op + "' expects " +
                       std::to_string(spec->min_inputs) +
                       (spec->max_inputs == spec->min_inputs
                            ? ""
                            : (spec->max_inputs < 0
                                   ? "+"
                                   : ".." + std::to_string(spec->max_inputs))) +
                       " input(s), got " + std::to_string(arity));
      }
      // Every attribute must be one the op reads, of the kind it reads
      // it as; a `kind` must be one of the op's values.
      for (const auto& [key, attr] : node.attrs) {
        const auto read = std::find_if(
            spec->attrs.begin(), spec->attrs.end(),
            [&key](const AttrSpec& a) { return key == a.name; });
        if (read == spec->attrs.end()) {
          node_error(node.name, "unknown attribute '" + key + "' (" +
                                    valid_names(node.op, spec->attrs) + ")");
        } else if (read->kind != attr.kind) {
          node_error(node.name, "attribute '" + key + "' must be " +
                                    (read->kind == Attr::Kind::kInt
                                         ? "an integer"
                                         : "a string"));
        } else if (key == "kind" &&
                   std::none_of(spec->kinds.begin(), spec->kinds.end(),
                                [&attr](const KindName& k) {
                                  return attr.s == k.name;
                                })) {
          node_error(node.name, "attribute 'kind' has unknown value '" +
                                    attr.s + "' (" +
                                    valid_names(node.op, spec->kinds) + ")");
        }
      }
    }
    for (const std::string& in : node.inputs) {
      if (g.node_index(in) < 0 && g.input_index(in) < 0) {
        node_error(node.name,
                   "input '" + in + "' is neither a graph input nor a node");
      }
    }
  }

  // Outputs must name nodes (or inputs, for degenerate passthroughs).
  if (g.outputs.empty()) {
    errors.push_back("graph '" + g.name + "' declares no outputs");
  }
  for (const std::string& out : g.outputs) {
    if (g.node_index(out) < 0 && g.input_index(out) < 0) {
      node_error(out, "declared as graph output but never defined");
    }
  }

  // Acyclicity (only once references resolve — a dangling name is
  // already reported above and would corrupt the in-degree count).
  if (errors.empty()) {
    const auto producers = node_producers(g);
    std::vector<int> indegree(g.nodes.size(), 0);
    for (std::size_t n = 0; n < g.nodes.size(); ++n) {
      indegree[n] = static_cast<int>(producers[n].size());
    }
    std::vector<std::vector<int>> consumers(g.nodes.size());
    for (std::size_t n = 0; n < g.nodes.size(); ++n) {
      for (const int p : producers[n]) {
        consumers[static_cast<std::size_t>(p)].push_back(static_cast<int>(n));
      }
    }
    std::vector<int> ready;
    for (std::size_t n = 0; n < g.nodes.size(); ++n) {
      if (indegree[n] == 0) ready.push_back(static_cast<int>(n));
    }
    std::size_t emitted = 0;
    for (std::size_t head = 0; head < ready.size(); ++head) {
      const int n = ready[head];
      ++emitted;
      for (const int c : consumers[static_cast<std::size_t>(n)]) {
        if (--indegree[static_cast<std::size_t>(c)] == 0) ready.push_back(c);
      }
    }
    if (emitted != g.nodes.size()) {
      for (std::size_t n = 0; n < g.nodes.size(); ++n) {
        if (indegree[n] > 0) {
          node_error(g.nodes[n].name, "part of a dependency cycle");
          break;  // one representative keeps the message actionable
        }
      }
    }
  }

  // The family selects the export's distribution profiles.
  if (!family_from_string(g.family)) {
    errors.push_back("graph '" + g.name + "': unknown family '" + g.family +
                     "' (valid: cnn, vit, bert, llm)");
  }
  return errors;
}

std::vector<int> topological_order(const Graph& g) {
  DRIFT_CHECK(validate(g).empty(),
              "topological_order requires a validated graph");
  const auto producers = node_producers(g);
  std::vector<int> indegree(g.nodes.size(), 0);
  std::vector<std::vector<int>> consumers(g.nodes.size());
  for (std::size_t n = 0; n < g.nodes.size(); ++n) {
    indegree[n] = static_cast<int>(producers[n].size());
    for (const int p : producers[n]) {
      consumers[static_cast<std::size_t>(p)].push_back(static_cast<int>(n));
    }
  }
  // The ready set is a sorted container keyed by insertion index, so
  // the emitted order is the unique smallest-index-first topological
  // order — stable across platforms and refactors.
  std::set<int> ready;
  for (std::size_t n = 0; n < g.nodes.size(); ++n) {
    if (indegree[n] == 0) ready.insert(static_cast<int>(n));
  }
  std::vector<int> order;
  order.reserve(g.nodes.size());
  while (!ready.empty()) {
    const int n = *ready.begin();
    ready.erase(ready.begin());
    order.push_back(n);
    for (const int c : consumers[static_cast<std::size_t>(n)]) {
      if (--indegree[static_cast<std::size_t>(c)] == 0) ready.insert(c);
    }
  }
  DRIFT_CHECK_EQ(order.size(), g.nodes.size(), "cycle in validated graph");
  return order;
}

}  // namespace drift::graph
