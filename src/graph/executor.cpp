#include "graph/executor.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace drift::graph {

GraphExecutor::GraphExecutor(Graph g, Rng& rng) : graph_(std::move(g)) {
  const std::vector<std::string> structural = validate(graph_);
  if (!structural.empty()) {
    throw check_error("invalid graph: " + structural.front());
  }
  shapes_ = infer_shapes(graph_);
  if (!shapes_.ok()) {
    throw check_error("shape inference failed: " + shapes_.errors.front());
  }

  layers_.reserve(graph_.nodes.size());
  specs_.reserve(graph_.nodes.size());
  span_names_.reserve(graph_.nodes.size());
  // Insertion order, NOT topological order: the rng stream must match
  // a Sequential built from the same node list.
  for (const Node& node : graph_.nodes) {
    const OpSpec* spec = find_op(node.op);
    DRIFT_CHECK(spec != nullptr, "validated graph has unknown op");
    specs_.push_back(spec);
    span_names_.push_back("graph." + node.name);
    std::vector<Dims> in_dims;
    in_dims.reserve(node.inputs.size());
    for (const std::string& in_name : node.inputs) {
      in_dims.push_back(shapes_.by_name.at(in_name));
    }
    layers_.push_back(spec->bind != nullptr ? spec->bind(node, in_dims, rng)
                                            : nullptr);
  }
}

std::vector<TensorF> GraphExecutor::run(const std::vector<TensorF>& inputs,
                                        nn::QuantEngine& engine) {
  return run_with_order(inputs, engine, topological_order(graph_));
}

std::vector<TensorF> GraphExecutor::run_with_order(
    const std::vector<TensorF>& inputs, nn::QuantEngine& engine,
    const std::vector<int>& order) {
  DRIFT_CHECK_EQ(inputs.size(), graph_.inputs.size(),
                 "graph input count mismatch");
  DRIFT_CHECK_EQ(order.size(), graph_.nodes.size(),
                 "order must cover every node");
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    DRIFT_CHECK(inputs[i].shape().dims() == graph_.inputs[i].dims,
                "graph input shape mismatch");
  }

  // Value slots: graph inputs first, then one per node.  Refcount =
  // consuming nodes + 1 if the value is a graph output, so outputs are
  // never released mid-run.
  const std::size_t num_inputs = graph_.inputs.size();
  const auto slot_of = [&](const std::string& name) {
    const int in_idx = graph_.input_index(name);
    if (in_idx >= 0) return static_cast<std::size_t>(in_idx);
    const int node_idx = graph_.node_index(name);
    DRIFT_CHECK(node_idx >= 0, "unresolvable value name");
    return num_inputs + static_cast<std::size_t>(node_idx);
  };

  std::vector<std::optional<TensorF>> slots(num_inputs +
                                            graph_.nodes.size());
  std::vector<std::int64_t> refcount(slots.size(), 0);
  for (const Node& node : graph_.nodes) {
    for (const std::string& in_name : node.inputs) {
      ++refcount[slot_of(in_name)];
    }
  }
  for (const std::string& out_name : graph_.outputs) {
    ++refcount[slot_of(out_name)];
  }

  std::int64_t resident = 0;
  peak_resident_bytes_ = 0;
  tensors_freed_ = 0;
  const auto tensor_bytes = [](const TensorF& t) {
    return t.numel() * static_cast<std::int64_t>(sizeof(float));
  };
  const auto place = [&](std::size_t slot, TensorF value) {
    resident += tensor_bytes(value);
    peak_resident_bytes_ = std::max(peak_resident_bytes_, resident);
    slots[slot] = std::move(value);
  };
  const auto release_if_dead = [&](std::size_t slot) {
    if (refcount[slot] == 0 && slots[slot].has_value()) {
      resident -= tensor_bytes(*slots[slot]);
      slots[slot].reset();
      ++tensors_freed_;
    }
  };

  for (std::size_t i = 0; i < num_inputs; ++i) {
    place(i, inputs[i]);
    release_if_dead(i);  // an unconsumed non-output input dies at once
  }

  std::vector<bool> executed(graph_.nodes.size(), false);
  for (const int idx : order) {
    DRIFT_CHECK_INDEX(idx, static_cast<std::int64_t>(graph_.nodes.size()));
    const auto node_idx = static_cast<std::size_t>(idx);
    DRIFT_CHECK(!executed[node_idx], "order repeats a node");
    const Node& node = graph_.nodes[node_idx];

    std::vector<const TensorF*> node_inputs;
    std::vector<std::size_t> input_slots;
    node_inputs.reserve(node.inputs.size());
    input_slots.reserve(node.inputs.size());
    for (const std::string& in_name : node.inputs) {
      const std::size_t slot = slot_of(in_name);
      DRIFT_CHECK(slots[slot].has_value(),
                  "order runs a node before its producer");
      node_inputs.push_back(&*slots[slot]);
      input_slots.push_back(slot);
    }

    {
      obs::ScopedSpan span(span_names_[node_idx].c_str());
      TensorF out =
          layers_[node_idx] != nullptr
              ? layers_[node_idx]->forward(*node_inputs[0], engine)
              : specs_[node_idx]->run(node, node_inputs);
      DRIFT_CHECK(out.shape().dims() == shapes_.by_name.at(node.name),
                  "executed shape disagrees with inference");
      place(num_inputs + node_idx, std::move(out));
    }
    DRIFT_OBS_COUNT("graph.nodes_executed", 1);

    executed[node_idx] = true;
    for (const std::size_t slot : input_slots) {
      --refcount[slot];
      release_if_dead(slot);
    }
  }

  DRIFT_OBS_GAUGE_SET("graph.peak_resident_bytes",
                      static_cast<double>(peak_resident_bytes_));

  std::vector<TensorF> outputs;
  outputs.reserve(graph_.outputs.size());
  for (const std::string& out_name : graph_.outputs) {
    const std::size_t slot = slot_of(out_name);
    DRIFT_CHECK(slots[slot].has_value(), "output value missing after run");
    outputs.push_back(*slots[slot]);
  }
  return outputs;
}

}  // namespace drift::graph
