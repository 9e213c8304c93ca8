#include "graph/workload_export.hpp"

#include "nn/synthetic.hpp"
#include "util/assert.hpp"

namespace drift::graph {

std::optional<nn::ModelFamily> family_from_string(const std::string& family) {
  for (const nn::ModelFamily f :
       {nn::ModelFamily::kCnn, nn::ModelFamily::kVit, nn::ModelFamily::kBert,
        nn::ModelFamily::kLlm}) {
    if (nn::to_string(f) == family) return f;
  }
  return std::nullopt;
}

nn::WorkloadSpec to_workload(const Graph& g, const ShapeResult& shapes) {
  DRIFT_CHECK(shapes.ok(), "to_workload requires clean shape inference");
  const std::optional<nn::ModelFamily> family = family_from_string(g.family);
  DRIFT_CHECK(family.has_value(), "validated graph has an unknown family");
  nn::WorkloadSpec spec;
  spec.model = g.name;
  spec.family = *family;
  switch (spec.family) {
    case nn::ModelFamily::kCnn: spec.act_profile = nn::cnn_profile(); break;
    case nn::ModelFamily::kVit: spec.act_profile = nn::vit_profile(); break;
    case nn::ModelFamily::kBert: spec.act_profile = nn::bert_profile(); break;
    case nn::ModelFamily::kLlm: spec.act_profile = nn::llm_profile(); break;
  }
  spec.weight_profile = nn::weight_profile();

  for (const int idx : topological_order(g)) {
    const Node& node = g.nodes[static_cast<std::size_t>(idx)];
    const OpSpec* op = find_op(node.op);
    DRIFT_CHECK(op != nullptr, "validated graph has unknown op");
    if (op->export_gemms == nullptr) continue;
    std::vector<Dims> in_dims;
    in_dims.reserve(node.inputs.size());
    for (const std::string& in_name : node.inputs) {
      in_dims.push_back(shapes.by_name.at(in_name));
    }
    op->export_gemms(node, in_dims, shapes.by_name.at(node.name),
                     spec.layers);
  }
  return spec;
}

}  // namespace drift::graph
