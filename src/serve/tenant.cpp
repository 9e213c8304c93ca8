#include "serve/tenant.hpp"

#include "util/assert.hpp"

namespace drift::serve {
namespace {

nn::WorkloadSpec tiny_cnn() {
  nn::WorkloadSpec spec;
  spec.model = "tiny-cnn";
  spec.family = nn::ModelFamily::kCnn;
  spec.act_profile = nn::cnn_profile();
  spec.weight_profile = nn::weight_profile();
  spec.layers = {
      {"conv1", nn::LayerKind::kConv, {64, 72, 48}, 1, 3},
      {"conv2", nn::LayerKind::kConv, {48, 96, 64}, 1, 3},
      {"fc", nn::LayerKind::kFc, {8, 64, 40}, 1, 1},
  };
  return spec;
}

nn::WorkloadSpec tiny_bert() {
  nn::WorkloadSpec spec;
  spec.model = "tiny-bert";
  spec.family = nn::ModelFamily::kBert;
  spec.act_profile = nn::bert_profile();
  spec.weight_profile = nn::weight_profile();
  const std::int64_t seq = 32, d = 64;
  spec.layers = {
      {"qkv", nn::LayerKind::kQkvProj, {seq, d, 3 * d}, 1, 1},
      {"score", nn::LayerKind::kAttnScore, {seq, d, seq}, 1, 1},
      {"context", nn::LayerKind::kAttnContext, {seq, seq, d}, 1, 1},
      {"ffn", nn::LayerKind::kFfn, {seq, d, 2 * d}, 1, 1},
  };
  return spec;
}

}  // namespace

nn::WorkloadSpec serving_workload(const std::string& name) {
  if (name == "tiny-bert") return tiny_bert();
  if (name == "tiny-cnn") return tiny_cnn();
  std::string known = "tiny-bert, tiny-cnn";
  for (const auto& spec : nn::paper_workloads()) {
    if (spec.model == name) return spec;
    known += ", " + spec.model;
  }
  throw check_error("unknown serving workload '" + name + "' (known: " +
                    known + ")");
}

nn::WorkloadSpec prefix_layers(const nn::WorkloadSpec& spec,
                               const std::string& prefix) {
  nn::WorkloadSpec out = spec;
  for (auto& layer : out.layers) layer.name = prefix + "/" + layer.name;
  return out;
}

}  // namespace drift::serve
