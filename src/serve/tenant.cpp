#include "serve/tenant.hpp"

namespace drift::serve {

nn::WorkloadSpec serving_workload(const std::string& name) {
  return nn::make_workload(name);
}

nn::WorkloadSpec prefix_layers(const nn::WorkloadSpec& spec,
                               const std::string& prefix) {
  nn::WorkloadSpec out = spec;
  for (auto& layer : out.layers) layer.name = prefix + "/" + layer.name;
  return out;
}

}  // namespace drift::serve
