// A tenant is one traffic source sharing the accelerator: a model
// workload, an arrival process, and a request budget.  Requests of one
// tenant are batched together (they share weights); different tenants
// never share a batch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/workload.hpp"
#include "serve/arrival.hpp"

namespace drift::serve {

struct TenantSpec {
  std::string name = "tenant";
  nn::WorkloadSpec workload;
  ArrivalConfig arrival;
  std::int64_t num_requests = 64;
  std::uint64_t seed = 1;
  /// When true every request gets its own sampled activation stream
  /// (fresh per-sub-tensor stats -> its own selector pattern); when
  /// false all requests reuse the tenant's canonical mix, which makes
  /// service deterministic — the M/D/1 regime the oracle tests pin.
  bool unique_mix_per_request = true;
};

/// The workload tenants run: nn::make_workload(name), so any registry
/// name ("tiny-bert", "tiny-cnn", "ResNet18", ...); an unknown name
/// throws check_error listing the known ones.
nn::WorkloadSpec serving_workload(const std::string& name);

/// Copy of `spec` with every layer renamed "<prefix>/<layer>", so two
/// tenants running the same model keep separate obs layer records.
nn::WorkloadSpec prefix_layers(const nn::WorkloadSpec& spec,
                               const std::string& prefix);

}  // namespace drift::serve
