#include "serve/executor.hpp"

#include <utility>

#include "util/assert.hpp"

namespace drift::serve {

BatchExecutor::BatchExecutor(ExecConfig config, std::vector<TenantSpec> tenants,
                             util::ThreadPool& pool)
    : config_(std::move(config)),
      tenants_(std::move(tenants)),
      model_(accel::make_accelerator(config_.algo, config_.hw,
                                     config_.drift_policy)) {
  DRIFT_CHECK(!tenants_.empty(), "executor needs at least one tenant");
  states_.resize(tenants_.size());
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    const TenantSpec& tenant = tenants_[t];
    TenantState& st = states_[t];
    st.spec = prefix_layers(tenant.workload, tenant.name);
    st.mix = config_.mix_config(config_.algo, tenant.seed);
    st.canonical = nn::build_mixes(st.spec, st.mix);
    if (!tenant.unique_mix_per_request) continue;

    // Per-request activation patterns: request r samples its own
    // activation stream from fork(kRequestStreamBase + r), one child
    // stream per layer, against the canonical weight channels.  Slots
    // are disjoint and seed-derived, so the parallel precompute is
    // bit-identical at any pool size.
    const std::size_t num_layers = st.spec.layers.size();
    const Rng base(tenant.seed);
    st.per_request.resize(static_cast<std::size_t>(tenant.num_requests));
    pool.parallel_for(
        0, tenant.num_requests, 1, [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t r = lo; r < hi; ++r) {
            const Rng req_base = base.fork(kRequestStreamBase +
                                           static_cast<std::uint64_t>(r));
            auto& mixes = st.per_request[static_cast<std::size_t>(r)];
            mixes.resize(num_layers);
            for (std::size_t li = 0; li < num_layers; ++li) {
              const nn::LayerGemm& layer = st.spec.layers[li];
              Rng rng = req_base.fork(li);
              auto rows = nn::build_act_pattern(layer, rng,
                                                st.spec.act_profile, st.mix);
              mixes[li] = nn::assemble_mix(layer, std::move(rows),
                                           st.canonical[li].work.n_low, st.mix);
            }
          }
        });
  }
}

const BatchExecutor::TenantState& BatchExecutor::state(int tenant) const {
  DRIFT_CHECK_INDEX(tenant, static_cast<int>(states_.size()));
  return states_[static_cast<std::size_t>(tenant)];
}

const nn::WorkloadSpec& BatchExecutor::tenant_spec(int tenant) const {
  return state(tenant).spec;
}

const std::vector<nn::LayerMix>& BatchExecutor::request_mixes(
    int tenant, std::int64_t local) const {
  const TenantState& st = state(tenant);
  if (st.per_request.empty()) return st.canonical;
  DRIFT_CHECK_INDEX(local, static_cast<std::int64_t>(st.per_request.size()));
  return st.per_request[static_cast<std::size_t>(local)];
}

BatchResult BatchExecutor::execute(int tenant,
                                   const std::vector<std::int64_t>& locals) {
  DRIFT_CHECK(!locals.empty(), "cannot execute an empty batch");
  const TenantState& st = state(tenant);

  // Pack: per layer, concatenate the member requests' row patterns in
  // admission order and grow M accordingly; the weight side (shared
  // across the tenant's requests) keeps the canonical channel split.
  // The models read only the spec's model name and layer count, so the
  // tenant's spec is passed as is and only each layer's M changes.
  const std::size_t num_layers = st.spec.layers.size();
  std::vector<nn::LayerMix> mixes(num_layers);
  for (std::size_t li = 0; li < num_layers; ++li) {
    std::size_t total_rows = 0;
    for (std::int64_t local : locals) {
      total_rows += request_mixes(tenant, local)[li].row_is_low.size();
    }
    std::vector<bool> rows;
    rows.reserve(total_rows);
    for (std::int64_t local : locals) {
      const auto& request = request_mixes(tenant, local)[li];
      rows.insert(rows.end(), request.row_is_low.begin(),
                  request.row_is_low.end());
    }
    nn::LayerGemm layer = st.spec.layers[li];
    layer.dims.M = static_cast<std::int64_t>(total_rows);
    mixes[li] = nn::assemble_mix(layer, std::move(rows),
                                 st.canonical[li].work.n_low, st.mix);
  }

  BatchResult result;
  result.run = model_->run(st.spec, mixes);
  result.cycles = result.run.cycles;
  result.energy_pj = result.run.energy.total_pj();
  return result;
}

BatchResult BatchExecutor::execute_canonical(int tenant) {
  const TenantState& st = state(tenant);
  BatchResult result;
  result.run = model_->run(st.spec, st.canonical);
  result.cycles = result.run.cycles;
  result.energy_pj = result.run.energy.total_pj();
  return result;
}

}  // namespace drift::serve
