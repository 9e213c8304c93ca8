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
    DRIFT_CHECK(tenant.num_requests >= 0,
                "tenant request count must be non-negative");
    TenantState& st = states_[t];
    st.spec = prefix_layers(tenant.workload, tenant.name);
    st.mix = config_.mix_config(config_.algo, tenant.seed);
    st.canonical = nn::build_mixes(st.spec, st.mix);
    if (!tenant.unique_mix_per_request) continue;

    // Per-request activation patterns: request r samples its own
    // activation stream from fork(kRequestStreamBase + r), one child
    // stream per layer, against the canonical weight channels.  Each
    // pattern goes straight into the request's word-aligned arena slot;
    // slots are disjoint and seed-derived, so the parallel precompute is
    // bit-identical at any pool size.
    const std::size_t num_layers = st.spec.layers.size();
    std::size_t slot_bits = 0;
    st.row_offset.resize(num_layers);
    for (std::size_t li = 0; li < num_layers; ++li) {
      st.row_offset[li] = slot_bits;
      slot_bits += static_cast<std::size_t>(st.spec.layers[li].dims.M);
    }
    st.requests = tenant.num_requests;
    st.slot_words = (slot_bits + 63) / 64;
    st.row_bits.assign(
        static_cast<std::size_t>(st.requests) * st.slot_words, 0);
    const Rng base(tenant.seed);
    pool.parallel_for(
        0, tenant.num_requests, 1, [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t r = lo; r < hi; ++r) {
            const Rng req_base = base.fork(kRequestStreamBase +
                                           static_cast<std::uint64_t>(r));
            std::uint64_t* slot = st.row_bits.data() +
                                  static_cast<std::size_t>(r) * st.slot_words;
            for (std::size_t li = 0; li < num_layers; ++li) {
              Rng rng = req_base.fork(li);
              const std::vector<bool> rows = nn::build_act_pattern(
                  st.spec.layers[li], rng, st.spec.act_profile, st.mix);
              std::size_t bit = st.row_offset[li];
              for (const bool is_low : rows) {
                if (is_low) slot[bit / 64] |= std::uint64_t{1} << (bit % 64);
                ++bit;
              }
            }
          }
        });
  }
}

void BatchExecutor::TenantState::append_rows(std::int64_t local,
                                             std::size_t li,
                                             std::vector<bool>& rows) const {
  if (requests == 0) {
    const std::vector<bool>& shared = canonical[li].row_is_low;
    rows.insert(rows.end(), shared.begin(), shared.end());
    return;
  }
  DRIFT_CHECK_INDEX(local, requests);
  const std::uint64_t* slot =
      row_bits.data() + static_cast<std::size_t>(local) * slot_words;
  const std::size_t end =
      row_offset[li] + static_cast<std::size_t>(spec.layers[li].dims.M);
  for (std::size_t bit = row_offset[li]; bit < end; ++bit) {
    rows.push_back(((slot[bit / 64] >> (bit % 64)) & 1) != 0);
  }
}

const BatchExecutor::TenantState& BatchExecutor::state(int tenant) const {
  DRIFT_CHECK_INDEX(tenant, static_cast<int>(states_.size()));
  return states_[static_cast<std::size_t>(tenant)];
}

const nn::WorkloadSpec& BatchExecutor::tenant_spec(int tenant) const {
  return state(tenant).spec;
}

std::vector<nn::LayerMix> BatchExecutor::request_mixes(
    int tenant, std::int64_t local) const {
  const TenantState& st = state(tenant);
  if (st.requests == 0) return st.canonical;
  std::vector<nn::LayerMix> mixes;
  mixes.reserve(st.spec.layers.size());
  for (std::size_t li = 0; li < st.spec.layers.size(); ++li) {
    std::vector<bool> rows;
    st.append_rows(local, li, rows);
    mixes.push_back(nn::assemble_mix(st.spec.layers[li], std::move(rows),
                                     st.canonical[li].work.n_low, st.mix));
  }
  return mixes;
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
    nn::LayerGemm layer = st.spec.layers[li];
    std::vector<bool> rows;
    rows.reserve(locals.size() * static_cast<std::size_t>(layer.dims.M));
    for (std::int64_t local : locals) st.append_rows(local, li, rows);
    layer.dims.M = static_cast<std::int64_t>(rows.size());
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
