#include "accel/drift_accel.hpp"

#include <algorithm>
#include <cmath>

#include "accel/fabric.hpp"
#include "accel/traffic.hpp"
#include "core/analytical_model.hpp"
#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace drift::accel {

std::string to_string(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::kGreedy: return "greedy";
    case SchedulerPolicy::kExhaustive: return "exhaustive";
    case SchedulerPolicy::kFixed: return "fixed";
  }
  return "?";
}

std::optional<SchedulerPolicy> parse_scheduler_policy(
    const std::string& name) {
  for (const SchedulerPolicy policy :
       {SchedulerPolicy::kGreedy, SchedulerPolicy::kExhaustive,
        SchedulerPolicy::kFixed}) {
    if (name == to_string(policy)) return policy;
  }
  return std::nullopt;
}

std::string DriftAccelModel::name() const {
  return policy_ == SchedulerPolicy::kGreedy
             ? "Drift"
             : "Drift(" + to_string(policy_) + ")";
}

core::SplitDecision DriftAccelModel::schedule(const core::LayerWork& work) {
  const auto it = std::lower_bound(
      splits_.begin(), splits_.end(), work,
      [](const SplitEntry& e, const core::LayerWork& w) { return e.work < w; });
  if (it != splits_.end() && it->work == work) {
    core::record_decision(it->split);
    return it->split;
  }
  const core::SplitDecision split = sweep(work);
  splits_.insert(it, {work, split});
  return split;
}

core::SplitDecision DriftAccelModel::sweep(
    const core::LayerWork& work) const {
  switch (policy_) {
    case SchedulerPolicy::kGreedy:
      return core::schedule_greedy(work, config_.array);
    case SchedulerPolicy::kExhaustive:
      return core::schedule_exhaustive(work, config_.array);
    case SchedulerPolicy::kFixed:
      return core::schedule_fixed_quarters(work, config_.array);
  }
  DRIFT_CHECK(false, "unreachable policy");
  return {};
}

RunResult DriftAccelModel::run(const nn::WorkloadSpec& spec,
                               const std::vector<nn::LayerMix>& mixes) {
  const auto& ec = config_.energy;
  const auto& array = config_.array;
  BitGroupFabric fabric(array);
  return run_layers(
      name(), config_, spec, mixes,
      ec.static_pj_per_unit_cycle * static_cast<double>(array.units()),
      [&](const nn::LayerMix& mix) {
        // Drift alone writes per-layer records: compare_workload runs
        // all four designs over the same layer names.
        DRIFT_OBS_LAYER_SCOPE(mix.layer.name);
        const core::GemmDims& dims = mix.layer.dims;
        const core::LayerWork& work = mix.work;
        LayerCost cost;

        const core::SplitDecision split = schedule(work);
        // Reprogram the BG link directions for this layer's split: the
        // in-flight wavefronts drain and the changed link rows rewrite
        // (accel/fabric.hpp models the exact cost).
        const std::int64_t reconfigure =
            fabric.reconfigure_cycles(split.r, split.c);
        DRIFT_CHECK(fabric.validate().empty(),
                    "fabric configuration must form four systolic arrays");
        cost.compute_cycles = split.makespan + reconfigure;

        // Stalls for Drift are load imbalance: makespan minus the
        // work-proportional lower bound on this many units.
        const double total_bb_ops = total_bitbrick_ops(work);
        const double ideal_cycles =
            total_bb_ops / (static_cast<double>(array.units()) * 16.0);
        cost.stall_cycles = std::max<std::int64_t>(
            cost.compute_cycles -
                static_cast<std::int64_t>(std::ceil(ideal_cycles)),
            0);

        // Tiling for psum/act re-stream traffic: mix-weighted widths on
        // the full grid (each quadrant tiles its own share; the
        // aggregate is the same to first order).
        const OperandBits bits = operand_bits_from_work(work);
        const std::int64_t k_tiles =
            core::ws_k_tiles(dims.K, bits.act_bits, array.rows);
        const std::int64_t n_tiles =
            core::ws_n_tiles(dims.N, bits.weight_bits, array.cols);
        cost.traffic = compute_traffic(dims, bits, n_tiles, k_tiles, config_);

        // Utilization in BitBrick-op terms (16 BB ops per unit-cycle).
        cost.utilization =
            total_bb_ops / (static_cast<double>(cost.compute_cycles) *
                            static_cast<double>(array.units()) * 16.0);
        cost.core_pj = core_energy_pj(work, ec);

        DRIFT_OBS_COUNT("accel.layers", 1);
        DRIFT_OBS_COUNT("accel.compute_cycles", cost.compute_cycles);
        DRIFT_OBS_COUNT("accel.stall_cycles", cost.stall_cycles);
        DRIFT_OBS_LAYER(rec, rec->compute_cycles += cost.compute_cycles;
                        rec->stall_cycles += cost.stall_cycles);
        return cost;
      });
}

}  // namespace drift::accel
