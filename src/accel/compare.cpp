#include "accel/compare.hpp"

#include "accel/bitfusion.hpp"
#include "accel/drq_accel.hpp"
#include "accel/eyeriss.hpp"
#include "util/assert.hpp"

namespace drift::accel {

double Comparison::speedup_bitfusion() const {
  return static_cast<double>(eyeriss.cycles) /
         static_cast<double>(bitfusion.cycles);
}
double Comparison::speedup_drq() const {
  return static_cast<double>(eyeriss.cycles) /
         static_cast<double>(drq.cycles);
}
double Comparison::speedup_drift() const {
  return static_cast<double>(eyeriss.cycles) /
         static_cast<double>(drift.cycles);
}

double Comparison::energy_bitfusion() const {
  return bitfusion.energy.total_pj() / eyeriss.energy.total_pj();
}
double Comparison::energy_drq() const {
  return drq.energy.total_pj() / eyeriss.energy.total_pj();
}
double Comparison::energy_drift() const {
  return drift.energy.total_pj() / eyeriss.energy.total_pj();
}

nn::MixConfig PipelineConfig::mix_config(nn::MixAlgorithm algo,
                                         std::uint64_t seed) const {
  nn::MixConfig mix;
  mix.algo = algo;
  if (algo == nn::MixAlgorithm::kDrift) mix.drift = drift_selector;
  mix.drq = drq_config;
  mix.dynamic_weights = drift_dynamic_weights;
  mix.auto_threshold = auto_threshold;
  mix.noise_budget = noise_budget;
  mix.seed = seed;
  return mix;
}

std::unique_ptr<Accelerator> make_accelerator(nn::MixAlgorithm algo,
                                              const AccelConfig& hw,
                                              SchedulerPolicy drift_policy) {
  switch (algo) {
    case nn::MixAlgorithm::kStaticInt8:
      return std::make_unique<BitFusionModel>(hw);
    case nn::MixAlgorithm::kDrq:
      return std::make_unique<DrqAccelModel>(hw);
    case nn::MixAlgorithm::kDrift:
      return std::make_unique<DriftAccelModel>(hw, drift_policy);
  }
  DRIFT_CHECK(false, "unreachable mix algorithm");
  return nullptr;
}

Comparison compare_workload(const nn::WorkloadSpec& spec,
                            const CompareConfig& config) {
  // Per-design precision mixes, from the matching algorithm, all
  // classifying one draw of each layer's statistics.
  const nn::MixConfig mix_configs[] = {
      config.mix_config(nn::MixAlgorithm::kStaticInt8, config.seed),
      config.mix_config(nn::MixAlgorithm::kDrq, config.seed),
      config.mix_config(nn::MixAlgorithm::kDrift, config.seed)};
  auto mixes = nn::build_mixes(spec, mix_configs);
  const auto run = [&](nn::MixAlgorithm algo,
                       const std::vector<nn::LayerMix>& algo_mixes) {
    return make_accelerator(algo, config.hw, config.drift_policy)
        ->run(spec, algo_mixes);
  };

  Comparison cmp;
  cmp.model = spec.model;
  cmp.eyeriss = EyerissModel(config.hw).run(spec, mixes[0]);  // FP32
  cmp.bitfusion = run(nn::MixAlgorithm::kStaticInt8, mixes[0]);
  cmp.drq = run(nn::MixAlgorithm::kDrq, mixes[1]);
  cmp.drift_mixes = std::move(mixes[2]);
  cmp.drift = run(nn::MixAlgorithm::kDrift, cmp.drift_mixes);
  return cmp;
}

}  // namespace drift::accel
