#include "nn/precision_mix.hpp"

#include <algorithm>
#include <cctype>

#include "util/assert.hpp"

namespace drift::nn {
namespace {

/// Rows per activation decision.  Convolution GEMM rows are streamed
/// region-block-ordered (all output positions of one DRQ region back to
/// back), so precision decisions apply to blocks of region^2
/// consecutive rows; token streams decide per row.
std::int64_t act_block(const LayerGemm& layer) {
  return layer.kind == LayerKind::kConv
             ? std::min<std::int64_t>(16, layer.dims.M)
             : 1;
}

/// Element count of one activation sub-tensor (a block of rows).
std::int64_t act_elements(const LayerGemm& layer) {
  return std::max<std::int64_t>(layer.dims.K * act_block(layer), 2);
}

/// Attention GEMMs multiply two activations: their second operand is
/// always dynamic and follows the activation profile.
bool second_operand_is_activation(const LayerGemm& layer) {
  return layer.kind == LayerKind::kAttnScore ||
         layer.kind == LayerKind::kAttnContext;
}

bool reads_acts(const MixConfig& config) {
  return config.algo != MixAlgorithm::kStaticInt8;
}

/// Whether `config` classifies the weight channels (or the second
/// activation operand); DRQ and INT8 keep weights 8-bit.
bool reads_second(const LayerGemm& layer, const MixConfig& config) {
  return config.algo == MixAlgorithm::kDrift &&
         (config.dynamic_weights || second_operand_is_activation(layer));
}

std::vector<core::AbsStats> draw_acts(const LayerGemm& layer, Rng& rng,
                                      const SubTensorScaleProfile& profile) {
  const std::int64_t block = act_block(layer);
  const std::int64_t groups = (layer.dims.M + block - 1) / block;
  return sample_subtensor_stats(rng, groups, act_elements(layer), profile);
}

std::vector<core::AbsStats> draw_second(const LayerGemm& layer, Rng& rng,
                                        const WorkloadSpec& spec) {
  return sample_subtensor_stats(
      rng, layer.dims.N, std::max<std::int64_t>(layer.dims.K, 2),
      second_operand_is_activation(layer) ? spec.act_profile
                                          : spec.weight_profile);
}

/// Drift's low bits for one operand, Eq. 1 calibrated from its largest
/// sampled max|Y|.  `elements` is the element count of each sub-tensor
/// (needed by the noise-budget selection).
void drift_low_bits(std::span<const core::AbsStats> stats,
                    std::int64_t elements, const MixConfig& config,
                    std::vector<bool>& low) {
  double max_abs = 0.0;
  for (const auto& s : stats) max_abs = std::max(max_abs, s.max_abs);
  core::select_drift(
      core::StatsView(stats, elements),
      core::quant_params_from_max(max_abs, config.drift.hp), config.drift,
      config.auto_threshold ? std::optional(config.noise_budget)
                            : std::nullopt,
      low);
}

/// The in-order activation row pattern from the layer's activation
/// statistics (all high for INT8, which draws none).
std::vector<bool> act_pattern(const LayerGemm& layer,
                              std::span<const core::AbsStats> stats,
                              const MixConfig& config) {
  const auto rows = static_cast<std::size_t>(layer.dims.M);
  if (!reads_acts(config)) return std::vector<bool>(rows, false);
  std::vector<bool> group_low;
  if (config.algo == MixAlgorithm::kDrq) {
    // DRQ's reference: the mean of the sampled avg|Y|.
    double reference = 0.0;
    for (const auto& s : stats) reference += s.mean_abs;
    reference /= static_cast<double>(stats.size());
    core::select_drq(core::StatsView(stats, act_elements(layer)), config.drq,
                     reference, group_low);
  } else {
    drift_low_bits(stats, act_elements(layer), config, group_low);
  }
  const std::int64_t block = act_block(layer);
  if (block == 1) return group_low;
  std::vector<bool> row_is_low(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    row_is_low[r] = group_low[r / static_cast<std::size_t>(block)];
  }
  return row_is_low;
}

/// Low-precision weight channels (or second-operand rows) of a layer.
std::int64_t weight_low_count(const LayerGemm& layer,
                              std::span<const core::AbsStats> stats,
                              const MixConfig& config) {
  if (!reads_second(layer, config)) return 0;
  std::vector<bool> low;
  drift_low_bits(stats, std::max<std::int64_t>(layer.dims.K, 2), config, low);
  return std::count(low.begin(), low.end(), true);
}

}  // namespace

std::string to_string(MixAlgorithm algo) {
  switch (algo) {
    case MixAlgorithm::kStaticInt8: return "INT8";
    case MixAlgorithm::kDrq: return "DRQ";
    case MixAlgorithm::kDrift: return "Drift";
  }
  return "?";
}

std::optional<MixAlgorithm> parse_mix_algorithm(const std::string& name) {
  for (const MixAlgorithm algo :
       {MixAlgorithm::kStaticInt8, MixAlgorithm::kDrq, MixAlgorithm::kDrift}) {
    std::string lower = to_string(algo);
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    if (name == lower) return algo;
  }
  return std::nullopt;
}

std::vector<bool> build_act_pattern(const LayerGemm& layer, Rng& rng,
                                    const SubTensorScaleProfile& act_profile,
                                    const MixConfig& config) {
  std::vector<core::AbsStats> acts;
  if (reads_acts(config)) acts = draw_acts(layer, rng, act_profile);
  return act_pattern(layer, acts, config);
}

LayerMix assemble_mix(const LayerGemm& layer, std::vector<bool> row_is_low,
                      std::int64_t n_low, const MixConfig& config) {
  LayerMix mix;
  mix.layer = layer;
  mix.row_is_low = std::move(row_is_low);
  core::LayerWork work;
  work.k = layer.dims.K;
  work.pa_high = config.drift.hp.bits();
  work.pa_low = config.drift.lp.bits();
  work.pw_high = config.drift.hp.bits();
  work.pw_low = config.drift.lp.bits();
  for (bool is_low : mix.row_is_low) {
    (is_low ? work.m_low : work.m_high) += 1;
  }
  work.n_low = n_low;
  work.n_high = layer.dims.N - n_low;
  mix.work = work;
  mix.act_low_fraction =
      static_cast<double>(work.m_low) /
      static_cast<double>(std::max<std::int64_t>(layer.dims.M, 1));
  mix.weight_low_fraction =
      static_cast<double>(work.n_low) /
      static_cast<double>(std::max<std::int64_t>(layer.dims.N, 1));
  return mix;
}

std::vector<LayerMix> build_mixes(const WorkloadSpec& spec,
                                  const MixConfig& config) {
  return std::move(build_mixes(spec, std::span(&config, 1)).front());
}

std::vector<std::vector<LayerMix>> build_mixes(
    const WorkloadSpec& spec, std::span<const MixConfig> configs) {
  DRIFT_CHECK(!configs.empty(), "build_mixes needs a mix config");
  for (const MixConfig& config : configs) {
    DRIFT_CHECK(config.seed == configs.front().seed,
                "mixes drawn together must share one seed");
  }
  const bool any_acts = std::any_of(configs.begin(), configs.end(),
                                    reads_acts);
  const Rng base_rng(configs.front().seed);
  std::vector<std::vector<LayerMix>> mixes(configs.size());
  for (auto& algo_mixes : mixes) algo_mixes.reserve(spec.layers.size());
  std::uint64_t stream = 0;
  for (const LayerGemm& layer : spec.layers) {
    // One rng per layer, consumed activation-first then weight, so
    // every sampled stat is the same whichever configs read it.
    Rng rng = base_rng.fork(stream++);
    std::vector<core::AbsStats> acts, second;
    if (any_acts) acts = draw_acts(layer, rng, spec.act_profile);
    const auto reads = [&](const MixConfig& c) {
      return reads_second(layer, c);
    };
    if (std::any_of(configs.begin(), configs.end(), reads)) {
      second = draw_second(layer, rng, spec);
    }
    for (std::size_t a = 0; a < configs.size(); ++a) {
      mixes[a].push_back(assemble_mix(
          layer, act_pattern(layer, acts, configs[a]),
          weight_low_count(layer, second, configs[a]), configs[a]));
    }
  }
  return mixes;
}

double overall_act_low_fraction(const std::vector<LayerMix>& mixes) {
  double macs = 0.0, low = 0.0;
  for (const auto& m : mixes) {
    const double w = static_cast<double>(m.layer.total_macs());
    macs += w;
    low += w * m.act_low_fraction;
  }
  return macs > 0.0 ? low / macs : 0.0;
}

}  // namespace drift::nn
