#include "nn/precision_mix.hpp"

#include <algorithm>
#include <cctype>

#include "core/noise_budget.hpp"

#include "util/assert.hpp"

namespace drift::nn {
namespace {

/// Tensor-wide Eq. 1 calibration from sampled sub-tensor statistics.
core::QuantParams params_from_stats(
    const std::vector<core::SubTensorStats>& stats, core::Precision hp) {
  double max_abs = 0.0;
  for (const auto& s : stats) max_abs = std::max(max_abs, s.max_abs);
  core::QuantParams p;
  p.bits = hp;
  p.delta = max_abs > 0.0
                ? max_abs / static_cast<double>(hp.max_level())
                : 1.0;
  return p;
}

/// Runs the configured algorithm over one operand's sub-tensor stats;
/// returns the in-order low/high pattern.  `elements` is the element
/// count of each sub-tensor (needed by the noise-budget selection).
std::vector<bool> classify(const std::vector<core::SubTensorStats>& stats,
                           std::int64_t elements, const MixConfig& config,
                           bool operand_is_dynamic) {
  std::vector<bool> low(stats.size(), false);
  if (!operand_is_dynamic || config.algo == MixAlgorithm::kStaticInt8) {
    return low;
  }
  if (config.algo == MixAlgorithm::kDrift) {
    const auto params = params_from_stats(stats, config.drift.hp);
    if (config.auto_threshold) {
      const std::vector<std::int64_t> sizes(stats.size(), elements);
      const auto auto_sel = core::select_auto_threshold(
          stats, sizes, params, config.drift, config.noise_budget);
      for (std::size_t i = 0; i < stats.size(); ++i) {
        low[i] = auto_sel.decisions[i].use_low;
      }
      return low;
    }
    for (std::size_t i = 0; i < stats.size(); ++i) {
      low[i] = core::select_precision(stats[i], params, config.drift).use_low;
    }
    return low;
  }
  // DRQ: region mean-abs against the tensor-wide mean-abs reference.
  double mean_ref = 0.0;
  for (const auto& s : stats) mean_ref += s.mean_abs;
  mean_ref /= static_cast<double>(stats.size());
  for (std::size_t i = 0; i < stats.size(); ++i) {
    low[i] = stats[i].mean_abs < config.drq.sensitivity * mean_ref;
  }
  return low;
}

/// Low/high pattern of the weight channels (or of the second activation
/// operand for attention GEMMs, which is always dynamic).
std::vector<bool> build_weight_pattern(const LayerGemm& layer, Rng& rng,
                                       const WorkloadSpec& spec,
                                       const MixConfig& config) {
  const bool second_operand_is_activation =
      layer.kind == LayerKind::kAttnScore ||
      layer.kind == LayerKind::kAttnContext;
  const auto& w_profile = second_operand_is_activation
                              ? spec.act_profile
                              : spec.weight_profile;
  const bool weights_dynamic =
      config.algo == MixAlgorithm::kDrift &&
      (config.dynamic_weights || second_operand_is_activation);
  const auto w_stats = sample_subtensor_stats(
      rng, layer.dims.N, std::max<std::int64_t>(layer.dims.K, 2),
      w_profile);
  return classify(w_stats, std::max<std::int64_t>(layer.dims.K, 2), config,
                  weights_dynamic);
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
  // Convolution GEMM rows are streamed region-block-ordered (all output
  // positions of one DRQ region back to back), so precision decisions
  // apply to blocks of region^2 consecutive rows; token streams decide
  // per row.
  const std::int64_t block =
      layer.kind == LayerKind::kConv
          ? std::min<std::int64_t>(16, layer.dims.M)
          : 1;
  const std::int64_t groups = (layer.dims.M + block - 1) / block;
  const auto act_stats = sample_subtensor_stats(
      rng, groups, std::max<std::int64_t>(layer.dims.K * block, 2),
      act_profile);
  const auto group_low =
      classify(act_stats, std::max<std::int64_t>(layer.dims.K * block, 2),
               config, /*operand_is_dynamic=*/true);
  std::vector<bool> row_is_low(static_cast<std::size_t>(layer.dims.M));
  for (std::int64_t r = 0; r < layer.dims.M; ++r) {
    row_is_low[static_cast<std::size_t>(r)] =
        group_low[static_cast<std::size_t>(r / block)];
  }
  return row_is_low;
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
  Rng base_rng(config.seed);
  std::vector<LayerMix> mixes;
  mixes.reserve(spec.layers.size());
  std::uint64_t stream = 0;
  for (const LayerGemm& layer : spec.layers) {
    // One rng per layer, consumed activation-first then weight: the
    // operand builders share it so the stream order (and therefore
    // every sampled stat) is unchanged from the original fused loop.
    Rng rng = base_rng.fork(stream++);
    auto rows = build_act_pattern(layer, rng, spec.act_profile, config);
    const auto cols = build_weight_pattern(layer, rng, spec, config);
    mixes.push_back(assemble_mix(layer, std::move(rows),
                                 std::count(cols.begin(), cols.end(), true),
                                 config));
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
