// Per-layer precision mixes for the hardware benches.
//
// The performance/energy experiments run full-size models (up to
// OPT-6.7B), which cannot be materialized element-by-element on a
// laptop.  What the hardware models actually need per GEMM is:
//   (a) the class split — how many activation rows / weight channels
//       run at each precision (feeds the Drift scheduler), and
//   (b) the *in-order row pattern* of low/high activation rows (feeds
//       the DRQ stall model: scattered high rows stall its wavefront).
// Both are produced by running the real selection algorithms (Drift's
// Eq. 5/6, DRQ's region criterion) on per-sub-tensor statistics sampled
// from the model's distribution profile (nn/synthetic.hpp), exactly the
// statistics the hardware pooling unit would compute.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "core/selector.hpp"
#include "nn/synthetic.hpp"
#include "nn/workload.hpp"
#include "util/rng.hpp"

namespace drift::nn {

/// Which algorithm generates the mix.
enum class MixAlgorithm { kStaticInt8, kDrq, kDrift };

std::string to_string(MixAlgorithm algo);

/// The algorithm whose lower-cased to_string name is `name` ("int8",
/// "drq", "drift"); nullopt for anything else.
std::optional<MixAlgorithm> parse_mix_algorithm(const std::string& name);

/// Mix generation parameters.
struct MixConfig {
  MixAlgorithm algo = MixAlgorithm::kDrift;
  core::SelectorConfig drift{};  ///< Drift selector (hp/lp; δ when fixed)
  core::DrqConfig drq{};
  bool dynamic_weights = true;   ///< Drift only; DRQ/INT8 weights stay 8-bit
  /// Drift: choose each operand's δ automatically under an excess-noise
  /// budget (core/selector.hpp) instead of a fixed δ.
  bool auto_threshold = true;
  double noise_budget = 0.05;
  std::uint64_t seed = 1;
};

/// One GEMM's resolved precision structure.
struct LayerMix {
  LayerGemm layer;
  core::LayerWork work;            ///< class split for the scheduler
  std::vector<bool> row_is_low;    ///< in-order activation row pattern
  double act_low_fraction = 0.0;   ///< m_low / M
  double weight_low_fraction = 0.0;
};

/// Builds the mix of every layer in a workload: layer i samples from
/// Rng(config.seed).fork(i), the activation statistics first, then the
/// weight channels', each only when the algorithm reads it (INT8 reads
/// neither, DRQ and static-weight Drift only the activations and an
/// attention GEMM's second operand).  This is the only code that knows
/// that order.
std::vector<LayerMix> build_mixes(const WorkloadSpec& spec,
                                  const MixConfig& config);

/// build_mixes for several algorithms at one seed: each layer's
/// statistics are drawn once, for every config that reads them, and
/// classified once per config, so result[a] is bitwise
/// build_mixes(spec, configs[a]).
std::vector<std::vector<LayerMix>> build_mixes(
    const WorkloadSpec& spec, std::span<const MixConfig> configs);

// The pieces the serving layer (src/serve/) re-assembles to give every
// in-flight request its own activation pattern against the tenant's
// canonical weight channels (from build_mixes).

/// In-order low/high pattern of one layer's activation rows: samples
/// per-sub-tensor stats from `act_profile` (none for INT8) and
/// classifies them with the configured algorithm.  Convolution GEMM
/// rows stream region-block-ordered, so decisions apply to blocks of
/// consecutive rows; token streams decide per row.
std::vector<bool> build_act_pattern(const LayerGemm& layer, Rng& rng,
                                    const SubTensorScaleProfile& act_profile,
                                    const MixConfig& config);

/// Assembles the LayerWork class split + fractions from the activation
/// row pattern and the number of low-precision weight channels.
LayerMix assemble_mix(const LayerGemm& layer, std::vector<bool> row_is_low,
                      std::int64_t n_low, const MixConfig& config);

/// MAC-weighted mean activation low fraction across a mix set.
double overall_act_low_fraction(const std::vector<LayerMix>& mixes);

}  // namespace drift::nn
