// Batch executor: turns an admitted batch into one accelerator run.
//
// Each tenant has a canonical precision mix (the offline build_mixes
// result, which fixes the weight-channel pattern — weights are shared
// across a tenant's requests) and, when unique_mix_per_request is set,
// every request carries its own activation-row pattern sampled from the
// tenant's distribution profile.  A batch concatenates the member
// requests' row patterns in admission order into one shared layer, so
// the Eq. 5/6 class counts — and therefore the Eq. 8 (r, c) split the
// scheduler picks — are a function of batch *composition*, not just
// size.  With batch size 1 the packed layer degenerates to the request
// alone, which is what the batch-vs-serial differential test pins.
//
// The per-request patterns live in one packed row-bit arena per tenant:
// one bit per activation row (set = low precision).  Every request of a
// tenant has the same row count per layer, so request r owns the fixed
// slot of words [r * slot_words, (r + 1) * slot_words), and layer li's
// rows start at bit row_offset[li] of the slot.  Slots start on a 64-bit
// word, so two requests precomputed in parallel never write one word.
//
// Caller owns the pool (NNPACK style): the constructor takes the
// ThreadPool used to precompute per-request patterns; the fixed chunk
// decomposition plus disjoint word-aligned slots keep the result
// bit-identical at any thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "accel/compare.hpp"
#include "nn/precision_mix.hpp"
#include "serve/tenant.hpp"
#include "util/thread_pool.hpp"

namespace drift::serve {

/// Which accelerator + mix algorithm serves the traffic.  Tenant t's
/// mixes use mix_config(algo, tenant.seed).
struct ExecConfig : accel::PipelineConfig {
  nn::MixAlgorithm algo = nn::MixAlgorithm::kDrift;
};

/// One batch's accelerator outcome.
struct BatchResult {
  std::int64_t cycles = 0;
  double energy_pj = 0.0;
  accel::RunResult run;
};

class BatchExecutor {
 public:
  /// Precomputes every tenant's canonical mix and (when
  /// unique_mix_per_request) each request's activation patterns on
  /// `pool`.
  BatchExecutor(ExecConfig config, std::vector<TenantSpec> tenants,
                util::ThreadPool& pool);

  const ExecConfig& config() const { return config_; }
  const std::vector<TenantSpec>& tenants() const { return tenants_; }

  /// The tenant's workload with layer names prefixed by the tenant name
  /// (keeps obs layer records separate between tenants).
  // drift-lint: allow(dead-api) — with request_mixes, the seam through
  // which ServeDifferential.BatchOneMatchesOffline* and
  // PropServe.BatchOneWaitsMatchLindleyAndServicesMatchOffline pin
  // batch-1 serving bitwise to the offline pipeline.
  const nn::WorkloadSpec& tenant_spec(int tenant) const;

  /// The mix request `local` of `tenant` runs when served alone, built
  /// from its arena slot (or the canonical mix).  The serving tests
  /// recompute its rows from the request's seed stream and pin the
  /// batch=1 serving results against the offline pipeline on it.
  // drift-lint: allow(dead-api) — the per-request mix seam that
  // ServeDifferential.RequestPatternsMatchTheirSeedStreams and the
  // batch-1 differentials pin against the offline pipeline.
  std::vector<nn::LayerMix> request_mixes(int tenant,
                                          std::int64_t local) const;

  /// Runs one batch (same-tenant request indices, admission order):
  /// packs the member mixes into shared layers and runs the configured
  /// accelerator model on the batched workload.
  BatchResult execute(int tenant, const std::vector<std::int64_t>& locals);

  /// Service time of a canonical single-request batch — the calibration
  /// point drivers use to convert a target utilization into an arrival
  /// rate.
  BatchResult execute_canonical(int tenant);

 private:
  struct TenantState {
    nn::WorkloadSpec spec;  ///< prefixed layer names
    nn::MixConfig mix;
    std::vector<nn::LayerMix> canonical;
    /// Request slots in row_bits; 0 when requests share the canonical
    /// mix.
    std::int64_t requests = 0;
    std::size_t slot_words = 0;
    std::vector<std::size_t> row_offset;  ///< per layer, bits into a slot
    std::vector<std::uint64_t> row_bits;  ///< the row-bit arena

    /// Appends request `local`'s activation rows of layer `li`.
    void append_rows(std::int64_t local, std::size_t li,
                     std::vector<bool>& rows) const;
  };

  const TenantState& state(int tenant) const;

  ExecConfig config_;
  std::vector<TenantSpec> tenants_;
  std::vector<TenantState> states_;
  std::unique_ptr<accel::Accelerator> model_;
};

/// Stream id offset separating per-request activation sampling from the
/// canonical per-layer streams build_mixes consumes (streams 0..L-1 of
/// Rng(tenant.seed)).
inline constexpr std::uint64_t kRequestStreamBase = 1ull << 32;

}  // namespace drift::serve
