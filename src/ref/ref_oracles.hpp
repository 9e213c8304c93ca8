// Brute-force oracles for the three analytical shortcuts the paper
// takes: the max/avg-only precision decision (Eq. 5/6), the
// weight-stationary latency model (Eq. 7), and the greedy min-max
// split search (Eq. 8).  Each oracle answers the question the
// production code answers, by exhaustive enumeration or a direct
// closed form, sharing no code with the implementation under test.
#pragma once

#include <cstdint>
#include <limits>
#include <span>

// The oracles answer questions *about* production types, so the plain
// struct definitions (LayerWork, ArrayDims, QuantParams, Precision) are
// the shared vocabulary differential testing needs; no algorithm code
// is pulled in through either header.
// drift-lint: allow(oracle-include) — type-only include: LayerWork and
// ArrayDims are plain data structs, no implementation logic shared.
#include "core/scheduler.hpp"
// drift-lint: allow(oracle-include) — type-only include: QuantParams
// and Precision are plain data structs, no implementation logic shared.
#include "core/selector.hpp"

namespace drift::ref {

/// Sentinel for "this mapping is infeasible".  Numerically equal to
/// core::kInfeasibleLatency — asserted at compile time in
/// tests/prop/prop_latency_model.cpp — but defined locally so the
/// oracle library carries no include dependency on src/core/
/// implementation headers.
inline constexpr std::int64_t kInfeasibleLatency =
    std::numeric_limits<std::int64_t>::max() / 16;

// ---------------------------------------------------------------------
// Equation 7 (weight-stationary latency), evaluated directly.
// ---------------------------------------------------------------------

/// ceil(pa*K / 4R) * ceil(pw*N / 16C), the weight-tile repetition
/// count.  Returns 0 for empty work and kInfeasibleLatency when the
/// work is non-empty but R or C is zero (mirrors the production
/// sentinel contract).
std::int64_t eq7_repetitions(std::int64_t K, std::int64_t N, int pa, int pw,
                             std::int64_t R, std::int64_t C);

/// (T_pre + T_exe) * repetitions with T_pre = R and
/// T_exe = M + R + C - 2.
std::int64_t eq7_cycles(std::int64_t M, std::int64_t K, std::int64_t N,
                        int pa, int pw, std::int64_t R, std::int64_t C);

// ---------------------------------------------------------------------
// Equation 8 (balanced split): exhaustive (r, c) enumeration.
// ---------------------------------------------------------------------

struct SplitOracle {
  std::int64_t best_r = 0;
  std::int64_t best_c = 0;
  std::int64_t best_makespan = std::numeric_limits<std::int64_t>::max();
};

/// Evaluates max{T_hh, T_hl, T_lh, T_ll} (via eq7_cycles) for every
/// (r, c) in [0, R] x [0, C], r-major, and returns the first minimum
/// (strict <).  O(R*C).
SplitOracle exhaustive_split(const core::LayerWork& work,
                             const core::ArrayDims& total);

/// The greedy alternating sweep, candidate by candidate through
/// eq7_cycles: seed (r, c) proportionally to each axis' bit volume,
/// then alternate a full r sweep (c fixed) and a full c sweep (r
/// fixed), keeping a candidate only on a strictly smaller makespan,
/// until a round stops improving (at most 8 rounds).  Throws when an
/// axis is too short to give every non-empty class a slice.
core::SplitDecision greedy_split(const core::LayerWork& work,
                                 const core::ArrayDims& total);

// ---------------------------------------------------------------------
// Equations 5/6 (precision selection): brute-force (hc, lc) clip
// enumeration over the sub-tensor's *actual codes*.
// ---------------------------------------------------------------------

struct RenderingOracle {
  /// Largest hc whose exact lp range lp_max * 2^lc * Δ covers
  /// max(|Y|) — the value-level Equation 5 answer; -1 if none.
  int eq5_hc = -1;
  /// Largest hc whose rendering never engages the saturating clamp on
  /// any actual code of the sub-tensor; -1 if none.  Always >= eq5_hc
  /// because code-level rounding is slightly more permissive.
  int max_hc_no_clip = -1;
  /// Minimal worst-case |x - rendering(x)| over *all* (hc, lc)
  /// choices, clipping ones included, and the choice achieving it.
  double best_max_error = 0.0;
  int best_hc = 0;
  int best_lc = 0;
};

/// Enumerates every (hc, lc) with hc + lc = hp - lp for the given
/// sub-tensor values and reports the quantities above.  `params` is
/// the Eq. 1 calibration of the enclosing tensor.
RenderingOracle brute_force_rendering(std::span<const float> values,
                                      const core::QuantParams& params,
                                      core::Precision lp);

// ---------------------------------------------------------------------
// Tandem-queue pipeline closed form (oracle for
// systolic::pipeline_exit_cycles' O(M*stages) recursion).
// ---------------------------------------------------------------------

/// Exit time of the last row: sum(costs) + (stages - 1) * max(costs).
/// In the max-plus shortest-path view of the tandem-queue recursion the
/// critical path spends all of its stages - 1 lateral moves inside the
/// single slowest row, which yields this closed form.
std::int64_t pipeline_exit_closed_form(std::span<const std::int64_t> costs,
                                       std::int64_t stages);

// ---------------------------------------------------------------------
// Exact order statistic (oracle for obs::Histogram::quantile).
// ---------------------------------------------------------------------

/// The exact p-quantile of `values` under the nearest-rank definition
/// the obs histogram uses: the observation with 1-based sorted rank
/// clamp(ceil(p * n), 1, n).  Copies and sorts; O(n log n) and meant
/// only for test-sized inputs.  `values` must be non-empty and p in
/// [0, 1].
std::int64_t sorted_quantile(std::span<const std::int64_t> values, double p);

}  // namespace drift::ref
