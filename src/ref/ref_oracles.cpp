#include "ref/ref_oracles.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "ref/ref_quant.hpp"
// drift-lint: allow(oracle-include) — assertion macro only; shares no
// computational code with the implementations under test.
#include "util/assert.hpp"

namespace drift::ref {

std::int64_t eq7_repetitions(std::int64_t K, std::int64_t N, int pa, int pw,
                             std::int64_t R, std::int64_t C) {
  DRIFT_CHECK(pa > 0 && pw > 0, "precisions must be positive");
  if (K == 0 || N == 0) return 0;
  if (R <= 0 || C <= 0) return kInfeasibleLatency;
  const std::int64_t ka = static_cast<std::int64_t>(pa) * K;
  const std::int64_t nw = static_cast<std::int64_t>(pw) * N;
  const std::int64_t k_tiles = ka / (4 * R) + (ka % (4 * R) != 0 ? 1 : 0);
  const std::int64_t n_tiles = nw / (16 * C) + (nw % (16 * C) != 0 ? 1 : 0);
  return k_tiles * n_tiles;
}

std::int64_t eq7_cycles(std::int64_t M, std::int64_t K, std::int64_t N,
                        int pa, int pw, std::int64_t R, std::int64_t C) {
  if (M == 0 || K == 0 || N == 0) return 0;
  if (R <= 0 || C <= 0) return kInfeasibleLatency;
  const std::int64_t per_tile = R + (M + R + C - 2);
  return per_tile * eq7_repetitions(K, N, pa, pw, R, C);
}

namespace {

/// Equation 7 of the four quadrants for the split (r, c), their max,
/// and their tile repetitions.
core::SplitDecision eq8_candidate(const core::LayerWork& work,
                                  const core::ArrayDims& total,
                                  std::int64_t r, std::int64_t c) {
  core::SplitDecision d;
  d.r = r;
  d.c = c;
  d.latency = {
      eq7_cycles(work.m_high, work.k, work.n_high, work.pa_high,
                 work.pw_high, r, c),
      eq7_cycles(work.m_high, work.k, work.n_low, work.pa_high, work.pw_low,
                 r, total.cols - c),
      eq7_cycles(work.m_low, work.k, work.n_high, work.pa_low, work.pw_high,
                 total.rows - r, c),
      eq7_cycles(work.m_low, work.k, work.n_low, work.pa_low, work.pw_low,
                 total.rows - r, total.cols - c),
  };
  d.makespan = std::max(std::max(d.latency[0], d.latency[1]),
                        std::max(d.latency[2], d.latency[3]));
  const auto reps = [&](std::int64_t m, std::int64_t n, int pa, int pw,
                        std::int64_t rows, std::int64_t cols) {
    return m == 0 || work.k == 0 || n == 0
               ? 0
               : eq7_repetitions(work.k, n, pa, pw, rows, cols);
  };
  d.tiles = {
      reps(work.m_high, work.n_high, work.pa_high, work.pw_high, r, c),
      reps(work.m_high, work.n_low, work.pa_high, work.pw_low, r,
           total.cols - c),
      reps(work.m_low, work.n_high, work.pa_low, work.pw_high,
           total.rows - r, c),
      reps(work.m_low, work.n_low, work.pa_low, work.pw_low, total.rows - r,
           total.cols - c),
  };
  return d;
}

}  // namespace

SplitOracle exhaustive_split(const core::LayerWork& work,
                             const core::ArrayDims& total) {
  DRIFT_CHECK(total.rows > 0 && total.cols > 0, "empty array");
  SplitOracle best;
  for (std::int64_t r = 0; r <= total.rows; ++r) {
    for (std::int64_t c = 0; c <= total.cols; ++c) {
      const std::int64_t makespan = eq8_candidate(work, total, r, c).makespan;
      if (makespan < best.best_makespan) {
        best.best_r = r;
        best.best_c = c;
        best.best_makespan = makespan;
      }
    }
  }
  return best;
}

core::SplitDecision greedy_split(const core::LayerWork& work,
                                 const core::ArrayDims& total) {
  DRIFT_CHECK(total.rows > 0 && total.cols > 0, "empty array");
  const std::int64_t r_lo = work.m_high > 0 ? 1 : 0;
  const std::int64_t r_hi = work.m_low > 0 ? total.rows - 1 : total.rows;
  const std::int64_t c_lo = work.n_high > 0 ? 1 : 0;
  const std::int64_t c_hi = work.n_low > 0 ? total.cols - 1 : total.cols;
  DRIFT_CHECK(r_lo <= r_hi, "too few rows for the row classes");
  DRIFT_CHECK(c_lo <= c_hi, "too few columns for the column classes");

  const auto seed = [](std::int64_t extent, std::int64_t high_bits,
                       std::int64_t low_bits, std::int64_t lo,
                       std::int64_t hi) {
    const std::int64_t volume = high_bits + low_bits;
    const std::int64_t s =
        volume == 0 ? extent / 2
                    : extent * high_bits / std::max<std::int64_t>(volume, 1);
    return std::min(std::max(s, lo), hi);
  };
  const std::int64_t r0 = seed(total.rows, work.m_high * work.pa_high,
                               work.m_low * work.pa_low, r_lo, r_hi);
  const std::int64_t c0 = seed(total.cols, work.n_high * work.pw_high,
                               work.n_low * work.pw_low, c_lo, c_hi);

  core::SplitDecision best = eq8_candidate(work, total, r0, c0);
  for (int round = 0; round < 8; ++round) {
    core::SplitDecision next = best;
    for (std::int64_t r = r_lo; r <= r_hi; ++r) {
      const core::SplitDecision d = eq8_candidate(work, total, r, next.c);
      if (d.makespan < next.makespan) next = d;
    }
    for (std::int64_t c = c_lo; c <= c_hi; ++c) {
      const core::SplitDecision d = eq8_candidate(work, total, next.r, c);
      if (d.makespan < next.makespan) next = d;
    }
    if (next.makespan >= best.makespan) break;
    best = next;
  }
  return best;
}

RenderingOracle brute_force_rendering(std::span<const float> values,
                                      const core::QuantParams& params,
                                      core::Precision lp) {
  const int clip_total = params.bits.bits() - lp.bits();
  DRIFT_CHECK(clip_total >= 0, "lp wider than hp");

  double max_abs = 0.0;
  std::vector<std::int32_t> codes(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    max_abs = std::max(max_abs, std::abs(static_cast<double>(values[i])));
    codes[i] =
        quantize_value(values[i], params.delta, params.bits.max_level());
  }

  RenderingOracle oracle;
  bool have_best = false;
  for (int hc = 0; hc <= clip_total; ++hc) {
    const int lc = clip_total - hc;
    const double exact_range = static_cast<double>(lp.max_level()) *
                               static_cast<double>(std::int64_t{1} << lc) *
                               params.delta;
    if (exact_range >= max_abs) oracle.eq5_hc = std::max(oracle.eq5_hc, hc);

    bool clips = false;
    double worst = 0.0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      // Un-clamped shift-round; anything past the lp range clips.
      std::int64_t mag = std::abs(static_cast<std::int64_t>(codes[i]));
      if (lc > 0) mag = (mag + (std::int64_t{1} << (lc - 1))) >> lc;
      if (mag > lp.max_level()) clips = true;
      const std::int32_t q_lp = convert_to_low(codes[i], lp.max_level(), lc);
      const double err = std::abs(static_cast<double>(values[i]) -
                                  dequantize_low(q_lp, params.delta, lc));
      worst = std::max(worst, err);
    }
    if (!clips) oracle.max_hc_no_clip = std::max(oracle.max_hc_no_clip, hc);
    if (!have_best || worst < oracle.best_max_error) {
      have_best = true;
      oracle.best_max_error = worst;
      oracle.best_hc = hc;
      oracle.best_lc = lc;
    }
  }
  return oracle;
}

std::int64_t pipeline_exit_closed_form(std::span<const std::int64_t> costs,
                                       std::int64_t stages) {
  DRIFT_CHECK(stages > 0, "pipeline needs at least one stage");
  if (costs.empty()) return 0;
  std::int64_t sum = 0, peak = 0;
  for (std::int64_t k : costs) {
    DRIFT_CHECK(k > 0, "row cost must be > 0");
    sum += k;
    peak = std::max(peak, k);
  }
  return sum + (stages - 1) * peak;
}

std::int64_t sorted_quantile(std::span<const std::int64_t> values, double p) {
  DRIFT_CHECK(!values.empty(), "quantile of an empty sample is undefined");
  DRIFT_CHECK(p >= 0.0 && p <= 1.0, "p must be in [0, 1]");
  std::vector<std::int64_t> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const auto n = static_cast<std::int64_t>(sorted.size());
  const std::int64_t rank = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(std::ceil(p * static_cast<double>(n))), 1, n);
  return sorted[static_cast<std::size_t>(rank - 1)];
}

}  // namespace drift::ref
