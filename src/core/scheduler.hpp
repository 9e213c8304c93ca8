// Balanced online scheduling (Section 4.3, Equation 8).
//
// After dynamic precision selection, one layer's GEMM M x K x N splits
// into four class GEMMs by (activation precision x weight precision):
//
//   hh: M_h x K x N_h    hl: M_h x K x N_l
//   lh: M_l x K x N_h    ll: M_l x K x N_l
//
// Drift cuts its R_tot x C_tot BitGroup grid at a row index r and a
// column index c, yielding four rectangular systolic arrays:
//
//   (r x c) -> hh        (r x (C-c)) -> hl
//   ((R-r) x c) -> lh    ((R-r) x (C-c)) -> ll
//
// The scheduler picks (r, c) to minimize max{T_hh, T_hl, T_lh, T_ll}
// with T from Equation 7.  Because activation and weight precision
// selections are independent, the paper adjusts r and c greedily and
// separately; `schedule_greedy` implements that (alternating 1-D
// sweeps to a fixed point) and `schedule_exhaustive` provides the
// oracle reference used by tests and the scheduler ablation bench.
//
// Every function below reads Eq. 7 from one per-call table of its two
// ceiling factors, ceil(pa*K / 4r) per row count and ceil(pw*N / 16c)
// per column count for each precision class, built in O(R + C); a
// candidate split then costs a few integer operations per quadrant.
// The candidate-by-candidate evaluation is the oracle ref::greedy_split.
//
// Each scheduler publishes its decision through record_decision, which
// a caller that remembers a decision (accel::DriftAccelModel's split
// table) calls instead of re-running the sweep.
#pragma once

#include <array>
#include <compare>
#include <cstdint>

#include "core/analytical_model.hpp"

namespace drift::core {

/// One layer's precision-split workload.
struct LayerWork {
  std::int64_t m_high = 0;  ///< activation rows at high precision
  std::int64_t m_low = 0;   ///< activation rows at low precision
  std::int64_t n_high = 0;  ///< weight columns at high precision
  std::int64_t n_low = 0;   ///< weight columns at low precision
  std::int64_t k = 0;       ///< shared reduction dimension
  int pa_high = 8;
  int pa_low = 4;
  int pw_high = 8;
  int pw_low = 4;

  std::int64_t total_macs() const {
    return (m_high + m_low) * k * (n_high + n_low);
  }

  /// Field by field in declaration order: every field is part of the
  /// key a split table looks decisions up by.
  auto operator<=>(const LayerWork&) const = default;
};

/// Index order of the four precision-class quadrants.
enum class Quadrant { kHH = 0, kHL = 1, kLH = 2, kLL = 3 };

/// A chosen split, its predicted latencies and its tile counts.
struct SplitDecision {
  std::int64_t r = 0;  ///< rows given to high-precision activations
  std::int64_t c = 0;  ///< columns given to high-precision weights
  std::array<std::int64_t, 4> latency{};  ///< per-quadrant cycles
  std::int64_t makespan = 0;              ///< max of the four
  /// Per-quadrant weight-tile repetitions (the ceil factors of
  /// Equation 7); 0 for empty quadrants.  This is the per-precision-class
  /// tile count the metrics layer reports.
  std::array<std::int64_t, 4> tiles{};

  bool operator==(const SplitDecision&) const = default;
};

/// Latency of each quadrant for a candidate split (Equation 7 per
/// quadrant).  Quadrants with no work cost 0 regardless of size.
// drift-lint: allow(dead-api) — the one seam into the Eq. 7 table for
// every split, which PropScheduler.QuadrantLatenciesMatchEquationSevenRef
// pins bitwise to ref::eq7_cycles.
std::array<std::int64_t, 4> quadrant_latencies(const LayerWork& work,
                                               const ArrayDims& total,
                                               std::int64_t r,
                                               std::int64_t c);

/// Publishes a decision to the metrics layer: scheduler.decisions += 1,
/// and the current layer record's sched_r, sched_c, sched_latency,
/// sched_makespan and tile_count.  The three schedulers below call it
/// once per decision.  Compiles to nothing under DRIFT_OBS_OFF.
void record_decision(const SplitDecision& d);

/// Greedy balanced scheduler: alternating 1-D sweeps over r (with c
/// fixed) and c (with r fixed) until the makespan stops improving.
/// O(R + C) evaluations per sweep.
SplitDecision schedule_greedy(const LayerWork& work, const ArrayDims& total);

/// Oracle: evaluates every (r, c) pair.  O(R * C).
SplitDecision schedule_exhaustive(const LayerWork& work,
                                  const ArrayDims& total);

/// Ablation baseline: fixed half/half split (r = R/2, c = C/2), i.e.
/// no load balancing.  Degenerate class mixes fall back to giving the
/// whole axis to the non-empty class so the mapping stays feasible.
SplitDecision schedule_fixed_quarters(const LayerWork& work,
                                      const ArrayDims& total);

}  // namespace drift::core
