#include "core/scheduler.hpp"

#include <algorithm>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace drift::core {
namespace {

/// Equation 7 for one layer on one grid, tabulated per cut.  A
/// quadrant's repetition factor ceil(pa*K / 4R') * ceil(pw*N / 16C')
/// on an R' x C' sub-array is a K-axis ceiling that depends only on
/// its activation class and R', times an N-axis ceiling that depends
/// only on its weight class and C'.  The table holds both ceilings for
/// every slice count of both classes, so a candidate split costs a few
/// integer operations per quadrant.
class Eq7Table {
 public:
  Eq7Table(const LayerWork& work, const ArrayDims& total)
      : work_(work),
        total_(total),
        tiles_(static_cast<std::size_t>(2 * (total.rows + total.cols + 2))) {
    busy_ = {work.m_high > 0 && work.k > 0 && work.n_high > 0,
             work.m_high > 0 && work.k > 0 && work.n_low > 0,
             work.m_low > 0 && work.k > 0 && work.n_high > 0,
             work.m_low > 0 && work.k > 0 && work.n_low > 0};
    const int pa[4] = {work.pa_high, work.pa_high, work.pa_low, work.pa_low};
    const int pw[4] = {work.pw_high, work.pw_low, work.pw_high, work.pw_low};
    for (std::size_t q = 0; q < 4; ++q) {
      DRIFT_CHECK(!busy_[q] || (pa[q] > 0 && pw[q] > 0),
                  "precisions must be positive");
    }
    // Layout: K-axis ceilings of the high then the low activation class
    // per row count 0..R, then N-axis ceilings of the high then the low
    // weight class per column count 0..C.  Only classes with a busy
    // quadrant are filled (so every width is checked), and slice count
    // 0 is never read for a busy quadrant (it is infeasible).
    const std::size_t rows = static_cast<std::size_t>(total.rows) + 1;
    const std::size_t cols = static_cast<std::size_t>(total.cols) + 1;
    k_high_ = tiles_.data();
    k_low_ = k_high_ + rows;
    n_high_ = k_low_ + rows;
    n_low_ = n_high_ + cols;
    const auto fill = [](std::int64_t* tiles, std::int64_t slices,
                         std::int64_t extent, int bits, std::int64_t span) {
      for (std::int64_t s = 1; s <= slices; ++s) {
        tiles[s] = ws_axis_tiles(extent, bits, span * s);
      }
    };
    if (busy_[0] || busy_[1]) {
      fill(k_high_, total.rows, work.k, work.pa_high, 4);
    }
    if (busy_[2] || busy_[3]) {
      fill(k_low_, total.rows, work.k, work.pa_low, 4);
    }
    if (busy_[0] || busy_[2]) {
      fill(n_high_, total.cols, work.n_high, work.pw_high, 16);
    }
    if (busy_[1] || busy_[3]) {
      fill(n_low_, total.cols, work.n_low, work.pw_low, 16);
    }
  }

  // The four ceiling tables point into tiles_.
  Eq7Table(const Eq7Table&) = delete;
  Eq7Table& operator=(const Eq7Table&) = delete;

  /// Equation 7 per quadrant for the split (r, c), in Quadrant order:
  /// 0 for a quadrant with no work, kInfeasibleLatency for work on an
  /// empty sub-array.
  std::array<std::int64_t, 4> latencies(std::int64_t r,
                                        std::int64_t c) const {
    const std::int64_t rb = total_.rows - r, cr = total_.cols - c;
    return {
        latency(busy_[0], work_.m_high, r, c, k_high_[r] * n_high_[c]),
        latency(busy_[1], work_.m_high, r, cr, k_high_[r] * n_low_[cr]),
        latency(busy_[2], work_.m_low, rb, c, k_low_[rb] * n_high_[c]),
        latency(busy_[3], work_.m_low, rb, cr, k_low_[rb] * n_low_[cr]),
    };
  }

  std::int64_t makespan(std::int64_t r, std::int64_t c) const {
    return peak(latencies(r, c));
  }

  SplitDecision decision(std::int64_t r, std::int64_t c) const {
    SplitDecision d;
    d.r = r;
    d.c = c;
    d.latency = latencies(r, c);
    d.makespan = peak(d.latency);
    return d;
  }

  /// The repetition factor of each quadrant (0 when it has no work).
  std::array<std::int64_t, 4> tile_counts(std::int64_t r,
                                          std::int64_t c) const {
    const std::int64_t rb = total_.rows - r, cr = total_.cols - c;
    return {
        reps(busy_[0], r, c, k_high_[r] * n_high_[c]),
        reps(busy_[1], r, cr, k_high_[r] * n_low_[cr]),
        reps(busy_[2], rb, c, k_low_[rb] * n_high_[c]),
        reps(busy_[3], rb, cr, k_low_[rb] * n_low_[cr]),
    };
  }

 private:
  static std::int64_t peak(const std::array<std::int64_t, 4>& lat) {
    return std::max(std::max(lat[0], lat[1]), std::max(lat[2], lat[3]));
  }

  static std::int64_t reps(bool busy, std::int64_t rows, std::int64_t cols,
                           std::int64_t tiles) {
    if (!busy) return 0;
    if (rows == 0 || cols == 0) return kInfeasibleLatency;
    return tiles;
  }

  /// (T_pre + T_exe) * repetitions, T_pre = R', T_exe = M + R' + C' - 2.
  static std::int64_t latency(bool busy, std::int64_t m, std::int64_t rows,
                              std::int64_t cols, std::int64_t tiles) {
    if (!busy) return 0;
    if (rows == 0 || cols == 0) return kInfeasibleLatency;
    return (rows + (m + rows + cols - 2)) * tiles;
  }

  LayerWork work_;
  ArrayDims total_;
  std::array<bool, 4> busy_{};
  std::vector<std::int64_t> tiles_;
  std::int64_t* k_high_ = nullptr;
  std::int64_t* k_low_ = nullptr;
  std::int64_t* n_high_ = nullptr;
  std::int64_t* n_low_ = nullptr;
};

void check_cut(const ArrayDims& total, std::int64_t r, std::int64_t c) {
  DRIFT_CHECK(r >= 0 && r <= total.rows, "row split out of range");
  DRIFT_CHECK(c >= 0 && c <= total.cols, "column split out of range");
}

/// The decision at (r, c) with its tile counts, published.
SplitDecision finish(const Eq7Table& table, SplitDecision d) {
  d.tiles = table.tile_counts(d.r, d.c);
  record_decision(d);
  return d;
}

}  // namespace

void record_decision(const SplitDecision& d) {
  (void)d;  // read only by the obs macros, which vanish under DRIFT_OBS_OFF
  DRIFT_OBS_COUNT("scheduler.decisions", 1);
  DRIFT_OBS_LAYER(
      rec, rec->sched_r = d.r; rec->sched_c = d.c;
      rec->sched_latency = d.latency; rec->sched_makespan = d.makespan;
      rec->tile_count = d.tiles);
}

std::array<std::int64_t, 4> quadrant_latencies(const LayerWork& work,
                                               const ArrayDims& total,
                                               std::int64_t r,
                                               std::int64_t c) {
  check_cut(total, r, c);
  return Eq7Table(work, total).latencies(r, c);
}

SplitDecision schedule_greedy(const LayerWork& work, const ArrayDims& total) {
  DRIFT_OBS_SPAN("scheduler.greedy");
  DRIFT_CHECK(total.rows > 0 && total.cols > 0, "empty array");
  // Feasible split band: a non-empty class must receive at least one
  // row/column slice.
  const std::int64_t r_min = work.m_high > 0 ? 1 : 0;
  const std::int64_t r_max = work.m_low > 0 ? total.rows - 1 : total.rows;
  const std::int64_t c_min = work.n_high > 0 ? 1 : 0;
  const std::int64_t c_max = work.n_low > 0 ? total.cols - 1 : total.cols;
  DRIFT_CHECK_LE(r_min, r_max,
                 "array rows too few to host all precision classes");
  DRIFT_CHECK_LE(c_min, c_max,
                 "array columns too few to host all precision classes");

  // Seed the split proportionally to the bit-volume on each axis; this
  // is what the hardware can compute in O(1) from the index buffer.
  const std::int64_t row_high_bits = work.m_high * work.pa_high;
  const std::int64_t row_low_bits = work.m_low * work.pa_low;
  const std::int64_t col_high_bits = work.n_high * work.pw_high;
  const std::int64_t col_low_bits = work.n_low * work.pw_low;
  std::int64_t r = row_high_bits + row_low_bits == 0
                       ? total.rows / 2
                       : total.rows * row_high_bits /
                             std::max<std::int64_t>(
                                 row_high_bits + row_low_bits, 1);
  std::int64_t c = col_high_bits + col_low_bits == 0
                       ? total.cols / 2
                       : total.cols * col_high_bits /
                             std::max<std::int64_t>(
                                 col_high_bits + col_low_bits, 1);
  r = std::clamp(r, r_min, r_max);
  c = std::clamp(c, c_min, c_max);

  const Eq7Table table(work, total);
  SplitDecision best = table.decision(r, c);
  // Alternate 1-D sweeps; each sweep scans its whole axis, so the loop
  // terminates (makespan strictly decreases or we stop).
  for (int iter = 0; iter < 8; ++iter) {
    SplitDecision round_best = best;
    for (std::int64_t cand = r_min; cand <= r_max; ++cand) {
      if (table.makespan(cand, round_best.c) < round_best.makespan) {
        round_best = table.decision(cand, round_best.c);
      }
    }
    for (std::int64_t cand = c_min; cand <= c_max; ++cand) {
      if (table.makespan(round_best.r, cand) < round_best.makespan) {
        round_best = table.decision(round_best.r, cand);
      }
    }
    if (round_best.makespan >= best.makespan) break;
    best = round_best;
  }
  return finish(table, best);
}

SplitDecision schedule_exhaustive(const LayerWork& work,
                                  const ArrayDims& total) {
  DRIFT_OBS_SPAN("scheduler.exhaustive");
  DRIFT_CHECK(total.rows > 0 && total.cols > 0, "empty array");
  const Eq7Table table(work, total);
  SplitDecision best = table.decision(0, 0);
  for (std::int64_t r = 0; r <= total.rows; ++r) {
    for (std::int64_t c = 0; c <= total.cols; ++c) {
      if (table.makespan(r, c) < best.makespan) best = table.decision(r, c);
    }
  }
  return finish(table, best);
}

SplitDecision schedule_fixed_quarters(const LayerWork& work,
                                      const ArrayDims& total) {
  DRIFT_CHECK(total.rows > 0 && total.cols > 0, "empty array");
  std::int64_t r = total.rows / 2;
  std::int64_t c = total.cols / 2;
  // Keep the mapping feasible when one class is empty.
  if (work.m_high == 0) r = 0;
  if (work.m_low == 0) r = total.rows;
  if (work.n_high == 0) c = 0;
  if (work.n_low == 0) c = total.cols;
  const Eq7Table table(work, total);
  return finish(table, table.decision(r, c));
}

}  // namespace drift::core
