// Randomized invariants of the observability layer:
//   1. counter totals are independent of thread count, shard
//      assignment, and merge order (integer addition commutes);
//   2. the selector's per-class counts sum to the totals and the
//      derived 4-bit coverage stays in [0, 1];
//   3. the scheduler-reported per-quadrant latencies and tile counts
//      equal the independent src/ref Equation 7 oracle;
//   4. histogram bucket totals always equal the observation count
//      (no observation is lost or double-counted).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "core/selector.hpp"
#include "obs/metrics.hpp"
#include "proptest/proptest_gtest.hpp"
#include "ref/ref_oracles.hpp"
#include "tensor/subtensor.hpp"
#include "util/thread_pool.hpp"

namespace drift {
namespace {

TEST(PropObs, CounterTotalIsThreadAndOrderIndependent) {
  util::ThreadPool& pool = util::ThreadPool::instance();
  proptest::gtest_check([&pool](Rng& rng, int size) -> proptest::Result {
    const std::int64_t n = rng.uniform_int(1, 60 * size);
    std::vector<std::int64_t> deltas(static_cast<std::size_t>(n));
    std::int64_t want = 0;
    for (auto& d : deltas) {
      d = rng.uniform_int(0, 1000);
      want += d;
    }
    // Vary the worker count so the adds land on changing shard mixes;
    // grain 1 maximizes interleaving.
    pool.resize(static_cast<int>(rng.uniform_int(1, 8)));
    obs::Counter c;
    util::parallel_for(0, n, 1, [&c, &deltas](std::int64_t lo,
                                              std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        c.add(deltas[static_cast<std::size_t>(i)]);
      }
    });
    if (c.value() != want) {
      return proptest::fail("sharded counter merged to ", c.value(),
                            ", sequential sum is ", want);
    }
    return proptest::pass();
  });
  pool.resize(0);  // back to the default worker count
}

TEST(PropObs, SelectorClassCountsSumToTotalsAndCoverageIsBounded) {
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    const std::int64_t rows = proptest::gen_dim(rng, size);
    const std::int64_t cols = proptest::gen_dim(rng, size);
    const std::vector<float> values =
        proptest::gen_laplace_buffer(rng, rows * cols, 1.0);
    const auto views = partition_rows(Shape{rows, cols});
    const auto params = core::compute_quant_params(values, core::kInt8);
    const core::SelectorConfig cfg = proptest::gen_selector_config(rng);
    const core::DynamicQuantizer quantizer(cfg);

#ifndef DRIFT_OBS_OFF
    // A unique layer per case so the record holds exactly this select.
    static int case_id = 0;
    const std::string layer = "prop_obs.sel." + std::to_string(case_id++);
    obs::LayerScope scope(layer);
#endif
    const core::PrecisionMap map = quantizer.select(values, views, params);

    if (map.low_elements() < 0 || map.low_elements() > map.total_elements()) {
      return proptest::fail("low elements ", map.low_elements(),
                            " outside [0, ", map.total_elements(), "]");
    }
    if (map.total_elements() != rows * cols) {
      return proptest::fail("total elements ", map.total_elements(),
                            " != buffer size ", rows * cols);
    }
    const double coverage = map.low_fraction_by_elements();
    if (!(coverage >= 0.0 && coverage <= 1.0)) {
      return proptest::fail("coverage ", coverage, " outside [0, 1]");
    }

#ifndef DRIFT_OBS_OFF
    const obs::LayerRecord* rec = obs::Registry::global().layer_record(layer);
    if (rec->subtensors_total !=
            static_cast<std::int64_t>(map.num_subtensors()) ||
        rec->subtensors_low != proptest::low_subtensors(map) ||
        rec->elements_total != map.total_elements() ||
        rec->elements_low != map.low_elements()) {
      return proptest::fail("layer record diverges from the PrecisionMap");
    }
    if (rec->coverage() != coverage) {
      return proptest::fail("record coverage ", rec->coverage(),
                            " != map coverage ", coverage);
    }
#endif
    return proptest::pass();
  });
}

TEST(PropObs, SchedulerReportedNumbersMatchEqSevenOracle) {
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    const core::LayerWork w = proptest::gen_layer_work(rng, size);
    // Feasibility: an axis shared by two non-empty classes needs at
    // least two slices (same band prop_scheduler.cpp uses).
    const std::int64_t row_lo = (w.m_high > 0 && w.m_low > 0) ? 2 : 1;
    const std::int64_t col_lo = (w.n_high > 0 && w.n_low > 0) ? 2 : 1;
    const core::ArrayDims total{proptest::gen_dim(rng, size, row_lo),
                                proptest::gen_dim(rng, size, col_lo)};

#ifndef DRIFT_OBS_OFF
    static int case_id = 0;
    const std::string layer = "prop_obs.sched." + std::to_string(case_id++);
    core::SplitDecision d;
    {
      obs::LayerScope scope(layer);
      d = core::schedule_greedy(w, total);
    }
    const obs::LayerRecord* rec = obs::Registry::global().layer_record(layer);
    if (rec->sched_r != d.r || rec->sched_c != d.c ||
        rec->sched_latency != d.latency ||
        rec->sched_makespan != d.makespan) {
      return proptest::fail("layer record diverges from the decision at r=",
                            d.r, " c=", d.c);
    }
    const std::array<std::int64_t, 4>& tiles = rec->tile_count;
#else
    const core::SplitDecision d = core::schedule_greedy(w, total);
    const std::array<std::int64_t, 4>& tiles = d.tiles;
#endif

    const std::int64_t R = total.rows, C = total.cols;
    const struct {
      std::int64_t m, n, qr, qc;
      int pa, pw;
    } quadrants[4] = {
        {w.m_high, w.n_high, d.r, d.c, w.pa_high, w.pw_high},
        {w.m_high, w.n_low, d.r, C - d.c, w.pa_high, w.pw_low},
        {w.m_low, w.n_high, R - d.r, d.c, w.pa_low, w.pw_high},
        {w.m_low, w.n_low, R - d.r, C - d.c, w.pa_low, w.pw_low},
    };
    for (int q = 0; q < 4; ++q) {
      const auto& quad = quadrants[q];
      const std::int64_t want_latency =
          (quad.m == 0 || quad.n == 0)
              ? 0
              : ref::eq7_cycles(quad.m, w.k, quad.n, quad.pa, quad.pw,
                                quad.qr, quad.qc);
      const std::int64_t want_tiles =
          (quad.m == 0 || quad.n == 0)
              ? 0
              : ref::eq7_repetitions(w.k, quad.n, quad.pa, quad.pw, quad.qr,
                                     quad.qc);
      if (d.latency[static_cast<std::size_t>(q)] != want_latency) {
        return proptest::fail("quadrant ", q, " latency ",
                              d.latency[static_cast<std::size_t>(q)],
                              " != oracle ", want_latency);
      }
      if (tiles[static_cast<std::size_t>(q)] != want_tiles) {
        return proptest::fail("quadrant ", q, " tile count ",
                              tiles[static_cast<std::size_t>(q)],
                              " != oracle ", want_tiles);
      }
    }
    if (d.makespan !=
        *std::max_element(d.latency.begin(), d.latency.end())) {
      return proptest::fail("makespan is not the max quadrant latency");
    }
    return proptest::pass();
  });
}

TEST(PropObs, HistogramBucketTotalsEqualObservationCount) {
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    const int num_bounds = static_cast<int>(rng.uniform_int(1, 6));
    std::vector<std::int64_t> bounds(static_cast<std::size_t>(num_bounds));
    bounds[0] = rng.uniform_int(-100, 100);
    for (std::size_t i = 1; i < bounds.size(); ++i) {
      bounds[i] = bounds[i - 1] + rng.uniform_int(1, 50);
    }
    obs::Histogram h(bounds);

    const std::int64_t n = rng.uniform_int(0, 80 * size);
    std::vector<std::int64_t> want(bounds.size() + 1, 0);
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int64_t v =
          rng.uniform_int(bounds.front() - 60, bounds.back() + 60);
      h.observe(v);
      // Brute-force bucket: first bound >= v, else the overflow slot.
      std::size_t slot = bounds.size();
      for (std::size_t b = 0; b < bounds.size(); ++b) {
        if (bounds[b] >= v) {
          slot = b;
          break;
        }
      }
      ++want[slot];
    }

    if (h.total_count() != n) {
      return proptest::fail("total_count ", h.total_count(), " != ", n,
                            " observations");
    }
    const std::vector<std::int64_t> counts = h.counts();
    std::int64_t sum = 0;
    for (std::int64_t c : counts) sum += c;
    if (sum != n) {
      return proptest::fail("bucket sum ", sum, " != ", n, " observations");
    }
    if (counts != want) {
      return proptest::fail("bucket layout diverges from brute force");
    }
    return proptest::pass();
  });
}

// Shared generator for the quantile properties: a random strictly
// ascending bound set and `n` single-threaded observations (all
// observes land on this thread's sample shard, so the exact path stays
// available iff n <= kSamplesPerShard).
struct QuantileCase {
  std::unique_ptr<obs::Histogram> histogram;  // atomics: not movable itself
  std::vector<std::int64_t> values;
  std::vector<std::int64_t> bounds;
};

QuantileCase make_quantile_case(Rng& rng, std::int64_t n) {
  const int num_bounds = static_cast<int>(rng.uniform_int(1, 8));
  std::vector<std::int64_t> bounds(static_cast<std::size_t>(num_bounds));
  bounds[0] = rng.uniform_int(-200, 200);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    bounds[i] = bounds[i - 1] + rng.uniform_int(1, 80);
  }
  QuantileCase out{std::make_unique<obs::Histogram>(bounds), {}, bounds};
  out.values.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t v =
        rng.uniform_int(bounds.front() - 100, bounds.back() + 100);
    out.histogram->observe(v);
    out.values.push_back(v);
  }
  return out;
}

TEST(PropObs, QuantileExactPathMatchesSortedOracle) {
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    // n <= kSamplesPerShard keeps every observation in the reservoir.
    const std::int64_t n =
        rng.uniform_int(1, std::min<std::int64_t>(obs::kSamplesPerShard,
                                                  8 * size + 1));
    const QuantileCase c = make_quantile_case(rng, n);
    if (!c.histogram->quantiles_exact()) {
      return proptest::fail("n = ", n, " <= ", obs::kSamplesPerShard,
                            " single-threaded observations must stay exact");
    }
    const auto max_it = std::max_element(c.values.begin(), c.values.end());
    const auto min_it = std::min_element(c.values.begin(), c.values.end());
    if (c.histogram->quantile(0.0) != static_cast<double>(*min_it)) {
      return proptest::fail("p=0 is not the minimum observation");
    }
    if (c.histogram->quantile(1.0) != static_cast<double>(*max_it)) {
      return proptest::fail("p=1 is not the maximum observation");
    }
    for (int i = 0; i < 12; ++i) {
      const double p = rng.uniform(0.0, 1.0);
      const double got = c.histogram->quantile(p);
      const std::int64_t want = ref::sorted_quantile(c.values, p);
      if (got != static_cast<double>(want)) {
        return proptest::fail("quantile(", p, ") = ", got,
                              " but the sorted oracle says ", want);
      }
    }
    return proptest::pass();
  });
}

TEST(PropObs, QuantileIsMonotoneInP) {
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    // Straddle the reservoir capacity so both paths are exercised.
    const std::int64_t n = rng.uniform_int(1, 40 * size + 300);
    const QuantileCase c = make_quantile_case(rng, n);
    double prev = c.histogram->quantile(0.0);
    for (int i = 1; i <= 40; ++i) {
      const double p = static_cast<double>(i) / 40.0;
      const double cur = c.histogram->quantile(p);
      if (cur < prev) {
        return proptest::fail("quantile not monotone at p = ", p, ": ", cur,
                              " < ", prev, " (n = ", n, ")");
      }
      prev = cur;
    }
    return proptest::pass();
  });
}

TEST(PropObs, QuantileBucketPathBoundedByBucketWidthAndExactAtPOne) {
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    // Overflow the single shard's reservoir to force the bucket path.
    const std::int64_t n =
        obs::kSamplesPerShard + rng.uniform_int(1, 40 * size);
    QuantileCase c = make_quantile_case(rng, n);
    if (c.histogram->quantiles_exact()) {
      return proptest::fail("n = ", n, " > ", obs::kSamplesPerShard,
                            " must overflow the reservoir");
    }
    const auto max_it = std::max_element(c.values.begin(), c.values.end());
    const auto min_it = std::min_element(c.values.begin(), c.values.end());
    if (c.histogram->quantile(1.0) != static_cast<double>(*max_it)) {
      return proptest::fail("bucket-path p=1 must still be the exact max");
    }
    const std::vector<std::int64_t> counts = c.histogram->counts();
    for (int i = 0; i < 12; ++i) {
      const double p = rng.uniform(0.0, 1.0);
      const double got = c.histogram->quantile(p);
      const std::int64_t exact = ref::sorted_quantile(c.values, p);
      // Re-derive the clamped range of the bucket holding the exact
      // order statistic; the estimate interpolates inside the same
      // bucket, so both lie in [lo, hi].
      const std::int64_t rank = std::clamp<std::int64_t>(
          static_cast<std::int64_t>(
              std::ceil(p * static_cast<double>(n))),
          1, n);
      std::int64_t cum = 0;
      std::size_t j = 0;
      for (; j < counts.size(); ++j) {
        if (cum + counts[j] >= rank) break;
        cum += counts[j];
      }
      const double lo = std::max(
          static_cast<double>(j == 0 ? *min_it : c.bounds[j - 1]),
          static_cast<double>(*min_it));
      double hi = static_cast<double>(
          j < c.bounds.size() ? std::min(c.bounds[j], *max_it) : *max_it);
      hi = std::max(hi, lo);
      if (got < lo || got > hi) {
        return proptest::fail("estimate ", got, " escapes bucket range [",
                              lo, ", ", hi, "] at p = ", p);
      }
      if (std::abs(got - static_cast<double>(exact)) > hi - lo) {
        return proptest::fail("estimate ", got, " misses exact ", exact,
                              " by more than the bucket width ", hi - lo);
      }
    }
    return proptest::pass();
  });
}

}  // namespace
}  // namespace drift
