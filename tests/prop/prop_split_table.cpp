// Differential suite: accel::DriftAccelModel's split table vs. the
// Equation 8 schedulers called directly.
//
// A Drift model stores each split decision under its LayerWork and
// answers a later equal work from the table instead of sweeping again.
// A hit must be indistinguishable from a sweep: the same SplitDecision,
// the same RunResult, one scheduler.decisions per decision, and the
// same sched_* / tile_count fields in the layer record.  Each case draws
// a grid and a sequence of works on it with deliberate repeats, plus
// neighbours that differ from an earlier work in exactly one of the
// nine LayerWork fields, so a key that ignores a field answers a
// neighbour with the wrong split.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "accel/drift_accel.hpp"
#include "accel/fabric.hpp"
#include "obs/metrics.hpp"
#include "proptest/proptest_gtest.hpp"
#include "util/json.hpp"

namespace drift {
namespace {

using accel::SchedulerPolicy;

constexpr SchedulerPolicy kPolicies[] = {SchedulerPolicy::kGreedy,
                                         SchedulerPolicy::kExhaustive,
                                         SchedulerPolicy::kFixed};

core::SplitDecision schedule_directly(SchedulerPolicy policy,
                                      const core::LayerWork& w,
                                      const core::ArrayDims& grid) {
  switch (policy) {
    case SchedulerPolicy::kGreedy: return core::schedule_greedy(w, grid);
    case SchedulerPolicy::kExhaustive:
      return core::schedule_exhaustive(w, grid);
    case SchedulerPolicy::kFixed:
      return core::schedule_fixed_quarters(w, grid);
  }
  return {};
}

/// A work with at least one row, column and reduction step, any class
/// possibly empty, and all four precisions in 1..16.
core::LayerWork gen_work(Rng& rng, int size) {
  core::LayerWork w = proptest::gen_layer_work(rng, size);
  if (rng.bernoulli(0.1)) w.m_low = 0;
  if (rng.bernoulli(0.1)) w.n_high = 0;
  if (w.m_high + w.m_low == 0) w.m_low = 1;
  if (w.n_high + w.n_low == 0) w.n_high = 1;
  w.pa_high = static_cast<int>(rng.uniform_int(1, 16));
  w.pa_low = static_cast<int>(rng.uniform_int(1, 16));
  w.pw_high = static_cast<int>(rng.uniform_int(1, 16));
  w.pw_low = static_cast<int>(rng.uniform_int(1, 16));
  return w;
}

/// `w` with exactly one of its nine fields changed.
core::LayerWork gen_neighbour(Rng& rng, core::LayerWork w) {
  const auto bump = [&](std::int64_t& count) {
    count += rng.uniform_int(1, 3);
  };
  const auto shift = [](int& bits) { bits = bits % 16 + 1; };
  switch (rng.uniform_int(0, 8)) {
    case 0: bump(w.m_high); break;
    case 1: bump(w.m_low); break;
    case 2: bump(w.n_high); break;
    case 3: bump(w.n_low); break;
    case 4: bump(w.k); break;
    case 5: shift(w.pa_high); break;
    case 6: shift(w.pa_low); break;
    case 7: shift(w.pw_high); break;
    default: shift(w.pw_low); break;
  }
  return w;
}

/// A sequence of works: fresh draws, exact repeats of earlier works and
/// one-field neighbours of earlier works.
std::vector<core::LayerWork> gen_works(Rng& rng, int size) {
  std::vector<core::LayerWork> works;
  const std::int64_t count = 4 + rng.uniform_int(0, 8 + 2 * size);
  for (std::int64_t i = 0; i < count; ++i) {
    const double pick = rng.uniform();
    if (works.empty() || pick < 0.3) {
      works.push_back(gen_work(rng, size));
      continue;
    }
    const core::LayerWork earlier = works[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(works.size()) - 1))];
    works.push_back(pick < 0.65 ? earlier : gen_neighbour(rng, earlier));
  }
  return works;
}

/// A grid on which every policy can place any class mix.
core::ArrayDims gen_grid(Rng& rng, int size) {
  return core::ArrayDims{proptest::gen_dim(rng, size, 2),
                         proptest::gen_dim(rng, size, 2)};
}

/// One layer per work, each under its own name.
nn::WorkloadSpec workload_of(const std::vector<core::LayerWork>& works,
                             const std::string& prefix,
                             std::vector<nn::LayerMix>& mixes) {
  nn::WorkloadSpec spec;
  spec.model = "split_table";
  mixes.clear();
  for (std::size_t i = 0; i < works.size(); ++i) {
    const core::LayerWork& w = works[i];
    nn::LayerMix mix;
    mix.layer.name = prefix + std::to_string(i);
    mix.layer.dims = {w.m_high + w.m_low, w.k, w.n_high + w.n_low};
    mix.layer.repeat = 1 + static_cast<std::int64_t>(i % 3);
    mix.work = w;
    spec.layers.push_back(mix.layer);
    mixes.push_back(std::move(mix));
  }
  return spec;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_energy(const energy::EnergyBreakdown& a,
                 const energy::EnergyBreakdown& b) {
  return same_bits(a.static_pj, b.static_pj) &&
         same_bits(a.dram_pj, b.dram_pj) &&
         same_bits(a.buffer_pj, b.buffer_pj) &&
         same_bits(a.core_pj, b.core_pj);
}

/// Field-by-field, doubles by their bits.
bool same_run(const accel::RunResult& a, const accel::RunResult& b) {
  if (a.accelerator != b.accelerator || a.model != b.model ||
      a.cycles != b.cycles || a.stall_cycles != b.stall_cycles ||
      a.dram_bytes != b.dram_bytes || !same_energy(a.energy, b.energy) ||
      a.layers.size() != b.layers.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    const accel::LayerResult& x = a.layers[i];
    const accel::LayerResult& y = b.layers[i];
    if (x.layer != y.layer || x.compute_cycles != y.compute_cycles ||
        x.dram_cycles != y.dram_cycles || x.cycles != y.cycles ||
        x.stall_cycles != y.stall_cycles || x.dram_bytes != y.dram_bytes ||
        !same_bits(x.utilization, y.utilization) ||
        !same_energy(x.energy, y.energy)) {
      return false;
    }
  }
  return true;
}

std::int64_t decisions() {
  static obs::Counter* counter =
      obs::Registry::global().counter("scheduler.decisions");
  return counter->value();
}

/// Whether `name`'s record holds exactly decision `d`.
bool record_holds(const std::string& name, const core::SplitDecision& d) {
  const obs::LayerRecord* rec = obs::Registry::global().layer_record(name);
  return rec->sched_r == d.r && rec->sched_c == d.c &&
         rec->sched_latency == d.latency &&
         rec->sched_makespan == d.makespan && rec->tile_count == d.tiles;
}

TEST(PropSplitTable, HitsAndMissesMatchTheSchedulersBitwise) {
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    const core::ArrayDims grid = gen_grid(rng, size);
    const std::vector<core::LayerWork> works = gen_works(rng, size);
    for (const SchedulerPolicy policy : kPolicies) {
      const std::string tag = accel::to_string(policy);
      accel::AccelConfig hw;
      hw.array = grid;
      accel::DriftAccelModel model(hw, policy);

      // Decision by decision: the model (a miss on a work's first call,
      // a hit afterwards) against the scheduler called directly, each
      // under its own layer scope.
      const std::string scope = "split_table." + tag + ".";
      for (std::size_t i = 0; i < works.size(); ++i) {
        core::SplitDecision got;
        core::SplitDecision want;
        const std::int64_t before = decisions();
        {
          DRIFT_OBS_LAYER_SCOPE(scope + "model");
          got = model.schedule(works[i]);
        }
        const std::int64_t model_delta = decisions() - before;
        {
          DRIFT_OBS_LAYER_SCOPE(scope + "direct");
          want = schedule_directly(policy, works[i], grid);
        }
        const std::int64_t direct_delta = decisions() - before - model_delta;
        if (model_delta != 1 || direct_delta != 1) {
          return proptest::fail(tag, " work ", i, ": scheduler.decisions += ",
                                model_delta, " through the model, += ",
                                direct_delta, " directly");
        }
        if (!record_holds(scope + "model", want) ||
            !record_holds(scope + "direct", want)) {
          return proptest::fail(tag, " work ", i,
                                ": a layer record differs from the "
                                "scheduler's decision");
        }
        if (got != want) {
          return proptest::fail(tag, " work ", i, " on ", grid.rows, "x",
                                grid.cols, ": model split (", got.r, ", ",
                                got.c, ") makespan ", got.makespan,
                                ", scheduler (", want.r, ", ", want.c,
                                ") makespan ", want.makespan);
        }
      }

      // Whole runs: the warm model (every layer a hit), a fresh model
      // (misses, then hits on repeats) and that model again (all hits)
      // agree bitwise, and every layer's compute cycles are the
      // scheduler's makespan plus the fabric's reconfiguration.
      std::vector<nn::LayerMix> mixes;
      const std::string prefix = "split_table." + tag + ".L";
      const nn::WorkloadSpec spec = workload_of(works, prefix, mixes);
      const std::int64_t before = decisions();
      const accel::RunResult warm = model.run(spec, mixes);
      if (decisions() - before != static_cast<std::int64_t>(works.size())) {
        return proptest::fail(tag, ": a run of ", works.size(),
                              " layers counted ", decisions() - before,
                              " decisions");
      }
      accel::DriftAccelModel fresh(hw, policy);
      const accel::RunResult cold = fresh.run(spec, mixes);
      const accel::RunResult again = fresh.run(spec, mixes);
      if (!same_run(warm, cold) || !same_run(cold, again)) {
        return proptest::fail(tag, ": runs differ (cycles ", warm.cycles,
                              " warm, ", cold.cycles, " cold, ",
                              again.cycles, " again)");
      }
      accel::BitGroupFabric fabric(grid);
      for (std::size_t i = 0; i < works.size(); ++i) {
        const core::SplitDecision want =
            schedule_directly(policy, works[i], grid);
        const std::int64_t compute =
            want.makespan + fabric.reconfigure_cycles(want.r, want.c);
        if (warm.layers[i].compute_cycles != compute) {
          return proptest::fail(tag, " layer ", i, ": compute cycles ",
                                warm.layers[i].compute_cycles,
                                ", scheduler makespan plus reconfiguration ",
                                compute);
        }
        if (!record_holds(prefix + std::to_string(i), want)) {
          return proptest::fail(tag, " layer ", i,
                                ": its record differs from the "
                                "scheduler's decision");
        }
      }
    }
    return proptest::pass();
  });
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::optional<JsonValue> read_json(const std::string& path) {
  JsonError error;
  return parse_json(read_file(path), error);
}

TEST(PropSplitTable, ServingSweepsFewerTimesThanItDecides) {
  // Serving packs the same layer shapes over and over: most batch
  // layers of a run repeat a work the model has already swept.
  const std::string metrics = ::testing::TempDir() + "split_table_m.json";
  const std::string trace = ::testing::TempDir() + "split_table_t.json";
  const std::string cmd = std::string(DRIFT_SERVE_BIN) +
                          " --requests=256 --metrics-out=" + metrics +
                          " --trace-out=" + trace + " > /dev/null 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
  const auto scrape = read_json(metrics);
  const auto events = read_json(trace);
  ASSERT_TRUE(scrape && events);
  const JsonValue* counted =
      scrape->get_path({"counters", "scheduler.decisions"});
  const JsonValue* list = events->get("traceEvents");
  ASSERT_TRUE(counted != nullptr && list != nullptr);
  std::int64_t sweeps = 0;
  for (const JsonValue& e : list->as_array()) {
    const JsonValue* name = e.get("name");
    const JsonValue* phase = e.get("ph");
    const JsonValue* pid = e.get("pid");
    if (name != nullptr && phase != nullptr && pid != nullptr &&
        name->as_string() == "scheduler.greedy" &&
        phase->as_string() == "X" && pid->as_int() == 0) {
      ++sweeps;
    }
  }
  EXPECT_GT(sweeps, 0);
  EXPECT_LT(sweeps, counted->as_int());
  std::remove(metrics.c_str());
  std::remove(trace.c_str());
}

}  // namespace
}  // namespace drift
