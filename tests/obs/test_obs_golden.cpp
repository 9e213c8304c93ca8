// Golden-trace regression tests for the observability layer.
//
// A fixed-seed two-layer workload drives the *real* pipeline — selector
// -> scheduler -> cycle simulation -> traffic -> timeline — under layer
// scopes, then:
//   1. the canonicalized metrics JSON is byte-compared against a
//      checked-in golden (tests/obs/golden/metrics.json);
//   2. the Chrome trace is parsed and validated structurally (every B
//      has a matching E on its thread, nesting depth never goes
//      negative, X durations are non-negative);
//   3. the scraped per-layer numbers are re-derived from the selector
//      output and the src/ref oracles (the acceptance cross-check).
//
// The scrape is filtered to deterministic metric prefixes; wall-clock
// metrics (thread_pool.*) are deliberately excluded.  Regenerate the
// golden after an intentional instrumentation change with:
//   DRIFT_OBS_UPDATE_GOLDEN=1 ./build/tests/obs/drift_obs_tests
// (optionally with --gtest_filter='ObsGolden.MetricsJsonMatchesGolden').
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "accel/accelerator.hpp"
#include "accel/timeline.hpp"
#include "accel/traffic.hpp"
#include "core/quantizer.hpp"
#include "core/scheduler.hpp"
#include "core/selector.hpp"
#include "nn/quant_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "proptest/proptest.hpp"
#include "ref/ref_oracles.hpp"
#include "systolic/cycle_sim.hpp"
#include "tensor/subtensor.hpp"
#include "util/rng.hpp"

namespace drift {
namespace {

/// Everything the oracle cross-check needs to re-derive the scraped
/// numbers independently of the registry.
struct LayerExpectation {
  std::string layer;
  std::int64_t subtensors_total = 0;
  std::int64_t subtensors_low = 0;
  std::int64_t elements_total = 0;
  std::int64_t elements_low = 0;
  core::LayerWork work;
  core::ArrayDims total{0, 0};
  core::SplitDecision decision;
  std::int64_t sim_cycles = 0;
  std::int64_t sim_stalls = 0;
  std::int64_t dram_bytes = 0;
};

/// Metric prefixes that are functions of the workload alone (no wall
/// clock, no pool size), so the scrape is byte-stable.
std::vector<std::string> deterministic_prefixes() {
  return {"selector.", "scheduler.", "sim.", "timeline.", "traffic."};
}

/// Runs the fixed-seed workload from a clean registry/tracer.  Every
/// number the pipeline records is a deterministic function of the seed.
std::vector<LayerExpectation> run_fixed_workload() {
  obs::Registry::global().reset();
  obs::Tracer::global().reset();
  obs::Tracer::global().set_enabled(true);

  Rng rng(42);
  std::vector<LayerExpectation> expectations;
  std::vector<accel::TimelineLayer> timeline_layers;

  for (int li = 0; li < 2; ++li) {
    LayerExpectation e;
    e.layer = "layer" + std::to_string(li);
    obs::LayerScope scope(e.layer);

    // Selector: per-row sub-tensors of a Laplace-distributed activation.
    const std::int64_t rows = 6 + 2 * li;
    const std::int64_t cols = 32;
    std::vector<float> values(static_cast<std::size_t>(rows * cols));
    for (auto& v : values) v = static_cast<float>(rng.laplace(1.0));
    const auto views = partition_rows(Shape{rows, cols});
    const auto params = core::compute_quant_params(values, core::kInt8);
    nn::QuantEngine::Config cfg;
    cfg.mode = nn::QuantMode::kDrift;
    cfg.drift.density_threshold = 0.5;
    cfg.auto_threshold = false;
    const core::PrecisionMap map =
        nn::QuantEngine(cfg).select(values, views, params);
    e.subtensors_total = static_cast<std::int64_t>(map.num_subtensors());
    e.subtensors_low = proptest::low_subtensors(map);
    e.elements_total = map.total_elements();
    e.elements_low = map.low_elements();

    // Scheduler: the activation split the selector chose, a fixed
    // weight split, on an 8x8 BitGroup grid.
    core::LayerWork work;
    work.m_low = e.subtensors_low;
    work.m_high = rows - work.m_low;
    work.n_high = 20;
    work.n_low = 12;
    work.k = cols;
    e.work = work;
    e.total = core::ArrayDims{8, 8};
    e.decision = core::schedule_greedy(work, e.total);

    // Cycle simulation of a small GEMM on a 3x4 array.
    TensorI32 a(Shape{5 + li, 6});
    TensorI32 w(Shape{6, 7});
    for (auto& v : a.data()) {
      v = static_cast<std::int32_t>(rng.uniform_int(-8, 8));
    }
    for (auto& v : w.data()) {
      v = static_cast<std::int32_t>(rng.uniform_int(-8, 8));
    }
    const systolic::SimResult sim =
        systolic::simulate_gemm(a, w, core::ArrayDims{3, 4});
    e.sim_cycles = sim.cycles;
    e.sim_stalls = sim.stall_cycles;

    // Traffic accounting for the layer's GEMM.
    const accel::AccelConfig acfg;
    const accel::OperandBits bits = accel::operand_bits_from_work(work);
    const core::GemmDims dims{rows, cols, work.n_high + work.n_low};
    const accel::LayerTraffic traffic =
        accel::compute_traffic(dims, bits, 2, 1, acfg);
    e.dram_bytes = traffic.dram_bytes();

    timeline_layers.push_back(
        {e.layer, e.decision.makespan, e.dram_bytes / 16});
    expectations.push_back(e);
  }

  // Timeline: double-buffered schedule rendered on the sim-cycle trace.
  accel::build_timeline(timeline_layers);
  obs::Tracer::global().set_enabled(false);
  return expectations;
}

std::string golden_path() {
  return std::string(DRIFT_OBS_GOLDEN_DIR) + "/metrics.json";
}

std::string read_file_or_empty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(ObsGolden, MetricsJsonMatchesGolden) {
  run_fixed_workload();
  const std::string scrape =
      obs::Registry::global().to_json(deterministic_prefixes());
  if (std::getenv("DRIFT_OBS_UPDATE_GOLDEN") != nullptr) {
    ASSERT_TRUE(obs::write_file(golden_path(), scrape));
    GTEST_SKIP() << "golden regenerated at " << golden_path();
  }
  const std::string golden = read_file_or_empty(golden_path());
  ASSERT_FALSE(golden.empty())
      << "missing golden " << golden_path()
      << " — regenerate with DRIFT_OBS_UPDATE_GOLDEN=1";
  EXPECT_EQ(scrape, golden)
      << "metrics scrape drifted from the golden; if the change is "
         "intentional, regenerate with DRIFT_OBS_UPDATE_GOLDEN=1";
}

/// Pulls the integer value of `"key": <n>` out of one serialized trace
/// event line; `fallback` when the key is absent.
std::int64_t event_field(const std::string& line, const std::string& key,
                         std::int64_t fallback) {
  const std::string marker = "\"" + key + "\": ";
  const std::size_t pos = line.find(marker);
  if (pos == std::string::npos) return fallback;
  return std::strtoll(line.c_str() + pos + marker.size(), nullptr, 10);
}

TEST(ObsGolden, ChromeTraceIsStructurallyValid) {
  run_fixed_workload();
  const std::string json = obs::Tracer::global().to_chrome_json();
  ASSERT_EQ(json.rfind("{\"traceEvents\": [", 0), 0u);

  // One event per line; track open B spans per (pid, tid).
  std::map<std::pair<std::int64_t, std::int64_t>, std::vector<std::string>>
      open_spans;
  int begins = 0, ends = 0, completes = 0;
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("{\"name\": ", 0) != 0) continue;  // header / footer
    const std::size_t name_end = line.find('"', 10);
    ASSERT_NE(name_end, std::string::npos) << line;
    const std::string name = line.substr(10, name_end - 10);
    const std::size_t ph_pos = line.find("\"ph\": \"");
    ASSERT_NE(ph_pos, std::string::npos) << line;
    const char ph = line[ph_pos + 7];
    const auto track = std::make_pair(event_field(line, "pid", -1),
                                      event_field(line, "tid", -1));
    switch (ph) {
      case 'B':
        ++begins;
        open_spans[track].push_back(name);
        break;
      case 'E': {
        ++ends;
        auto& stack = open_spans[track];
        // Nesting never goes negative, and E closes the innermost B.
        ASSERT_FALSE(stack.empty()) << "unmatched E for " << name;
        EXPECT_EQ(stack.back(), name);
        stack.pop_back();
        break;
      }
      case 'X':
        ++completes;
        EXPECT_GE(event_field(line, "dur", -1), 0) << line;
        EXPECT_EQ(event_field(line, "pid", -1), 1) << line;
        break;
      case 'M':
        EXPECT_EQ(event_field(line, "pid", -1), 1) << line;
        break;
      default:
        FAIL() << "unexpected phase '" << ph << "' in " << line;
    }
  }
  for (const auto& [track, stack] : open_spans) {
    EXPECT_TRUE(stack.empty())
        << stack.size() << " unclosed span(s) on pid " << track.first
        << " tid " << track.second;
  }
  EXPECT_EQ(begins, ends);
  EXPECT_GT(begins, 0);     // the pipeline spans fired
  EXPECT_GT(completes, 0);  // the timeline rendered X events
}

TEST(ObsGolden, MetricsMatchRefOracles) {
  const auto expectations = run_fixed_workload();
  obs::Registry& reg = obs::Registry::global();

  std::int64_t elements_total = 0, elements_low = 0;
  for (const LayerExpectation& e : expectations) {
    const obs::LayerRecord* rec = reg.layer_record(e.layer);
    ASSERT_NE(rec, nullptr);

    // Selector attribution matches the PrecisionMap it came from.
    EXPECT_EQ(rec->subtensors_total, e.subtensors_total);
    EXPECT_EQ(rec->subtensors_low, e.subtensors_low);
    EXPECT_EQ(rec->elements_total, e.elements_total);
    EXPECT_EQ(rec->elements_low, e.elements_low);
    EXPECT_GE(rec->coverage(), 0.0);
    EXPECT_LE(rec->coverage(), 1.0);
    EXPECT_DOUBLE_EQ(rec->coverage(),
                     static_cast<double>(e.elements_low) /
                         static_cast<double>(e.elements_total));
    elements_total += e.elements_total;
    elements_low += e.elements_low;

    // Scheduler record equals the returned decision, and the decision's
    // per-quadrant numbers equal the independent Eq. 7 oracle.
    EXPECT_EQ(rec->sched_r, e.decision.r);
    EXPECT_EQ(rec->sched_c, e.decision.c);
    EXPECT_EQ(rec->sched_latency, e.decision.latency);
    EXPECT_EQ(rec->sched_makespan, e.decision.makespan);
    EXPECT_EQ(rec->sched_makespan,
              *std::max_element(e.decision.latency.begin(),
                                e.decision.latency.end()));
    const core::LayerWork& w = e.work;
    const std::int64_t R = e.total.rows, C = e.total.cols;
    const std::int64_t r = e.decision.r, c = e.decision.c;
    const struct {
      std::int64_t m, n, qr, qc;
      int pa, pw;
    } quadrants[4] = {
        {w.m_high, w.n_high, r, c, w.pa_high, w.pw_high},
        {w.m_high, w.n_low, r, C - c, w.pa_high, w.pw_low},
        {w.m_low, w.n_high, R - r, c, w.pa_low, w.pw_high},
        {w.m_low, w.n_low, R - r, C - c, w.pa_low, w.pw_low},
    };
    for (int q = 0; q < 4; ++q) {
      const auto& quad = quadrants[q];
      if (quad.m == 0 || quad.n == 0) {
        EXPECT_EQ(rec->sched_latency[q], 0) << "quadrant " << q;
        EXPECT_EQ(rec->tile_count[q], 0) << "quadrant " << q;
        continue;
      }
      EXPECT_EQ(rec->sched_latency[q],
                ref::eq7_cycles(quad.m, w.k, quad.n, quad.pa, quad.pw,
                                quad.qr, quad.qc))
          << "quadrant " << q;
      EXPECT_EQ(rec->tile_count[q],
                ref::eq7_repetitions(w.k, quad.n, quad.pa, quad.pw, quad.qr,
                                     quad.qc))
          << "quadrant " << q;
    }

    // Cycle and traffic accounting.
    EXPECT_EQ(rec->compute_cycles, e.sim_cycles);
    EXPECT_EQ(rec->stall_cycles, e.sim_stalls);
    EXPECT_EQ(rec->dram_bytes, e.dram_bytes);
  }

  // Process-level counters agree with the per-layer sums.
  EXPECT_EQ(reg.counter("selector.elements_total")->value(), elements_total);
  EXPECT_EQ(reg.counter("selector.elements_low")->value(), elements_low);
  // Every clip decision landed in the clip histograms.
  EXPECT_EQ(reg.histogram("selector.hc_clip", {})->total_count(),
            reg.counter("selector.subtensors_total")->value());
  EXPECT_EQ(reg.histogram("selector.lc_clip", {})->total_count(),
            reg.counter("selector.subtensors_total")->value());
}

}  // namespace
}  // namespace drift
