// Golden-trace regression tests for the observability layer.
//
// A fixed-seed two-layer workload drives the *real* pipeline — selector
// -> scheduler -> cycle simulation -> traffic -> timeline — under layer
// scopes, then:
//   1. the canonicalized metrics JSON is byte-compared against a
//      checked-in golden (tests/obs/golden/metrics.json);
//   2. the Chrome trace is parsed and validated structurally (every
//      event is complete or metadata, durations are non-negative, and
//      the host spans of one thread nest or are disjoint);
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
#include <optional>
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
#include "util/json.hpp"
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
    e.elements_total = rows * cols;
    e.elements_low = proptest::low_elements(map, views);

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

TEST(ObsGolden, ChromeTraceIsStructurallyValid) {
  run_fixed_workload();
  const std::string json = obs::Tracer::global().to_chrome_json();
  JsonError error;
  const std::optional<JsonValue> doc = parse_json(json, error);
  ASSERT_TRUE(doc.has_value()) << error.what();
  EXPECT_EQ(write_canonical(*doc), json);
  const JsonValue* events = doc->get("traceEvents");
  ASSERT_TRUE(events != nullptr && events->is_array()) << json;

  struct Span {
    std::string name;
    std::int64_t begin = 0, end = 0;
  };
  std::map<std::int64_t, std::vector<Span>> host_spans;  // by tid
  int host = 0, simulated = 0;
  for (const JsonValue& e : events->as_array()) {
    const JsonValue* name = e.get("name");
    const JsonValue* ph = e.get("ph");
    const JsonValue* pid = e.get("pid");
    const JsonValue* tid = e.get("tid");
    ASSERT_TRUE(name != nullptr && ph != nullptr && pid != nullptr &&
                tid != nullptr)
        << write_canonical(e);
    if (ph->as_string() == "M") {
      EXPECT_EQ(pid->as_int(), 1) << write_canonical(e);
      continue;
    }
    // Every other event is complete: a span with its own duration.
    ASSERT_EQ(ph->as_string(), "X") << write_canonical(e);
    const JsonValue* ts = e.get("ts");
    const JsonValue* dur = e.get("dur");
    ASSERT_TRUE(ts != nullptr && dur != nullptr) << write_canonical(e);
    EXPECT_GE(dur->as_int(), 0) << write_canonical(e);
    if (pid->as_int() == 0) {
      ++host;
      host_spans[tid->as_int()].push_back(
          {name->as_string(), ts->as_int(), ts->as_int() + dur->as_int()});
    } else {
      EXPECT_EQ(pid->as_int(), 1) << write_canonical(e);
      ++simulated;
    }
  }
  // One thread runs one scope inside another or after it, so any two
  // of its spans nest or are disjoint.
  for (const auto& [tid, spans] : host_spans) {
    for (std::size_t i = 0; i < spans.size(); ++i) {
      for (std::size_t j = i + 1; j < spans.size(); ++j) {
        const Span& a = spans[i];
        const Span& b = spans[j];
        const bool disjoint = a.end <= b.begin || b.end <= a.begin;
        const bool nested = (a.begin <= b.begin && b.end <= a.end) ||
                            (b.begin <= a.begin && a.end <= b.end);
        EXPECT_TRUE(disjoint || nested)
            << a.name << " and " << b.name << " overlap on tid " << tid;
      }
    }
  }
  EXPECT_GT(host, 0);       // the pipeline spans fired
  EXPECT_GT(simulated, 0);  // the timeline rendered X events
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
