// Golden end-to-end artifacts for whole-model graph runs (label:
// graph):
//
// A fixed-seed model-zoo topology (examples/model_zoo/<name>.json)
// flows through the real pipeline —
// workload export -> selector -> scheduler -> cycle model -> traffic —
// and the canonicalized metrics JSON (schema v2, deterministic metric
// prefixes plus all per-layer records) is byte-compared against a
// checked-in golden.  Two topologies are pinned: resnet18 (the CNN
// path: conv GEMMs, projection shortcuts) and gpt2_layer (the LLM
// path: giant QKV / FFN GEMMs).  Regenerate after an intentional
// change with:
//   DRIFT_OBS_UPDATE_GOLDEN=1 ./build/tests/graph/drift_graph_tests
//
// The artifact must also be byte-identical whatever the thread-pool
// size — counters merge commutatively and every histogram observation
// happens on the submitting thread — and the Chrome trace must be
// structurally sound (complete events whose host spans nest or are
// disjoint per thread, one accel span per GEMM layer).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "nn/workload.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"
#include "zoo_files.hpp"

namespace drift {
namespace {

/// Metric prefixes the pipeline itself creates, deterministically (no
/// wall clock, no pool size).  Registry::reset() zeroes counters but
/// keeps their names registered, so the scrape is restricted to
/// prefixes no *other* test in this binary touches — a key merely
/// created by an earlier test would otherwise appear (as zero) and
/// break byte-exactness.  Per-layer coverage lives in the layer
/// records, which reset() does drop and which are always emitted.
std::vector<std::string> deterministic_prefixes() {
  return {"accel.", "scheduler.", "traffic."};
}

/// Runs `zoo_name` through the full pipeline from a clean registry and
/// tracer.  Everything recorded is a deterministic function of the
/// topology and the default GraphPipelineConfig seed.
graphcli::GraphPipelineResult run_fixed_pipeline(
    const std::string& zoo_name) {
  obs::Registry::global().reset();
  obs::Tracer::global().reset();
  obs::Tracer::global().set_enabled(true);
  graphcli::GraphPipelineConfig config;  // kDrift, greedy, seed 17
  graphcli::GraphPipelineResult result =
      graphcli::run_graph_pipeline(
          graphcli::export_workload(zoo_files::load(zoo_name)),
          config);
  obs::Tracer::global().set_enabled(false);
  return result;
}

std::string golden_path(const std::string& zoo_name) {
  return std::string(DRIFT_GRAPH_GOLDEN_DIR) + "/" + zoo_name + ".json";
}

std::string read_file_or_empty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void check_against_golden(const std::string& zoo_name) {
  run_fixed_pipeline(zoo_name);
  const std::string scrape =
      obs::Registry::global().to_json(deterministic_prefixes());
  if (std::getenv("DRIFT_OBS_UPDATE_GOLDEN") != nullptr) {
    ASSERT_TRUE(obs::write_file(golden_path(zoo_name), scrape));
    GTEST_SKIP() << "golden regenerated at " << golden_path(zoo_name);
  }
  const std::string golden = read_file_or_empty(golden_path(zoo_name));
  ASSERT_FALSE(golden.empty())
      << "missing golden " << golden_path(zoo_name)
      << " — regenerate with DRIFT_OBS_UPDATE_GOLDEN=1";
  EXPECT_EQ(scrape, golden)
      << zoo_name
      << " artifact drifted from the golden; if the change is "
         "intentional, regenerate with DRIFT_OBS_UPDATE_GOLDEN=1";
}

TEST(GraphGolden, Resnet18ArtifactMatchesGolden) {
  check_against_golden("resnet18");
}

TEST(GraphGolden, Gpt2LayerArtifactMatchesGolden) {
  check_against_golden("gpt2_layer");
}

TEST(GraphGolden, ArtifactIsByteIdenticalAcrossThreadCounts) {
  std::map<int, std::string> scrapes;
  for (const int threads : {1, 2, 8}) {
    util::ThreadPool::instance().resize(threads);
    run_fixed_pipeline("resnet18");
    scrapes[threads] =
        obs::Registry::global().to_json(deterministic_prefixes());
  }
  util::ThreadPool::instance().resize(0);
  EXPECT_EQ(scrapes[1], scrapes[2]);
  EXPECT_EQ(scrapes[1], scrapes[8]);
}

TEST(GraphGolden, EveryGemmLayerHasARecordAndAnAccelSpan) {
  const graphcli::GraphPipelineResult result =
      run_fixed_pipeline("resnet18");

  // Per-node records: one for every exported GEMM layer, none extra
  // within the run (the scrape always carries the layer records).
  std::set<std::string> want_layers;
  for (const nn::LayerGemm& layer : result.workload.layers) {
    want_layers.insert(layer.name);
  }
  JsonError error;
  const std::optional<JsonValue> metrics =
      parse_json(obs::Registry::global().to_json({"none."}), error);
  ASSERT_TRUE(metrics.has_value()) << error.what();
  std::set<std::string> got_layers;
  for (const JsonValue& record : metrics->get("layers")->as_array()) {
    got_layers.insert(record.get("layer")->as_string());
  }
  EXPECT_EQ(got_layers, want_layers);

  // Per-node trace spans: each host span is one complete event, the
  // spans of one thread nest or are disjoint, and the accel model
  // opened exactly one layer span per mix.
  const std::string trace = obs::Tracer::global().to_chrome_json();
  const std::optional<JsonValue> doc = parse_json(trace, error);
  ASSERT_TRUE(doc.has_value()) << error.what();
  EXPECT_EQ(write_canonical(*doc), trace);
  const JsonValue* events = doc->get("traceEvents");
  ASSERT_TRUE(events != nullptr && events->is_array()) << trace;
  std::map<std::int64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      host_spans;  // [begin, end) by tid
  int accel_spans = 0;
  for (const JsonValue& e : events->as_array()) {
    const JsonValue* ph = e.get("ph");
    ASSERT_NE(ph, nullptr) << write_canonical(e);
    if (ph->as_string() == "M") continue;
    ASSERT_EQ(ph->as_string(), "X") << write_canonical(e);
    if (e.get("pid")->as_int() != 0) continue;
    const std::int64_t ts = e.get("ts")->as_int();
    const std::int64_t dur = e.get("dur")->as_int();
    EXPECT_GE(dur, 0) << write_canonical(e);
    host_spans[e.get("tid")->as_int()].emplace_back(ts, ts + dur);
    if (e.get("name")->as_string() == "accel.layer") ++accel_spans;
  }
  for (const auto& [tid, spans] : host_spans) {
    for (std::size_t i = 0; i < spans.size(); ++i) {
      for (std::size_t j = i + 1; j < spans.size(); ++j) {
        const auto [a0, a1] = spans[i];
        const auto [b0, b1] = spans[j];
        EXPECT_TRUE(a1 <= b0 || b1 <= a0 || (a0 <= b0 && b1 <= a1) ||
                    (b0 <= a0 && a1 <= b1))
            << "spans " << i << " and " << j << " overlap on tid " << tid;
      }
    }
  }
  EXPECT_EQ(accel_spans,
            static_cast<int>(result.mixes.size()));
}

}  // namespace
}  // namespace drift
