// Unit tests for the observability primitives: sharded counters,
// gauges, fixed-bucket histograms, the registry's stable handles, layer
// attribution scopes, canonical JSON scrapes (control bytes in names
// escaped, parsing back to the same names), and the scoped-span
// tracer, mostly through the types directly; the ObsMacros tests
// drive the DRIFT_OBS_* macros.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace drift::obs {
namespace {

/// The events of a to_chrome_json() document, which must be in
/// write_canonical's layout.
JsonArray trace_events(const std::string& json) {
  JsonError error;
  const std::optional<JsonValue> doc = parse_json(json, error);
  EXPECT_TRUE(doc.has_value()) << error.what() << "\n" << json;
  if (!doc) return {};
  EXPECT_EQ(write_canonical(*doc), json);
  const JsonValue* events = doc->get("traceEvents");
  EXPECT_TRUE(events != nullptr && events->is_array()) << json;
  return events != nullptr ? events->as_array() : JsonArray{};
}

/// Event field `key` as a string ("" when absent).
std::string text(const JsonValue& e, const char* key) {
  const JsonValue* v = e.get(key);
  return v != nullptr && v->is_string() ? v->as_string() : "";
}

/// Event field `key` as an integer (-1 when absent).
std::int64_t number(const JsonValue& e, const char* key) {
  const JsonValue* v = e.get(key);
  return v != nullptr && v->is_number() ? v->as_int() : -1;
}

TEST(ObsCounter, ParallelAddsMergeExactly) {
  Counter c;
  const std::int64_t n = 20000;
  util::parallel_for(0, n, 64, [&c](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) c.add(i % 7);
  });
  std::int64_t want = 0;
  for (std::int64_t i = 0; i < n; ++i) want += i % 7;
  EXPECT_EQ(c.value(), want);
  c.reset();
  EXPECT_EQ(c.value(), 0);
  c.add(1);
  EXPECT_EQ(c.value(), 1);
}

TEST(ObsGauge, LastWriteWinsAndResetsToZero) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(3.25);
  g.set(-0.5);
  EXPECT_EQ(g.value(), -0.5);
  g.reset();
  EXPECT_EQ(g.value(), 0.0);
}

TEST(ObsHistogram, BucketsPartitionTheLine) {
  Histogram h({10, 100, 1000});
  h.observe(-5);    // <= 10
  h.observe(10);    // bound is inclusive
  h.observe(11);    // (10, 100]
  h.observe(100);
  h.observe(1000);  // (100, 1000]
  h.observe(5000);  // overflow
  const auto counts = h.counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(counts[2], 1);
  EXPECT_EQ(counts[3], 1);
  EXPECT_EQ(h.total_count(), 6);
  h.reset();
  EXPECT_EQ(h.total_count(), 0);
}

TEST(ObsRegistry, HandlesAreStableAcrossLookups) {
  Registry& reg = Registry::global();
  Counter* c1 = reg.counter("obs_test.stable");
  Counter* c2 = reg.counter("obs_test.stable");
  EXPECT_EQ(c1, c2);
  Gauge* g1 = reg.gauge("obs_test.stable_g");
  EXPECT_EQ(g1, reg.gauge("obs_test.stable_g"));
  // The first lookup fixes a histogram's bounds; later bounds are
  // ignored (the macro always passes the same literal list anyway).
  Histogram* h1 = reg.histogram("obs_test.stable_h", {1, 2, 3});
  Histogram* h2 = reg.histogram("obs_test.stable_h", {99});
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h1->upper_bounds(), (std::vector<std::int64_t>{1, 2, 3}));
}

TEST(ObsRegistry, LayerScopeNestsByShadowing) {
  Registry& reg = Registry::global();
  EXPECT_EQ(reg.current_layer(), nullptr);
  {
    LayerScope outer("obs_test.outer");
    LayerRecord* o = reg.current_layer();
    ASSERT_NE(o, nullptr);
    EXPECT_EQ(o->layer, "obs_test.outer");
    {
      LayerScope inner("obs_test.inner");
      ASSERT_NE(reg.current_layer(), nullptr);
      EXPECT_EQ(reg.current_layer()->layer, "obs_test.inner");
    }
    EXPECT_EQ(reg.current_layer(), o);
  }
  EXPECT_EQ(reg.current_layer(), nullptr);
  // Re-opening the same layer name resumes the same record.
  LayerScope again("obs_test.outer");
  EXPECT_EQ(reg.current_layer()->layer, "obs_test.outer");
}

TEST(ObsRegistry, LayerRecordCoverage) {
  LayerRecord r;
  EXPECT_EQ(r.coverage(), 0.0);  // no elements: defined as zero
  r.elements_total = 8;
  r.elements_low = 2;
  EXPECT_DOUBLE_EQ(r.coverage(), 0.25);
}

TEST(ObsRegistry, ToJsonPrefixFilterKeepsOnlyMatches) {
  Registry& reg = Registry::global();
  reg.counter("obs_json.keep")->add(3);
  reg.counter("obs_json_other.drop")->add(5);
  reg.gauge("obs_json.g")->set(1.5);
  reg.histogram("obs_json.h", {4})->observe(2);
  const std::string json = reg.to_json({"obs_json."});
  EXPECT_NE(json.find("\"obs_json.keep\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_json.g\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"obs_json.h\""), std::string::npos);
  EXPECT_EQ(json.find("obs_json_other.drop"), std::string::npos);
  // An impossible prefix empties every metric section.
  const std::string none = reg.to_json({"no_such_prefix."});
  EXPECT_NE(none.find("\"counters\": {}"), std::string::npos);
  EXPECT_NE(none.find("\"gauges\": {}"), std::string::npos);
  EXPECT_NE(none.find("\"histograms\": {}"), std::string::npos);
}

TEST(ObsRegistry, ResetForgetsRunHistogramsAndZeroesTheRest) {
  Registry& reg = Registry::global();
  reg.run_histogram("obs_reset.per_run", {4})->observe(2);
  Histogram* kept = reg.histogram("obs_reset.kept", {4});
  kept->observe(2);
  reg.reset();
  const std::string json = reg.to_json({"obs_reset."});
  EXPECT_EQ(json.find("obs_reset.per_run"), std::string::npos) << json;
  EXPECT_NE(json.find("obs_reset.kept"), std::string::npos) << json;
  EXPECT_EQ(kept->total_count(), 0);
  // A later run that looks the name up again gets a fresh histogram.
  EXPECT_EQ(reg.run_histogram("obs_reset.per_run", {4})->total_count(), 0);
  reg.reset();
}

TEST(ObsTracer, SpansBalanceAndSerialize) {
  Tracer& t = Tracer::global();
  t.reset();
  t.set_enabled(true);
  {
    ScopedSpan outer("obs_span.outer");
    ScopedSpan inner("obs_span.inner");
  }
  t.set_enabled(false);
  const JsonArray events = trace_events(t.to_chrome_json());
  ASSERT_EQ(events.size(), 2u);
  for (const JsonValue& e : events) {
    EXPECT_EQ(text(e, "ph"), "X");
    EXPECT_EQ(text(e, "cat"), "drift");
    EXPECT_EQ(number(e, "pid"), 0);
    EXPECT_GE(number(e, "dur"), 0);
  }
  // LIFO destruction: the inner span completes first, inside the outer
  // one on the same thread's track.
  const JsonValue& inner = events[0];
  const JsonValue& outer = events[1];
  EXPECT_EQ(text(inner, "name"), "obs_span.inner");
  EXPECT_EQ(text(outer, "name"), "obs_span.outer");
  EXPECT_EQ(number(inner, "tid"), number(outer, "tid"));
  EXPECT_LE(number(outer, "ts"), number(inner, "ts"));
  EXPECT_LE(number(inner, "ts") + number(inner, "dur"),
            number(outer, "ts") + number(outer, "dur"));
  t.reset();
}

TEST(ObsTracer, DisabledTracerDropsEverything) {
  Tracer& t = Tracer::global();
  t.reset();
  t.set_enabled(false);
  {
    ScopedSpan s("obs_span.dropped");
  }
  t.complete("obs_span.dropped_x", 0, 0, 5);
  const std::string json = t.to_chrome_json();
  EXPECT_EQ(json.find("obs_span.dropped"), std::string::npos);
  EXPECT_TRUE(trace_events(json).empty()) << json;
}

TEST(ObsTracer, SimTracksAreStableAndNamed) {
  Tracer& t = Tracer::global();
  t.reset();
  const std::uint32_t a = t.sim_track("obs_track.a");
  const std::uint32_t b = t.sim_track("obs_track.b");
  EXPECT_NE(a, b);
  EXPECT_EQ(t.sim_track("obs_track.a"), a);
  t.set_enabled(true);
  t.complete("tile", a, 100, 25);
  t.set_enabled(false);
  const JsonArray events = trace_events(t.to_chrome_json());
  // Metadata names each track; the X event carries explicit ts/dur on
  // the simulated-cycle pid.
  ASSERT_EQ(events.size(), 3u);
  const JsonValue& names_a = events[0];
  EXPECT_EQ(text(names_a, "name"), "thread_name");
  EXPECT_EQ(text(names_a, "ph"), "M");
  EXPECT_EQ(number(names_a, "pid"), 1);
  EXPECT_EQ(number(names_a, "tid"), std::int64_t{a});
  const JsonValue* track = names_a.get_path({"args", "name"});
  ASSERT_NE(track, nullptr);
  EXPECT_EQ(track->as_string(), "obs_track.a");
  EXPECT_EQ(number(events[1], "tid"), std::int64_t{b});
  const JsonValue& tile = events[2];
  EXPECT_EQ(text(tile, "name"), "tile");
  EXPECT_EQ(text(tile, "ph"), "X");
  EXPECT_EQ(text(tile, "cat"), "sim");
  EXPECT_EQ(number(tile, "ts"), 100);
  EXPECT_EQ(number(tile, "dur"), 25);
  EXPECT_EQ(number(tile, "pid"), 1);
  EXPECT_EQ(number(tile, "tid"), std::int64_t{a});
  t.reset();
}

/// Whether no byte inside a string literal of `json` is below 0x20: a
/// raw control byte there makes the artifact invalid JSON.
bool strings_free_of_control_bytes(const std::string& json) {
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(json[i]);
    if (in_string && c < 0x20) return false;
    if (c == '"') {
      in_string = !in_string;
    } else if (c == '\\' && in_string) {
      ++i;  // the escaped byte cannot close the string
    }
  }
  return true;
}

TEST(ObsJson, ControlBytesInNamesAreEscapedAndRoundTrip) {
  const std::string name = "conv\r1\x01";
  Registry& reg = Registry::global();
  reg.reset();
  reg.layer_record(name)->subtensors_total = 3;
  const std::string metrics = reg.to_json({"no_such_prefix."});
  reg.reset();
  EXPECT_TRUE(strings_free_of_control_bytes(metrics)) << metrics;
  JsonError error;
  const std::optional<JsonValue> doc = parse_json(metrics, error);
  ASSERT_TRUE(doc.has_value()) << error.what() << "\n" << metrics;
  const JsonValue* layers = doc->get("layers");
  ASSERT_TRUE(layers != nullptr && layers->as_array().size() == 1u)
      << metrics;
  const JsonValue* layer = layers->as_array()[0].get("layer");
  ASSERT_NE(layer, nullptr) << metrics;
  EXPECT_EQ(layer->as_string(), name);

  Tracer& t = Tracer::global();
  t.reset();
  t.sim_track(name);
  const std::string trace = t.to_chrome_json();
  t.reset();
  EXPECT_TRUE(strings_free_of_control_bytes(trace)) << trace;
  const std::optional<JsonValue> trace_doc = parse_json(trace, error);
  ASSERT_TRUE(trace_doc.has_value()) << error.what() << "\n" << trace;
  const JsonValue* events = trace_doc->get("traceEvents");
  ASSERT_TRUE(events != nullptr && events->as_array().size() == 1u) << trace;
  const JsonValue* track = events->as_array()[0].get_path({"args", "name"});
  ASSERT_NE(track, nullptr) << trace;
  EXPECT_EQ(track->as_string(), name);
}

TEST(ObsWriteFile, RoundTripsAndReportsFailure) {
  const std::string path = testing::TempDir() + "drift_obs_write_test.json";
  EXPECT_TRUE(write_file(path, "{\"ok\": true}\n"));
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "{\"ok\": true}\n");
  EXPECT_FALSE(write_file("/nonexistent_drift_dir/out.json", "x"));
}

TEST(ObsMacros, CompileInBothModesAndCountWhenOn) {
  DRIFT_OBS_COUNT("obs_macro.count", 2);
  DRIFT_OBS_COUNT("obs_macro.count", 3);
  DRIFT_OBS_GAUGE_SET("obs_macro.gauge", 1.5);
  DRIFT_OBS_HISTOGRAM("obs_macro.hist", 4, 1, 10);
  DRIFT_OBS_LAYER(rec, rec->dram_bytes += 1);  // no scope: skipped
  DRIFT_OBS_SPAN("obs_macro.span");
  Registry& reg = Registry::global();
  EXPECT_EQ(reg.counter("obs_macro.count")->value(), 5);
  EXPECT_EQ(reg.gauge("obs_macro.gauge")->value(), 1.5);
  EXPECT_EQ(reg.histogram("obs_macro.hist", {})->total_count(), 1);
}

TEST(ObsMacros, ConcurrentLayerWritesSumExactly) {
  // The proxies run samples of one layer on several pool threads at
  // once, all adding into that layer's record; every add must land.
  struct PoolGuard {
    int saved = util::ThreadPool::instance().num_threads();
    ~PoolGuard() { util::ThreadPool::instance().resize(saved); }
  } guard;
  util::ThreadPool::instance().resize(8);
  const LayerRecord* shared =
      Registry::global().layer_record("obs_test.shared");
  const std::int64_t total0 = shared->elements_total;
  const std::int64_t low0 = shared->elements_low;
  const std::int64_t cycles0 = shared->compute_cycles;
  constexpr std::int64_t kChunks = 64;
  constexpr std::int64_t kAdds = 2000;
  util::parallel_for(0, kChunks, 1, [](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t chunk = lo; chunk < hi; ++chunk) {
      LayerScope scope("obs_test.shared");
      for (std::int64_t i = 0; i < kAdds; ++i) {
        DRIFT_OBS_LAYER(rec, rec->elements_total += 1;
                        rec->elements_low += chunk % 2;
                        rec->compute_cycles += i);
      }
    }
  });
  EXPECT_EQ(shared->elements_total - total0, kChunks * kAdds);
  EXPECT_EQ(shared->elements_low - low0, kChunks / 2 * kAdds);
  EXPECT_EQ(shared->compute_cycles - cycles0,
            kChunks * (kAdds * (kAdds - 1) / 2));
}

}  // namespace
}  // namespace drift::obs
