// Unit tests for the observability primitives: sharded counters,
// gauges, fixed-bucket histograms, the registry's stable handles, layer
// attribution scopes, canonical JSON scrapes (control bytes in names
// escaped, parsing back to the same names), and the scoped-span
// tracer.  These exercise the types directly (not the DRIFT_OBS_*
// macros), so they run and pass under -DDRIFT_OBS_OFF too.
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

/// Occurrences of `needle` in `haystack`.
int count_occurrences(const std::string& haystack, const std::string& needle) {
  int n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
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

TEST(ObsTracer, SpansBalanceAndSerialize) {
  Tracer& t = Tracer::global();
  t.reset();
  t.set_enabled(true);
  {
    ScopedSpan outer("obs_span.outer");
    ScopedSpan inner("obs_span.inner");
  }
  t.set_enabled(false);
  const std::string json = t.to_chrome_json();
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"B\""), 2);
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"E\""), 2);
  // LIFO destruction: the inner span closes before the outer one.
  EXPECT_LT(json.find("\"obs_span.inner\", \"cat\": \"drift\", \"ph\": \"E\""),
            json.find("\"obs_span.outer\", \"cat\": \"drift\", \"ph\": \"E\""));
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
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"B\""), 0);
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
  const std::string json = t.to_chrome_json();
  // Metadata names the track; the X event carries explicit ts/dur on
  // the simulated-cycle pid.
  EXPECT_NE(json.find("\"thread_name\", \"ph\": \"M\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_track.a\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\", \"ts\": 100, \"dur\": 25, \"pid\": 1"),
            std::string::npos);
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
#ifndef DRIFT_OBS_OFF
  Registry& reg = Registry::global();
  EXPECT_EQ(reg.counter("obs_macro.count")->value(), 5);
  EXPECT_EQ(reg.gauge("obs_macro.gauge")->value(), 1.5);
  EXPECT_EQ(reg.histogram("obs_macro.hist", {})->total_count(), 1);
#endif
}

TEST(ObsMacros, ConcurrentLayerWritesSumExactly) {
#ifdef DRIFT_OBS_OFF
  GTEST_SKIP() << "DRIFT_OBS_LAYER compiles out under DRIFT_OBS_OFF";
#else
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
#endif
}

}  // namespace
}  // namespace drift::obs
