// drift_perfbench: the host-cost benchmark binary.
//
//   drift_perfbench --workload=paper_sim|proxy_accuracy|serve_poisson
//                   [--seed=17] [--seconds=10] [--trace=0|1]
//                   [--emit-reference]
//
// Run from the repository root: the checks read the committed CSVs.
//
// Sets the workload up for 0.5 s untimed, then, until --seconds have
// elapsed, sets it up again (timed) and runs one pass on the new state,
// checking every pass's outputs.  setup_s is the median set-up and wall_s
// the median pass; sampling set-ups across the whole run exposes them to
// the same host noise as the passes.  --trace=1 follows each untraced
// pass with a traced one and reports the per-layer metrics.  The last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --emit-reference prints the observed reference values as lines for
// reference.cpp instead (use at --seed=17 after a deliberate change to
// simulated results).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "obs/metrics.hpp"
#include "util/args.hpp"

namespace {

using namespace perfbench;

constexpr double kWarmupSeconds = 0.5;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in output order (the per_layer list of
/// BENCHMARK.json).  A traced run reports all of them; a layer its
/// workload never calls reads 0.
constexpr MetricDef kLayerMetrics[] = {
    {"nn.build_mixes_s", "s"},
    {"nn.build_mixes.drift_s", "s"},
    {"accel.eyeriss_s", "s"},
    {"accel.bitfusion_s", "s"},
    {"accel.drq_s", "s"},
    {"accel.drift_s", "s"},
    {"accel.self_s", "s"},
    {"dram.stream_s", "s"},
    {"dram.bursts", "count"},
    {"dram.row_misses", "count"},
    {"dram.ns_per_burst", "ns"},
    {"core.schedule_greedy_s", "s"},
    {"nn.proxy.fp32_s", "s"},
    {"nn.proxy.int8_s", "s"},
    {"nn.proxy.drq_s", "s"},
    {"nn.proxy.drift_s", "s"},
    {"nn.proxy.cnn_s", "s"},
    {"nn.proxy.vit_s", "s"},
    {"nn.proxy.lm_s", "s"},
    {"serve.precompute_s", "s"},
    {"serve.run_s", "s"},
    {"serve.execute_s", "s"},
    {"serve.loop_s", "s"},
    {"serve.batches", "count"},
    {"serve.mean_batch", "requests"},
    {"trace.overhead_s", "s"},
    {"trace.uncovered_s", "s"},
    {"trace.coverage", "ratio"},
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "paper_sim") return make_paper_sim(seed);
  if (name == "proxy_accuracy") return make_proxy_accuracy(seed);
  if (name == "serve_poisson") return make_serve_poisson(seed);
  return nullptr;
}

/// VmHWM of this process image.  getrusage's ru_maxrss is not used: on
/// Linux it keeps the parent's peak across exec, here python's.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// Median of a LayerValues key across samples (0 when absent).
double median_of(const std::vector<LayerValues>& samples,
                 const std::string& key) {
  std::vector<double> values;
  for (const LayerValues& s : samples) {
    const auto it = s.find(key);
    values.push_back(it == s.end() ? 0.0 : it->second);
  }
  return median(values);
}

/// The artifacts' run metadata (git sha, SIMD backend and detected CPU
/// features, pool threads) plus what identifies this run.
void print_meta(const std::string& workload, std::uint64_t seed, bool trace) {
  auto meta = drift::obs::run_metadata();
  const char* env = std::getenv("DRIFT_NUM_THREADS");
  meta["workload"] = workload;
  meta["seed"] = std::to_string(seed);
  meta["trace"] = trace ? "1" : "0";
  meta["nproc"] = std::to_string(std::thread::hardware_concurrency());
  meta["DRIFT_NUM_THREADS"] = env != nullptr ? env : "";
  meta["build_type"] = PERFBENCH_BUILD_TYPE;
  std::string line = "meta {";
  bool first = true;
  for (const auto& [key, value] : meta) {
    line += (first ? "\"" : ", \"") + key + "\": \"" + value + "\"";
    first = false;
  }
  std::printf("%s}\n", line.c_str());
}

void print_spread(const char* name, const std::vector<double>& values) {
  double lo = values.empty() ? 0.0 : values.front(), hi = lo;
  for (double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::printf("%-12s %.6f s  (median of %zu, min %.6f, max %.6f)\n", name,
              median(values), values.size(), lo, hi);
}

}  // namespace

int main(int argc, char** argv) {
  const drift::Args args = drift::Args::parse(argc, argv);
  const std::string name = args.get_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<std::int64_t>(kReferenceSeed)));
  const double seconds = args.get_double("seconds", 10.0);
  const bool trace = args.get_int("trace", 0) != 0;
  const bool emit = args.get_bool("emit-reference");
  for (const std::string& flag : args.unqueried()) {
    std::fprintf(stderr, "unknown flag --%s\n", flag.c_str());
    return 2;
  }
  std::unique_ptr<Workload> workload = make_workload(name, seed);
  if (!workload) {
    std::fprintf(stderr,
                 "unknown --workload '%s' (valid: paper_sim, proxy_accuracy, "
                 "serve_poisson)\n",
                 name.c_str());
    return 2;
  }
  print_meta(name, seed, trace);

  // Untimed warm-up set-ups first: the CPU leaves its idle clock and the
  // allocator and caches fill before anything is timed.
  const Clock::time_point warmup = Clock::now();
  do {
    workload->setup();
  } while (seconds_since(warmup) < kWarmupSeconds);

  Checks checks(emit);
  std::vector<double> setups, walls;
  std::vector<LayerValues> setup_layers;
  std::vector<TracedPass> traced;
  const Clock::time_point start = Clock::now();
  do {
    for (int i = 0; i < workload->setups_per_pass(); ++i) {
      const Clock::time_point t0 = Clock::now();
      setup_layers.push_back(workload->setup());
      setups.push_back(seconds_since(t0));
    }
    const Clock::time_point t0 = Clock::now();
    workload->run();
    walls.push_back(seconds_since(t0));
    workload->check(checks);
    if (trace) traced.push_back(workload->traced(checks));
  } while (seconds_since(start) < seconds);

  if (emit) {
    checks.print_recorded();
    return 0;
  }

  const bool correct = checks.failed() == 0 && checks.attempted() > 0;
  std::printf("workload %s, seed %llu, %zu passes in %.1f s\n", name.c_str(),
              static_cast<unsigned long long>(seed), walls.size(),
              seconds_since(start));
  print_spread("setup_s", setups);
  print_spread("wall_s", walls);
  std::printf("%-12s %.1f MB\n", "peak_rss_mb", peak_rss_mb());
  std::printf("%-12s %lld of %lld operations (%.2f%%)\n", "failed",
              static_cast<long long>(checks.failed()),
              static_cast<long long>(checks.attempted()),
              100.0 * static_cast<double>(checks.failed()) /
                  static_cast<double>(std::max<std::int64_t>(
                      checks.attempted(), 1)));

  std::vector<MetricDef> defs;
  std::vector<double> values;
  if (trace) {
    std::vector<LayerValues> samples;
    std::vector<double> traced_walls;
    for (const TracedPass& pass : traced) {
      LayerValues s = pass.layers;
      s["trace.uncovered_s"] = pass.wall_s - pass.covered_s;
      s["trace.coverage"] = pass.covered_s / pass.wall_s;
      samples.push_back(std::move(s));
      traced_walls.push_back(pass.wall_s);
    }
    const double overhead = median(traced_walls) - median(walls);
    for (const MetricDef& def : kLayerMetrics) {
      defs.push_back(def);
      const std::string key = def.name;
      // Layers timed during set-up report the median over the set-ups.
      const std::vector<LayerValues>& source =
          setup_layers.front().count(key) > 0 ? setup_layers : samples;
      values.push_back(key == "trace.overhead_s" ? overhead
                                                 : median_of(source, key));
      std::printf("%-24s %.9g %s\n", def.name, values.back(), def.unit);
    }
  } else {
    defs = {{"wall_s", "s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"}};
    values = {median(walls), median(setups), peak_rss_mb()};
  }

  std::string metrics;
  for (std::size_t i = 0; i < defs.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", defs[i].name, values[i], defs[i].unit);
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<long long>(checks.attempted()),
              static_cast<long long>(checks.failed()), metrics.c_str());
  return 0;
}
