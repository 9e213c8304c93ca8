// Serving study: tail latency and energy per request vs. offered load,
// Drift against the static-INT8 (BitFusion-style) and DRQ baselines.
//
// One tenant of bursty tiny-BERT traffic is swept across load levels;
// at each level the interarrival gap is calibrated from that design's
// own canonical service time, so every design faces the *same relative*
// load (utilization target), the fair comparison for tail latency.
// Prints the sweep as a table and writes a schema-v2 artifact
// ("serving_sweep") that `drift_report summarize` renders.
//
//   ./serving_study [output.json]   (default: serving_study.json)
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/simulator.hpp"
#include "util/args.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

using namespace drift;

namespace {

/// `v` read back from its `%.<digits>f` text: the artifact carries the
/// digits the study reports, not the double's full precision.
JsonValue rounded(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return JsonValue(std::strtod(buf, nullptr));
}

struct SweepPoint {
  nn::MixAlgorithm algo = nn::MixAlgorithm::kDrift;
  double load = 0.0;
  serve::SloSummary slo;
  double utilization = 0.0;
  std::int64_t batches = 0;
};

SweepPoint run_point(nn::MixAlgorithm algo, double load) {
  serve::ServeConfig config;
  config.exec.algo = algo;
  config.max_batch = 8;

  serve::TenantSpec tenant;
  tenant.name = "bert";
  tenant.workload = serve::serving_workload("tiny-bert");
  tenant.seed = 2024;
  tenant.num_requests = 400;
  tenant.arrival.kind = serve::ArrivalKind::kBursty;
  config.tenants.push_back(tenant);

  // Calibrate the gap from this design's canonical service time.
  serve::ServeConfig probe_cfg = config;
  probe_cfg.tenants[0].num_requests = 1;
  probe_cfg.tenants[0].unique_mix_per_request = false;
  serve::Simulator probe(probe_cfg);
  const double service =
      static_cast<double>(probe.executor().execute_canonical(0).cycles);
  config.tenants[0].arrival.mean_interarrival_cycles = service / load;

  obs::Registry::global().reset();
  serve::Simulator sim(config);
  const serve::ServeResult result = sim.run();

  SweepPoint point;
  point.algo = algo;
  point.load = load;
  point.slo = result.overall;
  point.utilization = result.utilization();
  point.batches = result.batches;
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  // The study takes no flags; its one optional argument is the output
  // path.
  const Args args = Args::parse(argc, argv);
  const std::vector<std::string>& paths = args.positional();
  if (args.reject_unqueried("none")) return 2;
  if (paths.size() > 1) {
    std::fprintf(stderr, "serving_study: unexpected argument '%s' (takes "
                 "one output path)\n", paths[1].c_str());
    return 2;
  }
  const std::string out_path =
      paths.empty() ? "serving_study.json" : paths.front();
  const auto to_us = [](double c) { return 1e6 * c / energy::kClockHz; };

  const std::vector<double> loads = {0.3, 0.5, 0.7, 0.85, 0.95};
  const std::vector<nn::MixAlgorithm> algos = {
      nn::MixAlgorithm::kStaticInt8, nn::MixAlgorithm::kDrq,
      nn::MixAlgorithm::kDrift};

  std::printf("serving sweep: bursty tiny-BERT, 400 requests per point, "
              "max batch 8, clock %.0f MHz\n\n", energy::kClockHz / 1e6);

  std::vector<SweepPoint> points;
  for (const nn::MixAlgorithm algo : algos) {
    for (const double load : loads) {
      points.push_back(run_point(algo, load));
    }
  }

  TextTable t({"design", "load", "p50_us", "p99_us", "p99.9_us",
               "energy/req_uJ", "util"});
  char buf[64];
  for (const SweepPoint& p : points) {
    std::vector<std::string> row;
    row.push_back(nn::to_string(p.algo));
    std::snprintf(buf, sizeof(buf), "%.2f", p.load);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.2f",
                  to_us(static_cast<double>(p.slo.p50_cycles)));
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.2f",
                  to_us(static_cast<double>(p.slo.p99_cycles)));
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.2f",
                  to_us(static_cast<double>(p.slo.p999_cycles)));
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.3f",
                  p.slo.energy_per_request_pj / 1e6);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.2f", p.utilization);
    row.push_back(buf);
    t.add_row(row);
  }
  std::printf("%s", t.to_string().c_str());

  // Schema-v2 sweep artifact for drift_report summarize.
  JsonArray sweep;
  for (const SweepPoint& p : points) {
    JsonObject entry;
    entry["design"] = JsonValue(nn::to_string(p.algo));
    entry["load"] = rounded(p.load, 2);
    entry["requests"] = JsonValue(p.slo.count);
    entry["p50_us"] = rounded(to_us(static_cast<double>(p.slo.p50_cycles)), 3);
    entry["p99_us"] = rounded(to_us(static_cast<double>(p.slo.p99_cycles)), 3);
    entry["p999_us"] =
        rounded(to_us(static_cast<double>(p.slo.p999_cycles)), 3);
    entry["mean_wait_us"] = rounded(to_us(p.slo.mean_wait_cycles), 3);
    entry["energy_per_request_uj"] =
        rounded(p.slo.energy_per_request_pj / 1e6, 4);
    entry["utilization"] = rounded(p.utilization, 4);
    sweep.push_back(JsonValue(std::move(entry)));
  }
  JsonObject doc;
  doc["schema_version"] = JsonValue(std::int64_t{2});
  doc["serving_sweep"] = JsonValue(std::move(sweep));
  const std::string json = write_canonical(JsonValue(std::move(doc)));
  if (!obs::write_file(out_path, json)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nsweep artifact written to %s\n", out_path.c_str());
  return 0;
}
