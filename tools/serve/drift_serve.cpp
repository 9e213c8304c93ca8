// drift_serve — multi-tenant serving simulator driver.
//
// Generates open-loop traffic (Poisson / bursty / diurnal), runs it
// through the continuous-batching event loop over one accelerator, and
// prints the SLO report: per-tenant and overall p50/p99/p99.9 latency,
// queueing delay, utilization and energy per request.
//
//   drift_serve --workloads=tiny-bert,tiny-cnn --arrival=bursty --load=0.7
//   drift_serve --workloads=tiny-bert --algo=drq --requests=1000
//   drift_serve --workloads=tiny-bert --metrics-out=m.json --trace-out=t.json
#include <cstdio>
#include <exception>
#include <limits>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "serve/simulator.hpp"
#include "util/args.hpp"
#include "util/assert.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace drift;

namespace {

constexpr const char* kUsage = R"(drift_serve — Drift serving simulator

flags:
  --workloads=A,B   comma list of tenant workloads, any name
                    `drift_graph list` gives under --model
                    (default: tiny-bert,tiny-cnn)
  --algo=NAME       drift|int8|drq  (default: drift)
  --arrival=NAME    poisson|bursty|diurnal  (default: poisson)
  --load=F          target utilization, finite and > 0; interarrival gaps
                    are calibrated from each tenant's canonical service
                    time (default 0.6)
  --interarrival=F  mean interarrival gap in cycles, finite and > 0
                    (overrides --load)
  --requests=N      requests per tenant, 1..1000000 (default 256)
  --max-batch=N     continuous-batching cap, 1..1024 (default 8)
  --rows=N --cols=N BitGroup grid geometry, each 2..1024 (default 24x33)
  --seed=N          base seed; tenant i uses seed N+i (default 1)
  --shared-mix      all requests reuse the tenant's canonical mix
  --metrics-out=P   write the metrics artifact of the simulated run
  --trace-out=P     write a Chrome trace with one track per request
  --help            this text

An unknown flag or choice, a malformed number or one out of its range
is a usage error: exit 2 before any work, and no artifact is written.
A run that fails (an arrival time beyond 2^62 cycles) exits 1 and
writes its partial artifacts.
)";

// The flags besides --metrics-out / --trace-out (ReportOptions).
constexpr const char* kAcceptedFlags =
    "--workloads, --algo, --arrival, --load, --interarrival, --requests, "
    "--max-batch, --rows, --cols, --seed, --shared-mix, --help";

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= s.size()) {
    const std::size_t comma = s.find(',', begin);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > begin) out.push_back(s.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return out;
}

std::string us(std::int64_t cycles) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f",
                1e6 * static_cast<double>(cycles) / energy::kClockHz);
  return buf;
}

/// The whole run; main turns an exception from it into exit 1.
int serve_main(int argc, char** argv) {
  const Args args = Args::parse(argc, argv);
  const std::optional<bool> help = args.bool_flag("help", false);
  if (!help) return 2;
  if (*help) {
    std::printf("%s", kUsage);
    return 0;
  }

  // Every flag is read and checked before any work, so a typo or a bad
  // number exits 2 instead of running on a default or aborting midway;
  // from_args arms the artifact flush only once all of them passed.
  const std::string algo = args.get_string("algo", "drift");
  const auto names =
      split_csv(args.get_string("workloads", "tiny-bert,tiny-cnn"));
  const std::string arrival = args.get_string("arrival", "poisson");
  // >= 2 hosts both precision classes; 1024 bounds the O(R + C) tables.
  const auto rows = args.int_flag("rows", 24, 2, 1024);
  const auto cols = args.int_flag("cols", 33, 2, 1024);
  // 1024 is 128x the default batch cap; a million tiny-bert requests
  // take about 150 MB and 30 s of host time (Release, x86-64).
  const auto max_batch = args.int_flag("max-batch", 8, 1, 1024);
  const auto requests = args.int_flag("requests", 256, 1, 1000000);
  const auto seed =
      args.int_flag("seed", 1, std::numeric_limits<std::int64_t>::min());
  const auto load = args.positive_flag("load", 0.6);
  const bool explicit_gap = args.has("interarrival");
  const auto gap = args.positive_flag("interarrival", 0.0);
  const auto shared_mix = args.bool_flag("shared-mix", false);
  if (!rows || !cols || !max_batch || !requests || !seed || !load || !gap ||
      !shared_mix) {
    return 2;
  }

  serve::ServeConfig config;
  const auto parsed_algo = nn::parse_mix_algorithm(algo);
  if (!parsed_algo) {
    std::fprintf(stderr, "unknown --algo '%s' (valid: int8, drq, drift)\n",
                 algo.c_str());
    return 2;
  }
  config.exec.algo = *parsed_algo;
  config.exec.hw.array.rows = *rows;
  config.exec.hw.array.cols = *cols;
  config.max_batch = *max_batch;

  if (names.empty()) {
    std::fprintf(stderr, "no workloads given\n");
    return 2;
  }
  const auto kind = serve::parse_arrival_kind(arrival);
  if (!kind) {
    std::fprintf(stderr,
                 "unknown --arrival '%s' (valid: poisson, bursty, diurnal)\n",
                 arrival.c_str());
    return 2;
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    serve::TenantSpec tenant;
    tenant.name = names[i] + "#" + std::to_string(i);
    try {
      tenant.workload = serve::serving_workload(names[i]);
    } catch (const check_error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    tenant.arrival.kind = *kind;
    tenant.num_requests = *requests;
    tenant.seed = static_cast<std::uint64_t>(*seed) + i;
    tenant.unique_mix_per_request = !*shared_mix;
    config.tenants.push_back(tenant);
  }
  const auto artifacts = obs::ReportOptions::from_args(args, kAcceptedFlags);
  if (!artifacts) return 2;

  util::ThreadPool& pool = util::ThreadPool::instance();

  // The artifacts cover the simulated run only: the calibration probe
  // runs untraced, and its metrics are reset before the run.
  obs::Tracer::global().set_enabled(false);

  // Arrival calibration: an explicit gap applies to every tenant;
  // otherwise --load splits the target utilization evenly across
  // tenants using each one's canonical service time.
  {
    serve::ServeConfig probe_cfg = config;
    for (auto& tenant : probe_cfg.tenants) {
      tenant.num_requests = 1;
      tenant.unique_mix_per_request = false;
    }
    serve::Simulator probe(probe_cfg, pool);
    for (std::size_t i = 0; i < config.tenants.size(); ++i) {
      const double service = static_cast<double>(
          probe.executor().execute_canonical(static_cast<int>(i)).cycles);
      config.tenants[i].arrival.mean_interarrival_cycles =
          explicit_gap
              ? *gap
              : service * static_cast<double>(config.tenants.size()) / *load;
      if (kind == serve::ArrivalKind::kDiurnal) {
        config.tenants[i].arrival.diurnal_period_cycles =
            256.0 * config.tenants[i].arrival.mean_interarrival_cycles;
      }
    }
  }

  obs::Registry::global().reset();
  obs::Tracer::global().reset();
  obs::Tracer::global().set_enabled(!artifacts->trace_path.empty());

  serve::Simulator sim(config, pool);
  const serve::ServeResult result = sim.run();
  obs::Tracer::global().set_enabled(false);

  std::printf("%s serving, %zu tenant(s), arrival %s, max batch %lld, "
              "array %lldx%lld\n",
              nn::to_string(config.exec.algo).c_str(),
              config.tenants.size(), serve::to_string(*kind).c_str(),
              static_cast<long long>(config.max_batch),
              static_cast<long long>(config.exec.hw.array.rows),
              static_cast<long long>(config.exec.hw.array.cols));
  std::printf("%lld requests in %lld batches, makespan %.2f ms, "
              "utilization %.1f%%\n\n",
              static_cast<long long>(result.overall.count),
              static_cast<long long>(result.batches),
              1e3 * static_cast<double>(result.makespan_cycles) /
                  energy::kClockHz,
              100.0 * result.utilization());

  TextTable t({"tenant", "n", "p50_us", "p99_us", "p99.9_us", "wait_us",
               "energy/req_uJ"});
  const auto add = [&](const std::string& name, const serve::SloSummary& s) {
    char wait[32], energy[32];
    std::snprintf(wait, sizeof(wait), "%.2f",
                  1e6 * s.mean_wait_cycles / energy::kClockHz);
    std::snprintf(energy, sizeof(energy), "%.3f",
                  s.energy_per_request_pj / 1e6);
    t.add_row({name, std::to_string(s.count), us(s.p50_cycles),
               us(s.p99_cycles), us(s.p999_cycles), wait, energy});
  };
  for (std::size_t i = 0; i < config.tenants.size(); ++i) {
    add(config.tenants[i].name, result.per_tenant[i]);
  }
  add("overall", result.overall);
  std::printf("%s", t.to_string().c_str());

  return artifacts->write() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return serve_main(argc, argv);
  } catch (const std::exception& e) {
    // A run that fails (e.g. an arrival time beyond 2^62 cycles) exits
    // 1; the armed flush still writes partial artifacts.
    std::fprintf(stderr, "drift_serve: %s\n", e.what());
    return 1;
  }
}
