#include "serve/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace drift::serve {
namespace {

/// Stream id of a tenant's arrival trace on Rng(tenant.seed): distinct
/// from the canonical mix streams (0..layers-1) and the per-request
/// activation streams (kRequestStreamBase + r).
constexpr std::uint64_t kArrivalStream = 1ull << 33;

/// Bucket bounds shared by the cycle-valued serve histograms (latency,
/// wait, service): powers of two from 64 cycles to ~67M cycles.
#define DRIFT_SERVE_CYCLE_BOUNDS                                           \
  64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072, \
      262144, 524288, 1048576, 2097152, 4194304, 8388608, 16777216,       \
      33554432, 67108864

std::vector<std::int64_t> cycle_bounds() {
  return {DRIFT_SERVE_CYCLE_BOUNDS};
}

double mean_i64(const std::vector<std::int64_t>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (std::int64_t x : v) sum += static_cast<double>(x);
  return sum / static_cast<double>(v.size());
}

SloSummary summarize(const std::vector<const RequestRecord*>& records) {
  SloSummary slo;
  slo.count = static_cast<std::int64_t>(records.size());
  if (records.empty()) return slo;
  std::vector<std::int64_t> latencies, waits;
  latencies.reserve(records.size());
  waits.reserve(records.size());
  double energy = 0.0;
  for (const RequestRecord* r : records) {
    latencies.push_back(r->latency());
    waits.push_back(r->wait());
    energy += r->energy_pj;
  }
  slo.p50_cycles = exact_quantile(latencies, 0.50);
  slo.p99_cycles = exact_quantile(latencies, 0.99);
  slo.p999_cycles = exact_quantile(latencies, 0.999);
  slo.max_cycles = *std::max_element(latencies.begin(), latencies.end());
  slo.mean_wait_cycles = mean_i64(waits);
  slo.mean_latency_cycles = mean_i64(latencies);
  slo.energy_per_request_pj = energy / static_cast<double>(records.size());
  return slo;
}

}  // namespace

std::int64_t exact_quantile(std::vector<std::int64_t> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  auto rank = static_cast<std::int64_t>(std::ceil(p * n));
  rank = std::clamp<std::int64_t>(rank, 1,
                                  static_cast<std::int64_t>(values.size()));
  return values[static_cast<std::size_t>(rank - 1)];
}

Simulator::Simulator(ServeConfig config, util::ThreadPool& pool)
    : config_(std::move(config)),
      executor_(config_.exec, config_.tenants, pool) {
  DRIFT_CHECK(config_.max_batch >= 1, "max_batch must be at least 1");
}

ServeResult Simulator::run() {
  // Merge the per-tenant arrival traces into one total order; ties
  // break by (tenant, local index) so the admission order — and with it
  // every batch composition — is a pure function of the seeds.
  struct Arrival {
    std::int64_t cycle = 0;
    int tenant = 0;
    std::int64_t local = 0;
  };
  std::vector<Arrival> arrivals;
  for (std::size_t t = 0; t < config_.tenants.size(); ++t) {
    const TenantSpec& tenant = config_.tenants[t];
    Rng rng = Rng(tenant.seed).fork(kArrivalStream);
    const auto cycles = arrival_cycles(tenant.arrival, rng,
                                       tenant.num_requests);
    for (std::size_t i = 0; i < cycles.size(); ++i) {
      arrivals.push_back({cycles[i], static_cast<int>(t),
                          static_cast<std::int64_t>(i)});
    }
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& a, const Arrival& b) {
              if (a.cycle != b.cycle) return a.cycle < b.cycle;
              if (a.tenant != b.tenant) return a.tenant < b.tenant;
              return a.local < b.local;
            });

  ServeResult result;
  result.requests.resize(arrivals.size());
  for (std::size_t id = 0; id < arrivals.size(); ++id) {
    RequestRecord& rec = result.requests[id];
    rec.id = static_cast<std::int64_t>(id);
    rec.tenant = arrivals[id].tenant;
    rec.local = arrivals[id].local;
    rec.arrival = arrivals[id].cycle;
  }

  // Per-tenant latency histograms carry dynamic names, so they cannot
  // go through the static-handle macros; handles are resolved once
  // here, before the event loop.
  std::vector<obs::Histogram*> tenant_latency(config_.tenants.size());
  for (std::size_t t = 0; t < config_.tenants.size(); ++t) {
    // drift-lint: allow(obs) — one lookup per tenant at simulator setup, not on the serving hot path; the event loop uses the cached handles.
    tenant_latency[t] = obs::Registry::global().histogram(
        "serve.latency_cycles." + config_.tenants[t].name, cycle_bounds());
  }
  obs::Tracer& tracer = obs::Tracer::global();

  // Single-server FIFO event loop: admit everything that has arrived by
  // the instant the accelerator frees up, serve the head-of-line
  // tenant's eligible requests as one batch.
  AdmissionQueue queue;
  std::size_t next = 0;
  std::int64_t free_at = 0;
  while (next < arrivals.size() || !queue.empty()) {
    if (queue.empty()) {
      const Arrival& a = arrivals[next];
      queue.push({static_cast<std::int64_t>(next), a.tenant, a.local,
                  a.cycle});
      ++next;
      continue;
    }
    const std::int64_t t_start = std::max(free_at, queue.head().arrival);
    while (next < arrivals.size() && arrivals[next].cycle <= t_start) {
      const Arrival& a = arrivals[next];
      queue.push({static_cast<std::int64_t>(next), a.tenant, a.local,
                  a.cycle});
      ++next;
    }
    const auto batch = queue.pop_batch(t_start, config_.max_batch);
    std::vector<std::int64_t> locals;
    locals.reserve(batch.size());
    for (const QueuedRequest& r : batch) locals.push_back(r.local);

    const BatchResult executed = executor_.execute(batch.front().tenant,
                                                   locals);
    const std::int64_t completion = t_start + executed.cycles;
    free_at = completion;
    result.busy_cycles += executed.cycles;
    result.total_energy_pj += executed.energy_pj;
    const double per_request_energy =
        executed.energy_pj / static_cast<double>(batch.size());

    DRIFT_OBS_COUNT("serve.batches", 1);
    DRIFT_OBS_COUNT("serve.batch_cycles", executed.cycles);
    DRIFT_OBS_COUNT("serve.energy_pj",
                    static_cast<std::int64_t>(std::llround(
                        executed.energy_pj)));
    DRIFT_OBS_HISTOGRAM("serve.batch_size",
                        static_cast<std::int64_t>(batch.size()), 1, 2, 3, 4,
                        6, 8, 12, 16, 24, 32);

    for (const QueuedRequest& r : batch) {
      RequestRecord& rec = result.requests[static_cast<std::size_t>(r.id)];
      rec.start = t_start;
      rec.completion = completion;
      rec.batch_id = result.batches;
      rec.batch_size = static_cast<std::int64_t>(batch.size());
      rec.energy_pj = per_request_energy;

      DRIFT_OBS_COUNT("serve.requests", 1);
      DRIFT_OBS_HISTOGRAM("serve.latency_cycles", rec.latency(),
                          DRIFT_SERVE_CYCLE_BOUNDS);
      DRIFT_OBS_HISTOGRAM("serve.wait_cycles", rec.wait(),
                          DRIFT_SERVE_CYCLE_BOUNDS);
      DRIFT_OBS_HISTOGRAM("serve.service_cycles", rec.service(),
                          DRIFT_SERVE_CYCLE_BOUNDS);
      tenant_latency[static_cast<std::size_t>(r.tenant)]->observe(
          rec.latency());
      if (tracer.enabled()) {
        if (rec.id < kTraceRequestCap) {
          const std::string track =
              "req/" + config_.tenants[static_cast<std::size_t>(r.tenant)]
                           .name +
              "/" + std::to_string(r.local);
          const std::uint32_t tid = tracer.sim_track(track);
          if (rec.wait() > 0) {
            tracer.complete("wait", tid, rec.arrival, rec.wait());
          }
          tracer.complete("exec", tid, rec.start, rec.service());
        } else {
          DRIFT_OBS_COUNT("serve.trace_dropped", 1);
        }
      }
    }
    ++result.batches;
  }

  DRIFT_OBS_COUNT("serve.arrivals",
                  static_cast<std::int64_t>(arrivals.size()));
  result.makespan_cycles = free_at;

  std::vector<const RequestRecord*> all;
  all.reserve(result.requests.size());
  std::vector<std::vector<const RequestRecord*>> by_tenant(
      config_.tenants.size());
  for (const RequestRecord& rec : result.requests) {
    all.push_back(&rec);
    by_tenant[static_cast<std::size_t>(rec.tenant)].push_back(&rec);
  }
  result.overall = summarize(all);
  result.per_tenant.reserve(by_tenant.size());
  for (const auto& group : by_tenant) {
    result.per_tenant.push_back(summarize(group));
  }
  DRIFT_OBS_GAUGE_SET("serve.utilization", result.utilization());
  return result;
}

}  // namespace drift::serve

#undef DRIFT_SERVE_CYCLE_BOUNDS
