// serve_poisson: two tenants (tiny-bert, tiny-cnn) under Poisson
// arrivals at load 0.7, calibrated as drift_serve calibrates --load.
// Thousands of tiny accelerator runs instead of a few huge ones.
#include <algorithm>

#include "bench.hpp"
#include "serve/simulator.hpp"

namespace perfbench {
namespace {

using namespace drift;

constexpr const char* kTenants[] = {"tiny-bert", "tiny-cnn"};
constexpr std::size_t kNumTenants = std::size(kTenants);
/// Requests per tenant: sized so Simulator::run takes about a second on
/// a 4-core x86-64 host.
constexpr std::int64_t kRequests = 10240;
constexpr double kLoad = 0.7;
constexpr std::int64_t kMaxBatch = 8;

class ServePoisson final : public Workload {
 public:
  explicit ServePoisson(std::uint64_t seed)
      : base_seed_(shifted_seed(1, seed)),  // drift_serve's default --seed
        reference_seed_(seed == kReferenceSeed) {}

  int setups_per_pass() const override { return 1; }

  LayerValues setup() override {
    sim_.reset();
    serve::ServeConfig config;
    config.max_batch = kMaxBatch;
    for (std::size_t i = 0; i < kNumTenants; ++i) {
      serve::TenantSpec tenant;
      tenant.name = std::string(kTenants[i]) + "#" + std::to_string(i);
      tenant.workload = serve::serving_workload(kTenants[i]);
      tenant.num_requests = kRequests;
      tenant.seed = base_seed_ + i;
      tenant.unique_mix_per_request = true;
      config.tenants.push_back(tenant);
    }
    util::ThreadPool& pool = util::ThreadPool::instance();
    {
      // Calibration, as drift_serve does it for --load.
      serve::ServeConfig probe_cfg = config;
      for (auto& tenant : probe_cfg.tenants) {
        tenant.num_requests = 1;
        tenant.unique_mix_per_request = false;
      }
      serve::Simulator probe(probe_cfg, pool);
      for (std::size_t i = 0; i < kNumTenants; ++i) {
        const double service = static_cast<double>(
            probe.executor().execute_canonical(static_cast<int>(i)).cycles);
        config.tenants[i].arrival.mean_interarrival_cycles =
            service * static_cast<double>(kNumTenants) / kLoad;
      }
    }
    const Clock::time_point t0 = Clock::now();
    sim_ = std::make_unique<serve::Simulator>(config, pool);
    return {{"serve.precompute_s", seconds_since(t0)}};
  }

  void run() override { result_ = sim_->run(); }

  void check(Checks& checks) override;

  TracedPass traced(Checks& checks) override {
    TracedPass pass;
    const Clock::time_point start = Clock::now();
    run();
    pass.wall_s = seconds_since(start);
    pass.covered_s = pass.wall_s;
    check(checks);

    // Replay every recorded batch through BatchExecutor::execute; one
    // operation per tenant.
    LayerValues& layers = pass.layers;
    const auto& requests = result_.requests;
    double execute_s = 0.0;
    for (std::size_t t = 0; t < kNumTenants; ++t) {
      checks.operation(std::string("serve_poisson/") + kTenants[t] +
                       "/batch_replay");
      for (const std::vector<std::size_t>& batch : batches_) {
        if (batch.empty()) continue;  // already failed check()
        const serve::RequestRecord& head = requests[batch.front()];
        if (head.tenant != static_cast<int>(t)) continue;
        std::vector<std::int64_t> locals;
        for (std::size_t i : batch) locals.push_back(requests[i].local);
        const Clock::time_point t0 = Clock::now();
        const serve::BatchResult replay =
            sim_->executor().execute(head.tenant, locals);
        execute_s += seconds_since(t0);
        const std::string what = "batch " + std::to_string(head.batch_id);
        checks.exact(static_cast<double>(replay.cycles),
                     static_cast<double>(head.service()),
                     what + " replayed cycles");
        checks.exact(replay.energy_pj / static_cast<double>(batch.size()),
                     head.energy_pj, what + " replayed energy per request");
      }
    }
    layers["serve.run_s"] = pass.wall_s;
    layers["serve.execute_s"] = execute_s;
    layers["serve.loop_s"] = pass.wall_s - execute_s;
    layers["serve.batches"] = static_cast<double>(result_.batches);
    layers["serve.mean_batch"] =
        static_cast<double>(requests.size()) /
        static_cast<double>(std::max<std::int64_t>(result_.batches, 1));
    return pass;
  }

 private:
  std::uint64_t base_seed_;
  bool reference_seed_;
  std::unique_ptr<serve::Simulator> sim_;
  serve::ServeResult result_;
  /// Request indices of each batch of result_, by batch id.
  std::vector<std::vector<std::size_t>> batches_;
};

void ServePoisson::check(Checks& checks) {
  // Whole-run consistency: every batch is a same-tenant group (members in
  // admission order) sharing start and completion, and the batch
  // services add up to the accelerator's busy time.
  const auto& requests = result_.requests;
  bool consistent = result_.per_tenant.size() == kNumTenants &&
                    result_.batches >= 1;
  batches_.assign(static_cast<std::size_t>(std::max<std::int64_t>(
                      result_.batches, 0)),
                  {});
  for (std::size_t i = 0; i < requests.size() && consistent; ++i) {
    const serve::RequestRecord& r = requests[i];
    consistent = r.start >= r.arrival && r.completion > r.start &&
                 r.batch_id >= 0 && r.batch_id < result_.batches;
    if (consistent) {
      batches_[static_cast<std::size_t>(r.batch_id)].push_back(i);
    }
  }
  std::int64_t busy = 0;
  std::vector<std::int64_t> tenant_batches(kNumTenants, 0);
  std::vector<double> tenant_energy(kNumTenants, 0.0);
  for (const std::vector<std::size_t>& batch : batches_) {
    if (!consistent) break;
    const serve::RequestRecord& head = requests[batch.empty() ? 0 : batch[0]];
    consistent = !batch.empty() &&
                 static_cast<std::int64_t>(batch.size()) <= kMaxBatch;
    for (std::size_t i : batch) {
      const serve::RequestRecord& r = requests[i];
      consistent = consistent && r.tenant == head.tenant &&
                   r.start == head.start && r.completion == head.completion &&
                   r.batch_size == static_cast<std::int64_t>(batch.size());
    }
    busy += head.service();
    ++tenant_batches[static_cast<std::size_t>(head.tenant)];
  }
  consistent = consistent && busy == result_.busy_cycles;
  for (const serve::RequestRecord& r : requests) {
    tenant_energy[static_cast<std::size_t>(r.tenant)] += r.energy_pj;
  }

  for (std::size_t t = 0; t < kNumTenants; ++t) {
    const std::string key = std::string("serve_poisson/") + kTenants[t];
    checks.operation(key);
    checks.expect(consistent, "batch records consistent with run totals");
    if (result_.per_tenant.size() != kNumTenants) continue;
    const serve::SloSummary& slo = result_.per_tenant[t];
    checks.expect(slo.count == kRequests, "every request served");
    checks.expect(slo.p50_cycles <= slo.p99_cycles &&
                      slo.p99_cycles <= slo.p999_cycles &&
                      slo.p999_cycles <= slo.max_cycles,
                  "p50 <= p99 <= p99.9 <= max");
    if (!reference_seed_) continue;
    checks.reference(key + "/p50_cycles", static_cast<double>(slo.p50_cycles));
    checks.reference(key + "/p99_cycles", static_cast<double>(slo.p99_cycles));
    checks.reference(key + "/p999_cycles",
                     static_cast<double>(slo.p999_cycles));
    checks.reference(key + "/batches", static_cast<double>(tenant_batches[t]));
    checks.reference(key + "/energy_pj", tenant_energy[t]);
  }
}

}  // namespace

std::unique_ptr<Workload> make_serve_poisson(std::uint64_t seed) {
  return std::make_unique<ServePoisson>(seed);
}

}  // namespace perfbench
