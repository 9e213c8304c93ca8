// Differential suite: the serving simulator vs. the queueing oracles.
//
//   1. *Lindley replay, exact.*  With batch size 1 the event loop is a
//      single-server FIFO queue, so every request's wait must equal the
//      src/ref Lindley recurrence replayed over the merged arrival
//      trace — and every request's service must equal a fresh offline
//      accelerator run of that request's own mix (the randomized
//      batch-vs-serial differential).  Integer cycles, no tolerance.
//   2. *M/D/1 long-run mean.*  With canonical (shared) mixes the
//      service time is deterministic; under Poisson arrivals the
//      pooled mean wait over the whole case schedule must match the
//      closed form within a seeded tolerance.
//   3. *Arrival processes.*  Seeded generators replay exactly, Poisson
//      interarrival moments match the exponential closed forms, bursty
//      traffic is overdispersed (CV^2 > 1), diurnal arrivals stay
//      monotone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "accel/compare.hpp"
#include "proptest/proptest_gtest.hpp"
#include "ref/ref_queue.hpp"
#include "serve/simulator.hpp"

namespace drift {
namespace {

/// One-layer micro workload: keeps a per-batch accelerator run cheap so
/// a case can serve dozens of requests.
nn::WorkloadSpec micro_workload(Rng& rng, int size) {
  nn::WorkloadSpec spec;
  spec.model = "micro";
  spec.family = nn::ModelFamily::kBert;
  spec.act_profile = nn::bert_profile();
  spec.weight_profile = nn::weight_profile();
  const std::int64_t m = proptest::gen_dim(rng, size, 2);
  const std::int64_t k = proptest::gen_dim(rng, size, 2);
  const std::int64_t n = proptest::gen_dim(rng, size, 2);
  spec.layers = {{"fc", nn::LayerKind::kFc, {m, k, n}, 1, 1}};
  return spec;
}

serve::ExecConfig micro_exec(Rng& rng) {
  serve::ExecConfig exec;
  exec.hw.array = core::ArrayDims{8, 8};
  const double pick = rng.uniform();
  exec.algo = pick < 0.5 ? nn::MixAlgorithm::kDrift
              : pick < 0.75 ? nn::MixAlgorithm::kStaticInt8
                            : nn::MixAlgorithm::kDrq;
  return exec;
}

TEST(PropServe, BatchOneWaitsMatchLindleyAndServicesMatchOffline) {
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    serve::ServeConfig config;
    config.exec = micro_exec(rng);
    config.max_batch = 1;
    const int num_tenants = rng.bernoulli(0.4) ? 2 : 1;
    for (int t = 0; t < num_tenants; ++t) {
      serve::TenantSpec tenant;
      tenant.name = t == 0 ? "a" : "b";
      tenant.workload = micro_workload(rng, size);
      tenant.seed = rng.uniform_int(1, 1 << 20);
      tenant.num_requests = 2 + rng.uniform_int(0, 2 * size);
      tenant.unique_mix_per_request = rng.bernoulli(0.7);
      tenant.arrival.kind = serve::ArrivalKind::kPoisson;
      tenant.arrival.mean_interarrival_cycles =
          std::exp(rng.uniform(std::log(16.0), std::log(4096.0)));
      config.tenants.push_back(tenant);
    }

    serve::Simulator sim(config);
    const serve::ServeResult result = sim.run();

    // Offline service of every request, through a fresh model instance
    // so the serving executor's state cannot leak into the reference.
    const auto model = accel::make_accelerator(
        config.exec.algo, config.exec.hw, config.exec.drift_policy);
    std::vector<std::int64_t> arrivals, services;
    for (const serve::RequestRecord& rec : result.requests) {
      const accel::RunResult offline =
          model->run(sim.executor().tenant_spec(rec.tenant),
                     sim.executor().request_mixes(rec.tenant, rec.local));
      if (offline.cycles != rec.service()) {
        return proptest::fail("request id=", rec.id, " tenant=", rec.tenant,
                              " local=", rec.local, " served in ",
                              rec.service(), " cycles; offline run of the "
                              "same mix takes ", offline.cycles);
      }
      arrivals.push_back(rec.arrival);
      services.push_back(rec.service());
    }

    // Lindley replay over the merged trace (records are in admission
    // order, which is sorted by arrival with deterministic tie-breaks).
    const auto waits = ref::lindley_waits(arrivals, services);
    const auto completions = ref::lindley_completions(arrivals, services);
    for (std::size_t i = 0; i < waits.size(); ++i) {
      const serve::RequestRecord& rec = result.requests[i];
      if (rec.wait() != waits[i] || rec.completion != completions[i]) {
        return proptest::fail("request id=", rec.id, ": simulator wait=",
                              rec.wait(), " completion=", rec.completion,
                              "; Lindley oracle wait=", waits[i],
                              " completion=", completions[i]);
      }
    }
    return proptest::pass();
  });
}

TEST(PropServe, LongRunMeanWaitMatchesMD1) {
  // Deterministic service (shared canonical mix) + Poisson arrivals is
  // an M/D/1 queue.  A single case's mean wait is noisy, so the
  // schedule's cases pool into one weighted ratio against the closed
  // form; the bound holds for any base seed with wide margin (checked
  // in CI at a second fixed seed).
  const proptest::Config cfg = proptest::config_from_env();
  double observed_sum = 0.0;   // sum of per-request waits
  double expected_sum = 0.0;   // sum of per-request Wq predictions
  for (int i = 0; i < cfg.iters; ++i) {
    Rng rng(proptest::case_seed(cfg.seed, i));
    serve::ServeConfig config;
    config.exec.hw.array = core::ArrayDims{8, 8};
    config.exec.algo = nn::MixAlgorithm::kDrift;
    config.max_batch = 1;
    serve::TenantSpec tenant;
    tenant.workload = micro_workload(rng, 6);
    tenant.seed = rng.uniform_int(1, 1 << 20);
    tenant.num_requests = 160;
    tenant.unique_mix_per_request = false;  // constant service: the D
    config.tenants.push_back(tenant);

    // Calibrate the arrival rate to a stable utilization.
    serve::Simulator probe(config);
    const double service =
        static_cast<double>(probe.executor().execute_canonical(0).cycles);
    ASSERT_GT(service, 0.0);
    const double load = rng.uniform(0.30, 0.65);
    config.tenants[0].arrival.mean_interarrival_cycles = service / load;

    serve::Simulator sim(config);
    const serve::ServeResult result = sim.run();
    const double wq =
        ref::md1_mean_wait(load / service, service);
    ASSERT_GE(wq, 0.0);
    for (const serve::RequestRecord& rec : result.requests) {
      observed_sum += static_cast<double>(rec.wait());
    }
    expected_sum += wq * static_cast<double>(tenant.num_requests);
  }
  ASSERT_GT(expected_sum, 0.0);
  const double ratio = observed_sum / expected_sum;
  // ~20k pooled waits at the default schedule: the estimator
  // concentrates well inside [0.75, 1.30]; the band also covers the
  // +-1-cycle arrival rounding.
  EXPECT_GT(ratio, 0.75) << "pooled mean wait " << ratio
                         << "x the M/D/1 prediction";
  EXPECT_LT(ratio, 1.30) << "pooled mean wait " << ratio
                         << "x the M/D/1 prediction";
}

TEST(PropServe, ArrivalGeneratorsReplayExactly) {
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    serve::ArrivalConfig config;
    const double kind_pick = rng.uniform();
    config.kind = kind_pick < 0.34   ? serve::ArrivalKind::kPoisson
                  : kind_pick < 0.67 ? serve::ArrivalKind::kBursty
                                     : serve::ArrivalKind::kDiurnal;
    config.mean_interarrival_cycles =
        std::exp(rng.uniform(std::log(4.0), std::log(65536.0)));
    config.diurnal_period_cycles = config.mean_interarrival_cycles * 64.0;
    const std::int64_t count = 1 + rng.uniform_int(0, 16 * size);
    const std::uint64_t seed = rng.uniform_int(0, 1 << 30);

    Rng a(seed), b(seed);
    const auto cycles_a = serve::arrival_cycles(config, a, count);
    const auto cycles_b = serve::arrival_cycles(config, b, count);
    if (cycles_a != cycles_b) {
      return proptest::fail(to_string(config.kind),
                            " trace is not replay-stable at seed ", seed);
    }
    if (!std::is_sorted(cycles_a.begin(), cycles_a.end())) {
      return proptest::fail(to_string(config.kind),
                            " arrivals are not monotone");
    }
    if (static_cast<std::int64_t>(cycles_a.size()) != count) {
      return proptest::fail("expected ", count, " arrivals, got ",
                            cycles_a.size());
    }
    return proptest::pass();
  });
}

TEST(PropServe, PoissonInterarrivalMomentsMatchClosedForm) {
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    (void)size;
    serve::ArrivalConfig config;
    const double mean = std::exp(rng.uniform(std::log(8.0), std::log(8192.0)));
    config.mean_interarrival_cycles = mean;
    const std::int64_t n = 512;
    Rng gen(rng.uniform_int(0, 1 << 30));
    const auto gaps = serve::interarrival_gaps(config, gen, n);

    double sum = 0.0;
    for (double g : gaps) sum += g;
    const double sample_mean = sum / static_cast<double>(n);
    double var = 0.0;
    for (double g : gaps) var += (g - sample_mean) * (g - sample_mean);
    var /= static_cast<double>(n - 1);

    // Exponential closed forms: E = mean, Var = mean^2.  Bounds sized
    // ~6 sigma of the estimators at n = 512 (sd(mean) = mean/sqrt(n),
    // sd(var) ~ mean^2 * sqrt(8/n)).
    if (std::abs(sample_mean - mean) > 0.30 * mean) {
      return proptest::fail("Poisson sample mean ", sample_mean,
                            " outside 30% of ", mean);
    }
    if (var < 0.30 * mean * mean || var > 2.20 * mean * mean) {
      return proptest::fail("Poisson sample variance ", var,
                            " outside [0.3, 2.2] x mean^2 = ", mean * mean);
    }
    return proptest::pass();
  });
}

TEST(PropServe, BurstyTrafficIsOverdispersed) {
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    (void)size;
    serve::ArrivalConfig config;
    config.kind = serve::ArrivalKind::kBursty;
    config.mean_interarrival_cycles =
        std::exp(rng.uniform(std::log(16.0), std::log(4096.0)));
    // Strongly bimodal service rates so CV^2 (~1.9 analytically at
    // these settings) clears the threshold at n = 1024 for any seed.
    config.burst_rate_multiplier = 8.0;
    config.burst_enter_prob = 0.2;
    config.burst_exit_prob = 0.3;
    const std::int64_t n = 1024;
    Rng gen(rng.uniform_int(0, 1 << 30));
    const auto gaps = serve::interarrival_gaps(config, gen, n);

    double sum = 0.0;
    for (double g : gaps) sum += g;
    const double mean = sum / static_cast<double>(n);
    double var = 0.0;
    for (double g : gaps) var += (g - mean) * (g - mean);
    var /= static_cast<double>(n - 1);
    const double cv2 = var / (mean * mean);
    if (cv2 < 1.15) {
      return proptest::fail("bursty CV^2 = ", cv2,
                            "; MMPP interarrivals must be overdispersed "
                            "(Poisson has CV^2 = 1)");
    }
    return proptest::pass();
  });
}

}  // namespace
}  // namespace drift
