// Serving-simulator test suite.
//
//   - Unit tests of the pieces: arrival kind parsing, the admission
//     queue's continuous-batching policy, the exact-quantile convention.
//   - Determinism: a fixed seed + fixed config produces byte-identical
//     serving metrics artifacts (Registry::to_json({"serve."})) and
//     identical per-request records at 1, 2 and 8 pool threads.
//   - Batch-vs-serial differential: with batch size 1 and zero
//     queueing, every request's mix, cycles and energy are bitwise
//     identical to running the offline pipeline on that request alone —
//     across thread counts and under forced-scalar SIMD dispatch.  Each
//     request's rows are recomputed from its own seed stream, and a
//     3-request batch is run against the offline model on the rows
//     concatenated by hand.
//   - Golden artifact: a fixed-seed two-tenant run byte-compared
//     against tests/serve/golden/serve_metrics.json (regenerate with
//     DRIFT_OBS_UPDATE_GOLDEN=1), plus structural validation of the
//     per-request Chrome-trace tracks.
//   - Soak: a long fixed-seed run (default 2000 requests; the CI TSan
//     job sets DRIFT_SERVE_SOAK_REQUESTS=20000) asserting identical
//     artifacts at 1/2/8 threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "accel/drift_accel.hpp"
#include "nn/precision_mix.hpp"
#include "nn/simd/kernel_dispatch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/simulator.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace drift {
namespace {

// ---------------------------------------------------------------------
// Unit: arrival kinds, exact quantile, admission queue.

TEST(ServeArrival, KindNamesRoundTrip) {
  for (const auto kind :
       {serve::ArrivalKind::kPoisson, serve::ArrivalKind::kBursty,
        serve::ArrivalKind::kDiurnal}) {
    EXPECT_EQ(serve::parse_arrival_kind(serve::to_string(kind)), kind);
  }
  EXPECT_EQ(serve::parse_arrival_kind("nonsense"), std::nullopt);
  EXPECT_EQ(serve::parse_arrival_kind("Bursty"), std::nullopt);
}

TEST(ServeArrival, InfiniteMeanGapIsRejected) {
  // An infinite mean gap would put every arrival at cycle +inf, which
  // rounds to INT64_MIN; it fails the check like a zero gap does.
  for (const auto kind :
       {serve::ArrivalKind::kPoisson, serve::ArrivalKind::kBursty,
        serve::ArrivalKind::kDiurnal}) {
    serve::ArrivalConfig config;
    config.kind = kind;
    config.mean_interarrival_cycles = std::numeric_limits<double>::infinity();
    Rng rng(3);
    EXPECT_THROW(serve::interarrival_gaps(config, rng, 4), check_error)
        << serve::to_string(kind);
    EXPECT_THROW(serve::arrival_cycles(config, rng, 4), check_error)
        << serve::to_string(kind);
  }
}

TEST(ServeArrival, TimeBeyondTheBoundThrowsNamingTheRequest) {
  // llround of a sum beyond int64 is unspecified: a 1e300-cycle gap
  // once came out as a garbled trace that served without an error.
  Rng rng(3);
  serve::ArrivalConfig config;
  config.mean_interarrival_cycles = 1e300;
  try {
    serve::arrival_cycles(config, rng, 8);
    ADD_FAILURE() << "no check_error";
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("request 0 "), std::string::npos)
        << e.what();
  }
  // Gaps of about 2^60 cycles pass the 2^62 bound after a few requests.
  config.mean_interarrival_cycles = std::ldexp(1.0, 60);
  EXPECT_THROW(serve::arrival_cycles(config, rng, 64), check_error);
  // A diurnal proposal at +inf made the thinning loop spin forever.
  config.kind = serve::ArrivalKind::kDiurnal;
  config.mean_interarrival_cycles = 1e308;
  EXPECT_THROW(serve::arrival_cycles(config, rng, 8), check_error);
}

TEST(ServeTenant, UnknownWorkloadThrowsListingKnownNames) {
  EXPECT_EQ(serve::serving_workload("tiny-cnn").model, "tiny-cnn");
  EXPECT_EQ(serve::serving_workload("ResNet18").model, "ResNet18");
  // Not one of paper_workloads(): the lookup is the whole registry.
  EXPECT_EQ(serve::serving_workload("BLOOM-7B1").model, "BLOOM-7B1");
  try {
    serve::serving_workload("nosuch");
    FAIL() << "unknown workload name accepted";
  } catch (const check_error& e) {
    const std::string what = e.what();
    for (const char* name : {"nosuch", "tiny-bert", "tiny-cnn", "ResNet18",
                             "OPT-6.7B"}) {
      EXPECT_NE(what.find(name), std::string::npos) << what;
    }
  }
}

TEST(ServeQuantile, ExactRankConvention) {
  // rank = ceil(p * N), 1-based — the obs histogram convention.
  const std::vector<std::int64_t> v{40, 10, 30, 20};
  EXPECT_EQ(serve::exact_quantile(v, 0.25), 10);
  EXPECT_EQ(serve::exact_quantile(v, 0.50), 20);
  EXPECT_EQ(serve::exact_quantile(v, 0.75), 30);
  EXPECT_EQ(serve::exact_quantile(v, 0.99), 40);
  EXPECT_EQ(serve::exact_quantile(v, 0.999), 40);
  EXPECT_EQ(serve::exact_quantile({7}, 0.5), 7);
  EXPECT_EQ(serve::exact_quantile({}, 0.5), 0);
}

TEST(ServeBatcher, BatchTakesOnlyHeadTenantsEligibleRequests) {
  serve::AdmissionQueue queue;
  queue.push({0, 0, 0, 0});
  queue.push({1, 1, 0, 1});
  queue.push({2, 0, 1, 2});
  queue.push({3, 0, 2, 9});

  // Head is tenant 0; request id=3 has not arrived by now=5, and the
  // tenant-1 request never joins a tenant-0 batch.
  const auto batch = queue.pop_batch(5, 8);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].id, 0);
  EXPECT_EQ(batch[1].id, 2);

  // FIFO of the remainder is preserved: tenant 1 first, then id=3.
  const auto second = queue.pop_batch(10, 8);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].id, 1);
  EXPECT_EQ(second[0].tenant, 1);
  const auto third = queue.pop_batch(10, 8);
  ASSERT_EQ(third.size(), 1u);
  EXPECT_EQ(third[0].id, 3);
  EXPECT_TRUE(queue.empty());
}

TEST(ServeBatcher, BatchRespectsMaxBatch) {
  serve::AdmissionQueue queue;
  for (std::int64_t i = 0; i < 5; ++i) queue.push({i, 0, i, 0});
  const auto batch = queue.pop_batch(0, 2);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].id, 0);
  EXPECT_EQ(batch[1].id, 1);
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.head().id, 2);
}

/// Reference admission policy: every call moves the whole deque through
/// a second one, taking the head tenant's arrived requests up to the
/// cap.  The in-place AdmissionQueue::pop_batch must match it exactly.
std::vector<serve::QueuedRequest> requeue_pop_batch(
    std::deque<serve::QueuedRequest>& queue, std::int64_t now,
    std::int64_t max_batch) {
  const int tenant = queue.front().tenant;
  std::vector<serve::QueuedRequest> batch;
  std::deque<serve::QueuedRequest> rest;
  while (!queue.empty()) {
    serve::QueuedRequest r = queue.front();
    queue.pop_front();
    const bool eligible = r.tenant == tenant && r.arrival <= now &&
                          static_cast<std::int64_t>(batch.size()) < max_batch;
    if (eligible) {
      batch.push_back(r);
    } else {
      rest.push_back(r);
    }
    if (r.arrival > now ||
        static_cast<std::int64_t>(batch.size()) == max_batch) {
      break;
    }
  }
  while (!queue.empty()) {
    rest.push_back(queue.front());
    queue.pop_front();
  }
  queue = std::move(rest);
  return batch;
}

std::string describe(const std::vector<serve::QueuedRequest>& batch) {
  std::ostringstream out;
  for (const serve::QueuedRequest& r : batch) {
    out << "(" << r.id << " t" << r.tenant << " @" << r.arrival << ")";
  }
  return out.str();
}

TEST(ServeBatcher, InPlacePopMatchesRequeueReference) {
  Rng rng(0xBA7C4);
  for (int trial = 0; trial < 200; ++trial) {
    const int tenants = static_cast<int>(rng.uniform_int(1, 4));
    const std::int64_t max_batch = rng.uniform_int(1, 8);
    const std::int64_t n = trial % 64 == 0  ? 10000
                           : trial % 8 == 0 ? rng.uniform_int(1, 2000)
                                            : rng.uniform_int(1, 100);
    // Arrival-ordered trace with frequent ties.
    std::vector<serve::QueuedRequest> trace;
    std::vector<std::int64_t> locals(static_cast<std::size_t>(tenants), 0);
    std::int64_t t = 0;
    for (std::int64_t id = 0; id < n; ++id) {
      if (rng.bernoulli(0.6)) t += rng.uniform_int(1, 6);
      const int tenant = static_cast<int>(rng.uniform_int(0, tenants - 1));
      trace.push_back(
          {id, tenant, locals[static_cast<std::size_t>(tenant)]++, t});
    }
    // Backlog trials admit the whole trace before the first pop.
    const bool backlog = rng.bernoulli(0.25);
    serve::AdmissionQueue queue;
    std::deque<serve::QueuedRequest> reference;
    std::size_t next = 0;
    std::int64_t now = 0;
    const auto admit = [&](std::int64_t until) {
      while (next < trace.size() &&
             (backlog || trace[next].arrival <= until)) {
        queue.push(trace[next]);
        reference.push_back(trace[next]);
        ++next;
      }
    };
    const auto pop_both = [&](std::int64_t at, std::int64_t cap) {
      const auto got = queue.pop_batch(at, cap);
      const auto want = requeue_pop_batch(reference, at, cap);
      ASSERT_EQ(describe(got), describe(want))
          << "trial " << trial << " now=" << at << " cap=" << cap;
      ASSERT_EQ(queue.size(), reference.size());
      if (!reference.empty()) {
        ASSERT_EQ(queue.head().id, reference.front().id);
      }
    };
    // The clock either jumps to the head's arrival (as the simulator's
    // event loop does) or creeps, sometimes stopping short of the head.
    for (int step = 0; step < 400 && (next < trace.size() || !queue.empty());
         ++step) {
      now += rng.uniform_int(0, 8);
      admit(now);
      if (queue.empty()) continue;
      if (rng.bernoulli(0.5)) now = std::max(now, queue.head().arrival);
      admit(now);
      pop_both(now, max_batch);
      if (HasFatalFailure()) return;
    }
    // Drain everything left at the widest cap, which keeps the
    // reference's O(queue) pops affordable on the 10k backlogs.
    admit(std::numeric_limits<std::int64_t>::max());
    while (!queue.empty()) {
      pop_both(std::numeric_limits<std::int64_t>::max(), 8);
      if (HasFatalFailure()) return;
    }
    ASSERT_TRUE(reference.empty());
  }
}

// ---------------------------------------------------------------------
// Shared fixtures.

/// The fixed-seed two-tenant scenario used by the determinism and
/// golden tests: a bursty BERT-ish tenant and a diurnal CNN tenant
/// sharing one accelerator, enough load that batches actually form.
serve::ServeConfig two_tenant_config() {
  serve::ServeConfig config;
  config.exec.hw.array = core::ArrayDims{12, 12};
  config.max_batch = 4;

  serve::TenantSpec alpha;
  alpha.name = "alpha";
  alpha.workload = serve::serving_workload("tiny-bert");
  alpha.seed = 101;
  alpha.num_requests = 24;
  alpha.arrival.kind = serve::ArrivalKind::kBursty;
  alpha.arrival.mean_interarrival_cycles = 6000.0;
  config.tenants.push_back(alpha);

  serve::TenantSpec beta;
  beta.name = "beta";
  beta.workload = serve::serving_workload("tiny-cnn");
  beta.seed = 202;
  beta.num_requests = 16;
  beta.arrival.kind = serve::ArrivalKind::kDiurnal;
  beta.arrival.mean_interarrival_cycles = 9000.0;
  beta.arrival.diurnal_period_cycles = 65536.0;
  config.tenants.push_back(beta);
  return config;
}

struct RunOutput {
  std::string artifact;  ///< Registry::to_json({"serve."}); "" if OBS off
  serve::ServeResult result;
};

/// Runs one simulation from a clean registry/tracer on a pool of
/// `threads` workers.
RunOutput run_serving(const serve::ServeConfig& config, int threads,
                      bool trace = false) {
  util::ThreadPool& pool = util::ThreadPool::instance();
  pool.resize(threads);
  obs::Registry::global().reset();
  obs::Tracer::global().reset();
  obs::Tracer::global().set_enabled(trace);
  serve::Simulator sim(config, pool);
  RunOutput out;
  out.result = sim.run();
  obs::Tracer::global().set_enabled(false);
  out.artifact = obs::Registry::global().to_json({"serve."});
  pool.resize(0);  // back to the DRIFT_NUM_THREADS / hardware default
  return out;
}

void expect_same_records(const serve::ServeResult& a,
                         const serve::ServeResult& b) {
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    const serve::RequestRecord& x = a.requests[i];
    const serve::RequestRecord& y = b.requests[i];
    EXPECT_EQ(x.id, y.id) << "request " << i;
    EXPECT_EQ(x.tenant, y.tenant) << "request " << i;
    EXPECT_EQ(x.local, y.local) << "request " << i;
    EXPECT_EQ(x.arrival, y.arrival) << "request " << i;
    EXPECT_EQ(x.start, y.start) << "request " << i;
    EXPECT_EQ(x.completion, y.completion) << "request " << i;
    EXPECT_EQ(x.batch_id, y.batch_id) << "request " << i;
    EXPECT_EQ(x.batch_size, y.batch_size) << "request " << i;
    EXPECT_DOUBLE_EQ(x.energy_pj, y.energy_pj) << "request " << i;
  }
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.busy_cycles, b.busy_cycles);
  EXPECT_EQ(a.makespan_cycles, b.makespan_cycles);
  EXPECT_DOUBLE_EQ(a.total_energy_pj, b.total_energy_pj);
}

// ---------------------------------------------------------------------
// Determinism: fixed seed + fixed config => byte-identical artifacts at
// any thread count.

TEST(ServeDeterminism, ArtifactByteIdenticalAcrossThreadCounts) {
  const serve::ServeConfig config = two_tenant_config();
  const RunOutput base = run_serving(config, 1);
  ASSERT_FALSE(base.result.requests.empty());
  for (const int threads : {2, 8}) {
    const RunOutput other = run_serving(config, threads);
    expect_same_records(base.result, other.result);
    EXPECT_EQ(base.artifact, other.artifact)
        << "serving metrics artifact differs between 1 and " << threads
        << " pool threads";
  }
}

TEST(ServeDeterminism, RepeatRunIsBitStable) {
  const serve::ServeConfig config = two_tenant_config();
  const RunOutput a = run_serving(config, 2);
  const RunOutput b = run_serving(config, 2);
  expect_same_records(a.result, b.result);
  EXPECT_EQ(a.artifact, b.artifact);
}

// ---------------------------------------------------------------------
// Sanity of the event-loop accounting under real load.

TEST(ServeSimulator, AccountingIsConsistent) {
  serve::ServeConfig config = two_tenant_config();
  // Push the load up so continuous batching actually coalesces.
  config.tenants[0].arrival.mean_interarrival_cycles = 500.0;
  config.tenants[1].arrival.mean_interarrival_cycles = 700.0;
  const RunOutput out = run_serving(config, 2);
  const serve::ServeResult& r = out.result;

  ASSERT_EQ(r.requests.size(), 40u);
  EXPECT_LT(r.batches, static_cast<std::int64_t>(r.requests.size()))
      << "under heavy load some batches must hold more than one request";
  EXPECT_LE(r.busy_cycles, r.makespan_cycles);
  EXPECT_GT(r.utilization(), 0.0);
  EXPECT_LE(r.utilization(), 1.0);

  double energy = 0.0;
  std::int64_t max_batch_seen = 0;
  for (const serve::RequestRecord& rec : r.requests) {
    EXPECT_GE(rec.wait(), 0);
    EXPECT_GT(rec.service(), 0);
    EXPECT_EQ(rec.latency(), rec.wait() + rec.service());
    EXPECT_GE(rec.batch_id, 0);
    EXPECT_LT(rec.batch_id, r.batches);
    EXPECT_GE(rec.batch_size, 1);
    EXPECT_LE(rec.batch_size, config.max_batch);
    max_batch_seen = std::max(max_batch_seen, rec.batch_size);
    energy += rec.energy_pj;
  }
  EXPECT_GT(max_batch_seen, 1);
  EXPECT_NEAR(energy, r.total_energy_pj, 1e-6 * r.total_energy_pj);

  // The overall SLO summary matches the exact quantiles of the records.
  std::vector<std::int64_t> latencies;
  for (const serve::RequestRecord& rec : r.requests) {
    latencies.push_back(rec.latency());
  }
  EXPECT_EQ(r.overall.count, 40);
  EXPECT_EQ(r.overall.p50_cycles, serve::exact_quantile(latencies, 0.50));
  EXPECT_EQ(r.overall.p99_cycles, serve::exact_quantile(latencies, 0.99));
  EXPECT_EQ(r.overall.p999_cycles, serve::exact_quantile(latencies, 0.999));
  ASSERT_EQ(r.per_tenant.size(), 2u);
  EXPECT_EQ(r.per_tenant[0].count + r.per_tenant[1].count, r.overall.count);
}

// ---------------------------------------------------------------------
// Batch-vs-serial differential: batch=1 + zero queueing pins serving
// bitwise to the offline pipeline.

/// One tenant, arrivals spaced far beyond any service time => every
/// batch holds exactly one request and nobody waits.
serve::ServeConfig sparse_config() {
  serve::ServeConfig config;
  config.exec.hw.array = core::ArrayDims{12, 12};
  config.max_batch = 8;  // batching allowed; sparsity keeps batches at 1
  serve::TenantSpec tenant;
  tenant.name = "solo";
  tenant.workload = serve::serving_workload("tiny-bert");
  tenant.seed = 7;
  tenant.num_requests = 12;
  tenant.arrival.mean_interarrival_cycles = 1.0e7;
  config.tenants.push_back(tenant);
  return config;
}

void check_differential(int threads) {
  const serve::ServeConfig config = sparse_config();
  util::ThreadPool& pool = util::ThreadPool::instance();
  pool.resize(threads);
  obs::Registry::global().reset();
  serve::Simulator sim(config, pool);

  // The tenant's canonical mix is bitwise the offline build_mixes
  // result (same seed, same per-layer streams).
  const nn::WorkloadSpec& spec = sim.executor().tenant_spec(0);
  const auto offline_mixes = nn::build_mixes(
      spec, config.exec.mix_config(config.exec.algo, config.tenants[0].seed));
  const auto& canonical = sim.executor().request_mixes(0, 0);
  ASSERT_EQ(offline_mixes.size(), spec.layers.size());
  // (request 0 has its own pattern; compare structure via a fresh
  // canonical-only executor instead)
  {
    serve::ServeConfig shared = config;
    shared.tenants[0].unique_mix_per_request = false;
    serve::Simulator shared_sim(shared, pool);
    const auto& shared_canonical = shared_sim.executor().request_mixes(0, 0);
    ASSERT_EQ(shared_canonical.size(), offline_mixes.size());
    for (std::size_t li = 0; li < offline_mixes.size(); ++li) {
      EXPECT_EQ(shared_canonical[li].row_is_low, offline_mixes[li].row_is_low)
          << "layer " << li;
      EXPECT_EQ(shared_canonical[li].work.m_low, offline_mixes[li].work.m_low)
          << "layer " << li;
      EXPECT_EQ(shared_canonical[li].work.n_low, offline_mixes[li].work.n_low)
          << "layer " << li;
    }
  }
  ASSERT_EQ(canonical.size(), spec.layers.size());

  const serve::ServeResult result = sim.run();
  accel::DriftAccelModel offline(config.exec.hw,
                                 config.exec.drift_policy);
  for (const serve::RequestRecord& rec : result.requests) {
    EXPECT_EQ(rec.batch_size, 1) << "request " << rec.id;
    EXPECT_EQ(rec.wait(), 0) << "request " << rec.id;

    const accel::RunResult serial =
        offline.run(spec, sim.executor().request_mixes(0, rec.local));
    EXPECT_EQ(rec.service(), serial.cycles) << "request " << rec.id;
    EXPECT_DOUBLE_EQ(rec.energy_pj, serial.energy.total_pj())
        << "request " << rec.id;

    // The full batch run agrees layer by layer, not just in total.
    const serve::BatchResult batched =
        sim.executor().execute(0, {rec.local});
    ASSERT_EQ(batched.run.layers.size(), serial.layers.size());
    for (std::size_t li = 0; li < serial.layers.size(); ++li) {
      EXPECT_EQ(batched.run.layers[li].cycles, serial.layers[li].cycles)
          << "request " << rec.id << " layer " << li;
      EXPECT_EQ(batched.run.layers[li].stall_cycles,
                serial.layers[li].stall_cycles)
          << "request " << rec.id << " layer " << li;
      EXPECT_EQ(batched.run.layers[li].dram_bytes,
                serial.layers[li].dram_bytes)
          << "request " << rec.id << " layer " << li;
    }
  }
  pool.resize(0);
}

TEST(ServeDifferential, BatchOneMatchesOfflineAtOneThread) {
  check_differential(1);
}
TEST(ServeDifferential, BatchOneMatchesOfflineAtTwoThreads) {
  check_differential(2);
}
TEST(ServeDifferential, BatchOneMatchesOfflineAtEightThreads) {
  check_differential(8);
}

TEST(ServeDifferential, BatchOneMatchesOfflineUnderForcedScalar) {
  nn::simd::set_force_scalar(true);
  check_differential(2);
  nn::simd::set_force_scalar(false);
}

// Each request's rows come from its own seed stream: request r, layer
// li samples Rng(seed).fork(kRequestStreamBase + r).fork(li) against the
// tenant's canonical weight channels.  Recomputed here from the seed
// alone for a tenant whose conv rows decide in blocks of 16 (tiny-cnn)
// and one with attention layers (tiny-bert), with different row counts
// per request, at 1 and 8 pool threads (the arena's parallel writes).
TEST(ServeDifferential, RequestPatternsMatchTheirSeedStreams) {
  serve::ServeConfig config;
  config.exec.hw.array = core::ArrayDims{12, 12};
  for (const char* name : {"tiny-cnn", "tiny-bert"}) {
    serve::TenantSpec tenant;
    tenant.name = name;
    tenant.workload = serve::serving_workload(name);
    tenant.seed = 31 + config.tenants.size();
    tenant.num_requests = 40;
    config.tenants.push_back(tenant);
  }
  const auto request_rows = [](const serve::TenantSpec& tenant,
                               const nn::WorkloadSpec& spec,
                               const nn::MixConfig& mix, std::int64_t r,
                               std::size_t li) {
    Rng rng = Rng(tenant.seed)
                  .fork(serve::kRequestStreamBase +
                        static_cast<std::uint64_t>(r))
                  .fork(li);
    return nn::build_act_pattern(spec.layers[li], rng, spec.act_profile,
                                 mix);
  };

  util::ThreadPool& pool = util::ThreadPool::instance();
  for (const int threads : {1, 8}) {
    pool.resize(threads);
    serve::BatchExecutor executor(config.exec, config.tenants, pool);
    for (std::size_t t = 0; t < config.tenants.size(); ++t) {
      const serve::TenantSpec& tenant = config.tenants[t];
      const nn::WorkloadSpec spec =
          serve::prefix_layers(tenant.workload, tenant.name);
      const nn::MixConfig mix =
          config.exec.mix_config(config.exec.algo, tenant.seed);
      const auto canonical = nn::build_mixes(spec, mix);
      const int tid = static_cast<int>(t);

      for (std::int64_t r = 0; r < tenant.num_requests; ++r) {
        const auto mixes = executor.request_mixes(tid, r);
        ASSERT_EQ(mixes.size(), spec.layers.size());
        for (std::size_t li = 0; li < spec.layers.size(); ++li) {
          const auto rows = request_rows(tenant, spec, mix, r, li);
          EXPECT_EQ(mixes[li].row_is_low, rows)
              << tenant.name << " request " << r << " layer " << li
              << " at " << threads << " threads";
          EXPECT_EQ(mixes[li].work.n_low, canonical[li].work.n_low)
              << tenant.name << " request " << r << " layer " << li;
        }
      }

      // One 3-request batch against the offline model on the rows
      // concatenated by hand in admission order.
      const std::vector<std::int64_t> locals{7, 0, 39};
      std::vector<nn::LayerMix> packed;
      for (std::size_t li = 0; li < spec.layers.size(); ++li) {
        std::vector<bool> rows;
        for (const std::int64_t local : locals) {
          const auto own = request_rows(tenant, spec, mix, local, li);
          rows.insert(rows.end(), own.begin(), own.end());
        }
        nn::LayerGemm layer = spec.layers[li];
        layer.dims.M = static_cast<std::int64_t>(rows.size());
        packed.push_back(nn::assemble_mix(layer, std::move(rows),
                                          canonical[li].work.n_low, mix));
      }
      accel::DriftAccelModel offline(config.exec.hw,
                                     config.exec.drift_policy);
      const accel::RunResult expected = offline.run(spec, packed);
      const serve::BatchResult batched = executor.execute(tid, locals);
      EXPECT_EQ(batched.cycles, expected.cycles) << tenant.name;
      EXPECT_DOUBLE_EQ(batched.energy_pj, expected.energy.total_pj())
          << tenant.name;
      ASSERT_EQ(batched.run.layers.size(), expected.layers.size());
      for (std::size_t li = 0; li < expected.layers.size(); ++li) {
        EXPECT_EQ(batched.run.layers[li].cycles, expected.layers[li].cycles)
            << tenant.name << " layer " << li;
        EXPECT_EQ(batched.run.layers[li].stall_cycles,
                  expected.layers[li].stall_cycles)
            << tenant.name << " layer " << li;
        EXPECT_EQ(batched.run.layers[li].dram_bytes,
                  expected.layers[li].dram_bytes)
            << tenant.name << " layer " << li;
      }
    }
  }
  pool.resize(0);
}

TEST(ServeExecutor, NegativeRequestCountIsRejected) {
  serve::ServeConfig config = two_tenant_config();
  config.tenants[1].num_requests = -5;
  for (const bool unique : {true, false}) {
    config.tenants[1].unique_mix_per_request = unique;
    EXPECT_THROW(serve::BatchExecutor(config.exec, config.tenants,
                                      util::ThreadPool::instance()),
                 check_error)
        << "unique mix per request: " << unique;
  }
}

// ---------------------------------------------------------------------
// Golden artifact + per-request Chrome-trace tracks.

std::string golden_path() {
  return std::string(DRIFT_SERVE_GOLDEN_DIR) + "/serve_metrics.json";
}

std::string read_file_or_empty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(ServeGolden, MetricsJsonMatchesGolden) {
  const RunOutput out = run_serving(two_tenant_config(), 2, /*trace=*/true);
  if (std::getenv("DRIFT_OBS_UPDATE_GOLDEN") != nullptr) {
    ASSERT_TRUE(obs::write_file(golden_path(), out.artifact));
    GTEST_SKIP() << "golden regenerated at " << golden_path();
  }
  const std::string golden = read_file_or_empty(golden_path());
  ASSERT_FALSE(golden.empty())
      << "missing golden " << golden_path()
      << " — regenerate with DRIFT_OBS_UPDATE_GOLDEN=1";
  EXPECT_EQ(out.artifact, golden)
      << "serving metrics artifact drifted from the golden; if the "
         "change is intentional, regenerate with DRIFT_OBS_UPDATE_GOLDEN=1";
}

/// Pulls the integer value of `"key": <n>` out of one serialized trace
/// event line; `fallback` when the key is absent.
std::int64_t event_field(const std::string& line, const std::string& key,
                         std::int64_t fallback) {
  const std::string marker = "\"" + key + "\": ";
  const std::size_t pos = line.find(marker);
  if (pos == std::string::npos) return fallback;
  return std::strtoll(line.c_str() + pos + marker.size(), nullptr, 10);
}

TEST(ServeGolden, ChromeTraceCarriesPerRequestTracks) {
  const serve::ServeConfig config = two_tenant_config();
  run_serving(config, 2, /*trace=*/true);
  const std::string json = obs::Tracer::global().to_chrome_json();
  ASSERT_EQ(json.rfind("{\"traceEvents\": [", 0), 0u);

  int request_tracks = 0, wait_events = 0, exec_events = 0;
  bool saw_alpha = false, saw_beta = false;
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("{\"name\": ", 0) != 0) continue;
    const std::size_t ph_pos = line.find("\"ph\": \"");
    ASSERT_NE(ph_pos, std::string::npos) << line;
    const char ph = line[ph_pos + 7];
    if (ph == 'M' && line.find("\"req/") != std::string::npos) {
      ++request_tracks;
      saw_alpha = saw_alpha || line.find("req/alpha/") != std::string::npos;
      saw_beta = saw_beta || line.find("req/beta/") != std::string::npos;
    }
    if (ph == 'X') {
      EXPECT_GE(event_field(line, "dur", -1), 0) << line;
      EXPECT_EQ(event_field(line, "pid", -1), 1) << line;
      if (line.rfind("{\"name\": \"wait\"", 0) == 0) ++wait_events;
      if (line.rfind("{\"name\": \"exec\"", 0) == 0) ++exec_events;
    }
  }
  // One track per in-flight request (40 requests, cap 128), every
  // request an exec span, waits only where queueing happened.
  EXPECT_EQ(request_tracks, 40);
  EXPECT_TRUE(saw_alpha);
  EXPECT_TRUE(saw_beta);
  EXPECT_EQ(exec_events, 40);
  EXPECT_GE(wait_events, 1);
  EXPECT_LE(wait_events, 40);
}

TEST(ServeGolden, TraceCapDropsAreCounted) {
  serve::ServeConfig config = two_tenant_config();
  config.tenants[0].num_requests = 96;
  config.tenants[1].num_requests = 64;
  run_serving(config, 2, /*trace=*/true);
  EXPECT_EQ(
      obs::Registry::global().counter("serve.trace_dropped")->value(),
      96 + 64 - serve::kTraceRequestCap);
}

// ---------------------------------------------------------------------
// Soak: long fixed-seed run, artifacts identical at 1/2/8 threads.
// The CI thread-sanitizer job raises the request count to 20000 via
// DRIFT_SERVE_SOAK_REQUESTS.

TEST(ServeSoak, IdenticalArtifactsAcrossThreads) {
  std::int64_t requests = 2000;
  if (const char* v = std::getenv("DRIFT_SERVE_SOAK_REQUESTS")) {
    const long long n = std::strtoll(v, nullptr, 10);
    if (n > 0) requests = n;
  }
  serve::ServeConfig config;
  config.exec.hw.array = core::ArrayDims{8, 8};
  config.max_batch = 8;
  serve::TenantSpec tenant;
  tenant.name = "soak";
  tenant.workload = serve::serving_workload("tiny-cnn");
  tenant.seed = 31337;
  tenant.num_requests = requests;
  tenant.arrival.kind = serve::ArrivalKind::kBursty;
  tenant.arrival.mean_interarrival_cycles = 1500.0;
  config.tenants.push_back(tenant);

  const RunOutput base = run_serving(config, 1);
  ASSERT_EQ(base.result.requests.size(),
            static_cast<std::size_t>(requests));
  for (const int threads : {2, 8}) {
    const RunOutput other = run_serving(config, threads);
    expect_same_records(base.result, other.result);
    ASSERT_EQ(base.artifact, other.artifact)
        << "soak artifact differs between 1 and " << threads
        << " pool threads";
  }
}

}  // namespace
}  // namespace drift
