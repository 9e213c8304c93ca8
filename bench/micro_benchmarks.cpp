// google-benchmark microbenchmarks for the performance-critical
// components: the per-sub-tensor selector (runs on every tensor at
// inference time), the online scheduler (runs per layer), the stall
// models and the cycle-level simulation — plus the single- vs
// multi-thread GEMM / quantization kernel sweep that emits
// BENCH_kernels.json (ops/s and speedup vs 1 thread) before the
// google-benchmark suite runs.  The quantization entries time
// QuantEngine::process_activation_rows in Drift mode (row statistics,
// the automatic δ at budget 0.05, then core::render), the per-operand
// call Figure 6 makes.  A second, backend sweep times the fp32 GEMM
// and that quantizer on {scalar, simd} under the dispatch force-scalar
// toggle and records per-entry `backend` and `speedup_vs_scalar` (the
// SIMD payoff on this machine's `cpu_features`).  The JSON also records the
// runtime of the fixed-seed property-test corpus (the differential
// suites behind `ctest -L prop`), so oracle-check cost is tracked
// alongside kernel throughput, and a fixed-seed serving run whose
// `serve_p99_us` entry (ops_per_s = 1e6/p99_us, simulated cycles, so
// deterministic) lets the ratchet gate serving tail latency.  A
// fixed-seed whole-model run of the resnet18 zoo topology records
// `graph_resnet18_cycles` (ops_per_s = 1e12/cycles, same determinism)
// so end-to-end model latency is ratcheted too.  `paper_compare`
// records the best-of-3 wall time of the four accelerator models on
// the seven paper workloads (Figures 7/8; ops_per_s = 1/seconds), and
// `proxy_eval` the best-of-3 wall time of Figure 6's ResNet18 and ViT-B
// proxy forward passes under all four execution modes, `serve_run`
// that of the serving event loop on a two-tenant Poisson trace, and
// `serve_precompute` that of the per-request pattern precompute on the
// same trace (same units).  The sizes are fixed, as
// bench/baseline.json records them: the thread sweep's GEMM edge is
// 1024, the backend sweep's 512, and the quantizer takes 8192 rows.
//
// The command line goes through benchmark::Initialize, which takes out
// google-benchmark's own --benchmark_* flags, and then through Args and
// ReportOptions::from_args like every other binary's, so an unknown
// flag or a stray argument exits 2 before the corpus runs.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "accel/compare.hpp"
#include "core/noise_budget.hpp"
#include "core/quantizer.hpp"
#include "core/scheduler.hpp"
#include "core/selector.hpp"
#include "dram/dram.hpp"
#include "nn/gemm.hpp"
#include "nn/proxy.hpp"
#include "nn/quant_engine.hpp"
// drift-lint: allow(intrinsic) — the bench sweep toggles the
// force-scalar override to measure the SIMD payoff per backend.
#include "nn/simd/kernel_dispatch.hpp"
#include "nn/synthetic.hpp"
#include "nn/workload.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "pipeline.hpp"
#include "proptest/proptest.hpp"
#include "serve/simulator.hpp"
#include "util/args.hpp"
#include "util/assert.hpp"
#include "ref/ref_kernels.hpp"
#include "ref/ref_oracles.hpp"
#include "ref/ref_quant.hpp"
#include "systolic/cycle_sim.hpp"
#include "systolic/stall_model.hpp"
#include "util/thread_pool.hpp"

using namespace drift;

namespace {

TensorF laplace_matrix(std::int64_t rows, std::int64_t cols,
                       std::uint64_t seed) {
  Rng rng(seed);
  TensorF t(Shape{rows, cols});
  for (auto& v : t.data()) v = static_cast<float>(rng.laplace(0.05));
  return t;
}

/// Figure 6's per-operand activation quantizer: Drift mode, row
/// granularity, automatic threshold at noise budget 0.05.
nn::QuantEngine drift_row_engine() {
  nn::QuantEngine::Config cfg;
  cfg.mode = nn::QuantMode::kDrift;
  cfg.auto_threshold = true;
  cfg.noise_budget = 0.05;
  return nn::QuantEngine(cfg);
}

void BM_SelectPrecision(benchmark::State& state) {
  Rng rng(1);
  const auto stats =
      nn::sample_subtensor_stats(rng, 1024, 768, nn::bert_profile());
  core::QuantParams params;
  params.delta = 0.05;
  core::SelectorConfig cfg;
  cfg.density_threshold = 1.0;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::select_precision(stats[i % stats.size()], params, cfg));
    ++i;
  }
}
BENCHMARK(BM_SelectPrecision);

void BM_AutoThreshold(benchmark::State& state) {
  Rng rng(2);
  const auto count = state.range(0);
  const auto stats =
      nn::sample_subtensor_stats(rng, count, 768, nn::bert_profile());
  const std::vector<std::int64_t> sizes(stats.size(), 768);
  core::QuantParams params;
  params.delta = 0.05;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::select_auto_threshold(
        stats, sizes, params, core::SelectorConfig{}, 0.05));
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_AutoThreshold)->Arg(128)->Arg(1024)->Arg(8192);

void BM_ScheduleGreedy(benchmark::State& state) {
  core::LayerWork work;
  work.m_high = 40;
  work.m_low = 984;
  work.n_high = 300;
  work.n_low = 2004;
  work.k = 768;
  const core::ArrayDims total{24, 33};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::schedule_greedy(work, total));
  }
}
BENCHMARK(BM_ScheduleGreedy);

void BM_ScheduleExhaustive(benchmark::State& state) {
  core::LayerWork work;
  work.m_high = 40;
  work.m_low = 984;
  work.n_high = 300;
  work.n_low = 2004;
  work.k = 768;
  const core::ArrayDims total{24, 33};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::schedule_exhaustive(work, total));
  }
}
BENCHMARK(BM_ScheduleExhaustive);

void BM_PipelineStallModel(benchmark::State& state) {
  Rng rng(3);
  std::vector<std::int64_t> costs(static_cast<std::size_t>(state.range(0)));
  for (auto& c : costs) c = rng.bernoulli(0.8) ? 1 : 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(systolic::pipeline_exit_cycles(costs, 56));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PipelineStallModel)->Arg(1024)->Arg(16384);

void BM_CycleSimTile(benchmark::State& state) {
  Rng rng(4);
  TensorI32 a(Shape{64, 16});
  TensorI32 w(Shape{16, 16});
  for (auto& v : a.data()) v = static_cast<std::int32_t>(rng.uniform_int(-7, 7));
  for (auto& v : w.data()) v = static_cast<std::int32_t>(rng.uniform_int(-7, 7));
  const std::vector<std::int64_t> costs(64, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(systolic::simulate_tile(a, w, costs));
  }
}
BENCHMARK(BM_CycleSimTile);

// Streams of 64 KiB and 1 GiB: the closed-form transfer costs the same
// per call at both sizes.
void BM_DramStream(benchmark::State& state) {
  dram::DramModel model;
  const std::int64_t bytes = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.stream(bytes, false));
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_DramStream)->Arg(1 << 16)->Arg(1 << 30);

// Thread-count-parameterized kernel benchmarks: the pool is resized to
// state.range(0) threads for the duration of the run.
void BM_MatmulThreads(benchmark::State& state) {
  util::ThreadPool::instance().resize(static_cast<int>(state.range(0)));
  const std::int64_t n = 256;
  const TensorF a = laplace_matrix(n, n, 7);
  const TensorF b = laplace_matrix(n, n, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  util::ThreadPool::instance().resize(0);
}
BENCHMARK(BM_MatmulThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_QuantizeRowsThreads(benchmark::State& state) {
  util::ThreadPool::instance().resize(static_cast<int>(state.range(0)));
  const TensorF x = laplace_matrix(2048, 768, 9);
  const nn::QuantEngine engine = drift_row_engine();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.process_activation_rows(x));
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
  util::ThreadPool::instance().resize(0);
}
BENCHMARK(BM_QuantizeRowsThreads)->Arg(1)->Arg(2)->Arg(4);

// ---------------------------------------------------------------------
// Property-test corpus timing -> BENCH_kernels.json "proptest_corpus"
// ---------------------------------------------------------------------
//
// Runs the same differential corpora as `ctest -L prop` (production
// code vs. the src/ref oracles) at a *fixed* seed and iteration count —
// deliberately independent of the DRIFT_PROPTEST_* environment so the
// recorded runtimes are comparable across machines and commits.  Any
// mismatch makes the binary exit non-zero.

struct CorpusResult {
  std::string name;
  int cases = 0;
  double seconds = 0.0;
  int mismatches = 0;
};

std::vector<CorpusResult> run_proptest_corpus() {
  proptest::Config cfg;  // fixed defaults: 128 cases, seed 0xD21F7
  std::vector<CorpusResult> results;

  const auto timed = [&](const char* name, auto&& prop) {
    CorpusResult r;
    r.name = name;
    const auto t0 = std::chrono::steady_clock::now();
    const proptest::RunReport rep = proptest::run_property(name, prop, cfg);
    const auto t1 = std::chrono::steady_clock::now();
    r.cases = rep.cases_run;
    r.seconds = std::chrono::duration<double>(t1 - t0).count();
    r.mismatches = rep.passed ? 0 : 1;
    if (!rep.passed) {
      std::fprintf(stderr, "[proptest] %s MISMATCH: %s\n  %s\n", name,
                   rep.message.c_str(), rep.repro.c_str());
    }
    std::fprintf(stderr, "[proptest] %-26s %4d cases  %.3fs  %s\n", name,
                 r.cases, r.seconds, rep.passed ? "ok" : "MISMATCH");
    results.push_back(r);
  };

  timed("matmul_vs_ref", [](Rng& rng, int size) -> proptest::Result {
    const std::int64_t m = proptest::gen_dim(rng, size);
    const std::int64_t k = proptest::gen_dim(rng, size);
    const std::int64_t n = proptest::gen_dim(rng, size);
    const TensorF a(Shape{m, k}, proptest::gen_laplace_buffer(rng, m * k, 0.5));
    const TensorF b(Shape{k, n}, proptest::gen_laplace_buffer(rng, k * n, 0.5));
    const TensorF got = nn::matmul(a, b);
    const TensorF want = ref::matmul(a, b);
    for (std::int64_t i = 0; i < got.numel(); ++i) {
      if (got.at(i) != want.at(i)) return proptest::fail("flat ", i);
    }
    return proptest::pass();
  });

  timed("selector_vs_bruteforce", [](Rng& rng, int size) -> proptest::Result {
    const std::int64_t n = 4 * proptest::gen_dim(rng, size);
    const auto values = proptest::gen_laplace_buffer(rng, n, 0.5);
    const core::SelectorConfig cfg = proptest::gen_selector_config(rng);
    const core::QuantParams params =
        core::compute_quant_params(values, cfg.hp);
    const core::PrecisionDecision d =
        core::select_precision(ref::stats(values), params, cfg);
    const ref::RenderingOracle oracle =
        ref::brute_force_rendering(values, params, cfg.lp);
    if (oracle.eq5_hc < 0) {
      if (d.use_low) return proptest::fail("infeasible but went low");
    } else if (d.choice.hc != oracle.eq5_hc) {
      return proptest::fail("hc ", d.choice.hc, " vs ", oracle.eq5_hc);
    }
    return proptest::pass();
  });

  timed("scheduler_vs_exhaustive", [](Rng& rng, int size) -> proptest::Result {
    core::LayerWork w = proptest::gen_layer_work(rng, size);
    const std::int64_t row_lo = (w.m_high > 0 && w.m_low > 0) ? 2 : 1;
    const std::int64_t col_lo = (w.n_high > 0 && w.n_low > 0) ? 2 : 1;
    const core::ArrayDims total{proptest::gen_dim(rng, size, row_lo),
                                proptest::gen_dim(rng, size, col_lo)};
    const core::SplitDecision g = core::schedule_greedy(w, total);
    const ref::SplitOracle o = ref::exhaustive_split(w, total);
    if (g.makespan < o.best_makespan) return proptest::fail("beat oracle");
    if (o.best_makespan > 0 &&
        static_cast<double>(g.makespan) >
            1.5 * static_cast<double>(o.best_makespan)) {
      return proptest::fail("gap above 1.5x");
    }
    return proptest::pass();
  });

  return results;
}

// ---------------------------------------------------------------------
// Kernel sweep -> BENCH_kernels.json
// ---------------------------------------------------------------------

struct KernelResult {
  std::string name;
  std::string shape;
  int threads = 1;
  std::string backend;  ///< dispatch table the run executed on
  double seconds = 0.0;
  double ops_per_s = 0.0;
  double speedup_vs_1t = 1.0;
  double speedup_vs_scalar = 1.0;  ///< vs same (name, threads) on scalar
};

template <typename Fn>
double best_seconds(Fn&& fn, int reps) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

void run_kernel_sweep(const std::vector<CorpusResult>& corpus) {
  constexpr std::int64_t gemm_n = 1024;
  const int default_threads = util::ThreadPool::default_num_threads();
  std::vector<int> thread_counts{1};
  for (int t : {2, 4}) {
    if (t <= default_threads) thread_counts.push_back(t);
  }
  if (default_threads > 1 &&
      default_threads != thread_counts.back()) {
    thread_counts.push_back(default_threads);
  }

  const TensorF a = laplace_matrix(gemm_n, gemm_n, 101);
  const TensorF b = laplace_matrix(gemm_n, gemm_n, 102);
  const TensorF w = laplace_matrix(gemm_n, gemm_n, 103);
  constexpr std::int64_t qrows = 8192;
  const TensorF x = laplace_matrix(qrows, 768, 104);
  const nn::QuantEngine engine = drift_row_engine();

  std::vector<KernelResult> results;
  auto record = [&](const std::string& name, const std::string& shape,
                    int threads, double seconds, double total_ops) {
    KernelResult r;
    r.name = name;
    r.shape = shape;
    r.threads = threads;
    r.backend = nn::simd::active().name;
    r.seconds = seconds;
    r.ops_per_s = total_ops / seconds;
    for (const auto& base : results) {
      if (base.name == name && base.threads == 1 &&
          base.backend == r.backend) {
        r.speedup_vs_1t = base.seconds / seconds;
      }
      if (base.name == name && base.threads == threads &&
          base.backend == "scalar" && r.backend != "scalar") {
        r.speedup_vs_scalar = base.seconds / seconds;
      }
    }
    results.push_back(r);
    std::fprintf(stderr,
                 "[kernels] %-16s %-18s threads=%d backend=%-6s %.3fs  "
                 "%.3g ops/s  speedup=%.2fx  vs_scalar=%.2fx\n",
                 name.c_str(), shape.c_str(), threads, r.backend.c_str(),
                 seconds, r.ops_per_s, r.speedup_vs_1t,
                 r.speedup_vs_scalar);
  };

  const std::string gemm_shape = std::to_string(gemm_n) + "x" +
                                 std::to_string(gemm_n) + "x" +
                                 std::to_string(gemm_n);
  const double gemm_ops = 2.0 * static_cast<double>(gemm_n) *
                          static_cast<double>(gemm_n) *
                          static_cast<double>(gemm_n);
  const std::string quant_shape =
      std::to_string(qrows) + "x768";
  for (int threads : thread_counts) {
    util::ThreadPool::instance().resize(threads);
    record("matmul", gemm_shape, threads,
           best_seconds([&] { benchmark::DoNotOptimize(nn::matmul(a, b)); },
                        2),
           gemm_ops);
    record("matmul_nt", gemm_shape, threads,
           best_seconds(
               [&] { benchmark::DoNotOptimize(nn::matmul_nt(a, w)); }, 2),
           gemm_ops);
    record("quantize_rows", quant_shape, threads,
           best_seconds(
               [&] {
                 benchmark::DoNotOptimize(engine.process_activation_rows(x));
               },
               3),
           static_cast<double>(x.numel()));
  }

  // Backend sweep: {scalar, simd} x {fp32 GEMM, quantizer} at 1
  // thread, under the dispatch force-scalar toggle.
  {
    constexpr std::int64_t sweep_n = 512;
    const TensorF xa = laplace_matrix(sweep_n, sweep_n, 201);
    const TensorF xw = laplace_matrix(sweep_n, sweep_n, 202);
    const std::string sweep_shape = std::to_string(sweep_n) + "x" +
                                    std::to_string(sweep_n) + "x" +
                                    std::to_string(sweep_n);
    const double sweep_ops = 2.0 * static_cast<double>(sweep_n) *
                             static_cast<double>(sweep_n) *
                             static_cast<double>(sweep_n);

    util::ThreadPool::instance().resize(1);
    const bool prev_force = nn::simd::force_scalar();
    for (const bool force : {true, false}) {
      nn::simd::set_force_scalar(force);
      // One leg suffices when there is no vector backend to compare.
      if (!force && std::string(nn::simd::active().name) == "scalar") {
        break;
      }
      record("gemm_fp32", sweep_shape, 1,
             best_seconds(
                 [&] { benchmark::DoNotOptimize(nn::matmul_nt(xa, xw)); }, 2),
             sweep_ops);
      record("quantize_rows_1t", quant_shape, 1,
             best_seconds(
                 [&] {
                   benchmark::DoNotOptimize(engine.process_activation_rows(x));
                 },
                 3),
             static_cast<double>(x.numel()));
    }
    nn::simd::set_force_scalar(prev_force);
  }

  // Serving tail latency: one fixed-seed open-loop run through the
  // continuous-batching event loop (tiny-bert tenant, bursty arrivals
  // calibrated to ~0.75 load from the canonical service time).  The
  // latency is simulated cycles, so ops_per_s — defined as 1e6/p99_us —
  // is bit-deterministic across machines and thread counts, and the
  // ratchet's max-slowdown gate bounds p99 growth like any kernel.
  {
    serve::ServeConfig scfg;
    scfg.exec.hw.array.rows = 16;
    scfg.exec.hw.array.cols = 16;
    scfg.max_batch = 8;
    serve::TenantSpec tenant;
    tenant.name = "bench";
    tenant.workload = serve::serving_workload("tiny-bert");
    tenant.arrival.kind = serve::ArrivalKind::kBursty;
    tenant.num_requests = 256;
    tenant.seed = 424242;
    scfg.tenants.push_back(tenant);

    serve::ServeConfig probe_cfg = scfg;
    probe_cfg.tenants[0].num_requests = 1;
    probe_cfg.tenants[0].unique_mix_per_request = false;
    serve::Simulator probe(probe_cfg, util::ThreadPool::instance());
    const double service =
        static_cast<double>(probe.executor().execute_canonical(0).cycles);
    scfg.tenants[0].arrival.mean_interarrival_cycles = service / 0.75;

    serve::Simulator sim(scfg, util::ThreadPool::instance());
    serve::ServeResult sres;
    const double wall = best_seconds([&] { sres = sim.run(); }, 1);
    const double p99_us = 1e6 *
                          static_cast<double>(sres.overall.p99_cycles) /
                          scfg.exec.hw.energy.clock_hz;
    KernelResult r;
    r.name = "serve_p99_us";
    r.shape = "tiny-bert@16x16";
    r.threads = 1;
    r.backend = nn::simd::active().name;
    r.seconds = wall;
    r.ops_per_s = 1e6 / p99_us;
    results.push_back(r);
    std::fprintf(stderr,
                 "[kernels] %-16s %-18s threads=%d backend=%-6s %.3fs  "
                 "p99=%.2fus (%.3g \"ops/s\")\n",
                 r.name.c_str(), r.shape.c_str(), r.threads,
                 r.backend.c_str(), wall, p99_us, r.ops_per_s);
  }

  // Whole-model graph pipeline: examples/model_zoo/resnet18.json,
  // parsed once, through workload export -> mix selection -> scheduler
  // -> cycle model (the same path `drift_graph run` takes on that
  // file).  The cycle total is a deterministic function of topology +
  // seed, so ops_per_s — defined as 1e12/cycles — is bit-stable across
  // machines and thread counts, and the ratchet's max-slowdown gate
  // bounds end-to-end model latency regressions like any kernel.
  {
    const graph::TopologyParseResult topology = graphcli::read_topology_file(
        std::string(DRIFT_MODEL_ZOO_DIR) + "/resnet18.json");
    DRIFT_CHECK(topology.ok(), "examples/model_zoo/resnet18.json must parse");
    graphcli::GraphPipelineConfig gcfg;
    graphcli::GraphPipelineResult gres;
    const double wall = best_seconds(
        [&] {
          gres = graphcli::run_graph_pipeline(
              graphcli::export_workload(topology.graph), gcfg);
        },
        1);
    KernelResult r;
    r.name = "graph_resnet18_cycles";
    r.shape = "resnet18@24x33";
    r.threads = 1;
    r.backend = nn::simd::active().name;
    r.seconds = wall;
    r.ops_per_s = 1e12 / static_cast<double>(gres.run.cycles);
    results.push_back(r);
    std::fprintf(stderr,
                 "[kernels] %-16s %-18s threads=%d backend=%-6s %.3fs  "
                 "cycles=%lld (%.3g \"ops/s\")\n",
                 r.name.c_str(), r.shape.c_str(), r.threads,
                 r.backend.c_str(), wall,
                 static_cast<long long>(gres.run.cycles), r.ops_per_s);
  }
  // Figures 7/8 end to end: all four accelerator models on the seven
  // paper workloads at fig7's config (mix building, scheduling, cycle
  // and DRAM models), best of 3 at 1 thread.  ops_per_s = 1/seconds, so
  // the ratchet's max-slowdown gate bounds a whole figure's wall time;
  // a per-burst DRAM walk creeping back costs ~100x.
  {
    util::ThreadPool::instance().resize(1);
    accel::CompareConfig ccfg;
    ccfg.noise_budget = 0.05;  // fig7_latency / fig8_energy
    const std::vector<nn::WorkloadSpec> workloads = nn::paper_workloads();
    const double wall = best_seconds(
        [&] {
          for (const auto& spec : workloads) {
            benchmark::DoNotOptimize(accel::compare_workload(spec, ccfg));
          }
        },
        3);
    KernelResult r;
    r.name = "paper_compare";
    r.shape = "7_workloads@fig7";
    r.threads = 1;
    r.backend = nn::simd::active().name;
    r.seconds = wall;
    r.ops_per_s = 1.0 / wall;
    results.push_back(r);
    std::fprintf(stderr,
                 "[kernels] %-16s %-18s threads=%d backend=%-6s %.3fs\n",
                 r.name.c_str(), r.shape.c_str(), r.threads,
                 r.backend.c_str(), wall);
  }
  // Figure 6's accuracy path: the ResNet18 (static weights) and ViT-B
  // proxies as fig6_accuracy builds them, evaluated under FP32, INT8,
  // DRQ and Drift at the 0.04 budget fig6 selects for both, best of 3
  // at 1 thread (proxy construction untimed).  ops_per_s = 1/seconds,
  // so the ratchet bounds the forward-pass kernels — fp32 GEMM, tensor
  // indexing and the quantizer renderer — end to end.
  {
    util::ThreadPool::instance().resize(1);
    nn::CnnProxy::Config cnn_cfg;
    cnn_cfg.seed = 18;
    cnn_cfg.samples = 96;
    const nn::CnnProxy cnn(cnn_cfg);
    nn::TransformerProxy::Config vit_cfg;
    vit_cfg.model_dim = 32;
    vit_cfg.ffn_dim = 64;
    vit_cfg.seed = 7;
    vit_cfg.samples = 96;
    const nn::TransformerProxy vit(vit_cfg);
    const double wall = best_seconds(
        [&] {
          for (const nn::QuantMode mode :
               {nn::QuantMode::kFloat32, nn::QuantMode::kStaticInt8,
                nn::QuantMode::kDrq, nn::QuantMode::kDrift}) {
            nn::QuantEngine::Config ecfg;
            ecfg.mode = mode;
            ecfg.noise_budget = mode == nn::QuantMode::kDrift ? 0.04 : 0.0;
            ecfg.dynamic_weights = false;
            nn::QuantEngine cnn_engine(ecfg);
            benchmark::DoNotOptimize(cnn.evaluate(cnn_engine));
            ecfg.dynamic_weights = true;
            nn::QuantEngine vit_engine(ecfg);
            benchmark::DoNotOptimize(vit.evaluate(vit_engine));
          }
        },
        3);
    KernelResult r;
    r.name = "proxy_eval";
    r.shape = "resnet18+vit_b@fig6";
    r.threads = 1;
    r.backend = nn::simd::active().name;
    r.seconds = wall;
    r.ops_per_s = 1.0 / wall;
    results.push_back(r);
    std::fprintf(stderr,
                 "[kernels] %-16s %-18s threads=%d backend=%-6s %.3fs\n",
                 r.name.c_str(), r.shape.c_str(), r.threads,
                 r.backend.c_str(), wall);
  }
  // The serving host cost on a fixed-seed two-tenant (tiny-bert +
  // tiny-cnn) Poisson trace at load 0.7 with a mix per request, best of
  // 3 at 1 thread, as two entries.  serve_precompute times Simulator
  // construction: every request's activation patterns (lazy forks into
  // the tenant's row-bit arena).  serve_run times Simulator::run alone
  // on a Simulator built for that repetition, so its Drift model starts
  // with an empty split table: the batch packing, the Eq. 8 sweeps of
  // the distinct layer works, the table hits and the fabric work per
  // batch.  ops_per_s = 1/seconds for both; serve_p99_us gates only
  // simulated cycles.
  {
    util::ThreadPool& pool = util::ThreadPool::instance();
    pool.resize(1);
    serve::ServeConfig scfg;
    scfg.max_batch = 8;
    for (const char* name : {"tiny-bert", "tiny-cnn"}) {
      serve::TenantSpec tenant;
      tenant.name = name;
      tenant.workload = serve::serving_workload(name);
      tenant.num_requests = 4096;
      tenant.seed = 1 + scfg.tenants.size();  // drift_serve --seed=1
      scfg.tenants.push_back(tenant);
    }
    serve::ServeConfig probe_cfg = scfg;
    for (auto& tenant : probe_cfg.tenants) {
      tenant.num_requests = 1;
      tenant.unique_mix_per_request = false;
    }
    serve::Simulator probe(probe_cfg, pool);
    for (std::size_t t = 0; t < scfg.tenants.size(); ++t) {
      const double service = static_cast<double>(
          probe.executor().execute_canonical(static_cast<int>(t)).cycles);
      scfg.tenants[t].arrival.mean_interarrival_cycles =
          service * static_cast<double>(scfg.tenants.size()) / 0.7;
    }
    const std::string shape = "tiny-bert+tiny-cnn@0.7";
    std::optional<serve::Simulator> sim;
    double precompute = 1e30;
    double run = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
      sim.reset();  // the previous arena is freed outside the timing
      precompute = std::min(
          precompute, best_seconds([&] { sim.emplace(scfg, pool); }, 1));
      run = std::min(run, best_seconds(
                              [&] { benchmark::DoNotOptimize(sim->run()); },
                              1));
    }
    record("serve_precompute", shape, 1, precompute, 1.0);
    record("serve_run", shape, 1, run, 1.0);
  }
  util::ThreadPool::instance().resize(0);

  std::FILE* f = std::fopen("BENCH_kernels.json", "w");
  if (!f) {
    std::fprintf(stderr, "[kernels] cannot open BENCH_kernels.json\n");
    return;
  }
  const nn::simd::CpuFeatures features = nn::simd::detect_cpu_features();
  std::string feature_list;
  if (features.avx2) feature_list += "avx2";
  if (features.neon) feature_list += feature_list.empty() ? "neon" : ",neon";
  // Same schema-v2 meta block the metrics artifacts carry (git sha,
  // backend, force-scalar flag), so cross-machine bench diffs are
  // interpretable.  Keys and values are plain identifiers; no JSON
  // string escaping needed.
  std::string meta_json;
  for (const auto& [key, value] : obs::run_metadata()) {
    if (!meta_json.empty()) meta_json += ", ";
    meta_json += "\"" + key + "\": \"" + value + "\"";
  }
  std::fprintf(f, "{\n  \"schema_version\": 2,\n  \"meta\": {%s},\n"
               "  \"hardware_threads\": %u,\n  \"default_threads\": %d,\n"
               "  \"cpu_features\": \"%s\",\n"
               "  \"proptest_corpus\": [\n",
               meta_json.c_str(), std::thread::hardware_concurrency(),
               default_threads, feature_list.c_str());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const auto& c = corpus[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"cases\": %d, \"seconds\": %.6f, "
                 "\"mismatches\": %d}%s\n",
                 c.name.c_str(), c.cases, c.seconds, c.mismatches,
                 i + 1 < corpus.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"kernels\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"shape\": \"%s\", \"threads\": %d, "
                 "\"backend\": \"%s\", \"seconds\": %.6f, "
                 "\"ops_per_s\": %.6g, \"speedup_vs_1t\": %.3f, "
                 "\"speedup_vs_scalar\": %.3f}%s\n",
                 r.name.c_str(), r.shape.c_str(), r.threads,
                 r.backend.c_str(), r.seconds, r.ops_per_s, r.speedup_vs_1t,
                 r.speedup_vs_scalar,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "[kernels] wrote BENCH_kernels.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  // Initialize removes the flags it knows from argv and leaves ours.
  benchmark::Initialize(&argc, argv);
  const Args args = Args::parse(argc, argv);
  const auto artifacts = obs::ReportOptions::from_args(
      args, "google-benchmark's flags (see --help)");
  if (!artifacts) return 2;

  // The differential corpus always runs (it doubles as a smoke test of
  // the oracles); mismatches fail the binary after the benchmarks.
  const std::vector<CorpusResult> corpus = run_proptest_corpus();
  int corpus_mismatches = 0;
  for (const auto& c : corpus) corpus_mismatches += c.mismatches;
  run_kernel_sweep(corpus);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const bool artifacts_ok = artifacts->write();
  return corpus_mismatches > 0 || !artifacts_ok ? 1 : 0;
}
