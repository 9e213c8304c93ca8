// The ratcheted kernel sweep: times the hot kernels and whole
// computations at fixed sizes, best of N, and writes BENCH_kernels.json,
// which `drift_report ratchet` gates against bench/baseline.json.  Every
// entry goes through one `record`, keyed name|shape|threads|backend:
//   - matmul, matmul_nt and quantize_rows at 1, 2, 4 and the default
//     pool's thread counts (`speedup_vs_1t`).  The quantization entries
//     time QuantEngine::process_activation_rows in Drift mode (row
//     statistics, the automatic δ at budget 0.05, then core::render),
//     the per-operand call Figure 6 makes.
//   - gemm_fp32 and quantize_rows_1t on {scalar, simd} under the
//     dispatch force-scalar toggle (`speedup_vs_scalar`: the SIMD
//     payoff on this machine's `cpu_features`).
//   - serve_p99_us (ops_per_s = 1e6/p99_us) and graph_resnet18_cycles
//     (ops_per_s = 1e12/cycles): simulated cycles, so deterministic,
//     which lets the ratchet gate serving tail latency and end-to-end
//     model latency.
//   - paper_compare, proxy_eval, serve_precompute and serve_run: the
//     best wall time of Figures 7/8, of Figure 6's proxies and of the
//     serving host cost (ops_per_s = 1/seconds).
// The sizes are fixed, as bench/baseline.json records them: the thread
// sweep's GEMM edge is 1024, the backend sweep's 512, and the quantizer
// takes 8192 rows.  Each timed call assigns its result to a variable
// outside the timed lambda, so the compiler cannot drop the work.
//
// The command line takes only --metrics-out and --trace-out, read
// through Args and ReportOptions::from_args like every other binary's,
// so an unknown flag or a stray argument exits 2 before the sweep runs.
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "accel/compare.hpp"
#include "nn/gemm.hpp"
#include "nn/proxy.hpp"
#include "nn/quant_engine.hpp"
// drift-lint: allow(intrinsic) — the bench sweep toggles the
// force-scalar override to measure the SIMD payoff per backend.
#include "nn/simd/kernel_dispatch.hpp"
#include "nn/workload.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "pipeline.hpp"
#include "serve/simulator.hpp"
#include "util/args.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"
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

/// best_seconds of `fn`, each result moved into `out`.  The previous
/// result is released first, inside the timing, so each call reuses its
/// memory as it would if every result died at once.
template <typename T, typename Fn>
double best_into(T& out, Fn&& fn, int reps) {
  return best_seconds(
      [&] {
        out = T{};
        out = fn();
      },
      reps);
}

/// Appends one entry on the active dispatch table, with its speedups
/// over the entries of the same name already recorded at 1 thread and
/// on the scalar table, and prints it.
void record(std::vector<KernelResult>& results, const std::string& name,
            const std::string& shape, int threads, double seconds,
            double ops_per_s) {
  KernelResult r;
  r.name = name;
  r.shape = shape;
  r.threads = threads;
  r.backend = nn::simd::active().name;
  r.seconds = seconds;
  r.ops_per_s = ops_per_s;
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
               seconds, r.ops_per_s, r.speedup_vs_1t, r.speedup_vs_scalar);
}

std::vector<KernelResult> run_kernel_sweep(int default_threads) {
  constexpr std::int64_t gemm_n = 1024;
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
  TensorF product;
  nn::OperandResult quantized;
  const auto quantize = [&] { return engine.process_activation_rows(x); };

  const std::string gemm_shape = std::to_string(gemm_n) + "x" +
                                 std::to_string(gemm_n) + "x" +
                                 std::to_string(gemm_n);
  const double gemm_ops = 2.0 * static_cast<double>(gemm_n) *
                          static_cast<double>(gemm_n) *
                          static_cast<double>(gemm_n);
  const std::string quant_shape =
      std::to_string(qrows) + "x768";
  const double quant_ops = static_cast<double>(x.numel());
  for (int threads : thread_counts) {
    util::ThreadPool::instance().resize(threads);
    double s = best_into(product, [&] { return nn::matmul(a, b); }, 2);
    record(results, "matmul", gemm_shape, threads, s, gemm_ops / s);
    s = best_into(product, [&] { return nn::matmul_nt(a, w); }, 2);
    record(results, "matmul_nt", gemm_shape, threads, s, gemm_ops / s);
    s = best_into(quantized, quantize, 3);
    record(results, "quantize_rows", quant_shape, threads, s, quant_ops / s);
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
      double s = best_into(product, [&] { return nn::matmul_nt(xa, xw); }, 2);
      record(results, "gemm_fp32", sweep_shape, 1, s, sweep_ops / s);
      s = best_into(quantized, quantize, 3);
      record(results, "quantize_rows_1t", quant_shape, 1, s, quant_ops / s);
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
                          energy::kClockHz;
    record(results, "serve_p99_us", "tiny-bert@16x16", 1, wall, 1e6 / p99_us);
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
    record(results, "graph_resnet18_cycles", "resnet18@24x33", 1, wall,
           1e12 / static_cast<double>(gres.run.cycles));
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
    accel::Comparison cmp;
    const double wall = best_seconds(
        [&] {
          for (const auto& spec : workloads) {
            cmp = {};
            cmp = accel::compare_workload(spec, ccfg);
          }
        },
        3);
    record(results, "paper_compare", "7_workloads@fig7", 1, wall, 1.0 / wall);
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
    nn::ProxyResult cnn_result;
    nn::ProxyResult vit_result;
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
            cnn_result = cnn.evaluate(cnn_engine);
            ecfg.dynamic_weights = true;
            nn::QuantEngine vit_engine(ecfg);
            vit_result = vit.evaluate(vit_engine);
          }
        },
        3);
    record(results, "proxy_eval", "resnet18+vit_b@fig6", 1, wall, 1.0 / wall);
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
    serve::ServeResult served;
    double precompute = 1e30;
    double run = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
      sim.reset();  // the previous arena is freed outside the timing
      precompute = std::min(
          precompute, best_seconds([&] { sim.emplace(scfg, pool); }, 1));
      run = std::min(run,
                     best_into(served, [&] { return sim->run(); }, 1));
    }
    record(results, "serve_precompute", shape, 1, precompute,
           1.0 / precompute);
    record(results, "serve_run", shape, 1, run, 1.0 / run);
  }
  util::ThreadPool::instance().resize(0);
  return results;
}

/// BENCH_kernels.json: the schema-v2 meta block the metrics artifacts
/// carry (git sha, backend, force-scalar flag), so cross-machine bench
/// diffs are interpretable, the host's thread counts and CPU features,
/// and one row per kernel entry.
JsonValue kernels_json(const std::vector<KernelResult>& results,
                       int default_threads) {
  JsonObject meta;
  for (const auto& [key, value] : obs::run_metadata()) {
    meta[key] = JsonValue(value);
  }
  const nn::simd::CpuFeatures features = nn::simd::detect_cpu_features();
  std::string feature_list;
  if (features.avx2) feature_list += "avx2";
  if (features.neon) feature_list += feature_list.empty() ? "neon" : ",neon";
  JsonArray kernels;
  for (const KernelResult& r : results) {
    JsonObject row;
    row["name"] = JsonValue(r.name);
    row["shape"] = JsonValue(r.shape);
    row["threads"] = JsonValue(static_cast<std::int64_t>(r.threads));
    row["backend"] = JsonValue(r.backend);
    row["seconds"] = JsonValue(r.seconds);
    row["ops_per_s"] = JsonValue(r.ops_per_s);
    row["speedup_vs_1t"] = JsonValue(r.speedup_vs_1t);
    row["speedup_vs_scalar"] = JsonValue(r.speedup_vs_scalar);
    kernels.push_back(JsonValue(std::move(row)));
  }
  JsonObject doc;
  doc["schema_version"] = JsonValue(static_cast<std::int64_t>(2));
  doc["meta"] = JsonValue(std::move(meta));
  doc["hardware_threads"] = JsonValue(
      static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  doc["default_threads"] =
      JsonValue(static_cast<std::int64_t>(default_threads));
  doc["cpu_features"] = JsonValue(feature_list);
  doc["kernels"] = JsonValue(std::move(kernels));
  return JsonValue(std::move(doc));
}

}  // namespace

// A failed run (a DRIFT_CHECK, a BENCH_kernels.json that cannot be
// written) exits 1; the armed flush still writes partial artifacts.
int main(int argc, char** argv) try {
  const Args args = Args::parse(argc, argv);
  const auto artifacts = obs::ReportOptions::from_args(args);
  if (!artifacts) return 2;

  const int default_threads = util::ThreadPool::default_num_threads();
  const std::vector<KernelResult> results = run_kernel_sweep(default_threads);
  const bool json_ok = obs::write_file(
      "BENCH_kernels.json",
      write_canonical(kernels_json(results, default_threads)));
  if (json_ok) std::fprintf(stderr, "[kernels] wrote BENCH_kernels.json\n");
  const bool artifacts_ok = artifacts->write();
  return json_ok && artifacts_ok ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "micro_benchmarks: %s\n", e.what());
  return 1;
}
