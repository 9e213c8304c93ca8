// Multi-tenant serving simulator: a deterministic discrete-event loop
// in simulated cycles over one shared accelerator.
//
// Determinism argument (the property the 1/2/8-thread tests assert):
//   - Arrival traces are pure functions of (tenant seed, arrival
//     config) via util/rng.
//   - Per-request precision mixes are seed-derived; the thread pool
//     only precomputes them into disjoint slots with a fixed chunk
//     decomposition, so they are bit-identical at any pool size.
//   - The event loop itself is single-threaded: one server, FIFO
//     admission with a total arrival order (cycle, tenant, local
//     index), batch composition a pure function of the trace, and the
//     accelerator models re-create their DRAM/fabric state per run.
//   - Every serve.* metric is observed from the event-loop thread, so
//     histogram shard/reservoir placement cannot vary with pool size;
//     the serving artifact (Registry::to_json({"serve."})) is therefore
//     byte-identical at any thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/batcher.hpp"
#include "serve/executor.hpp"
#include "serve/tenant.hpp"
#include "util/thread_pool.hpp"

namespace drift::serve {

struct ServeConfig {
  std::vector<TenantSpec> tenants;
  ExecConfig exec{};
  std::int64_t max_batch = 8;
};

/// Per-request Chrome-trace tracks are capped (each costs a pid-1
/// track); requests beyond the cap are counted in serve.trace_dropped,
/// never silently truncated.
inline constexpr std::int64_t kTraceRequestCap = 128;

/// One served request's lifecycle timestamps (all simulated cycles).
struct RequestRecord {
  std::int64_t id = 0;       ///< global admission index
  int tenant = 0;
  std::int64_t local = 0;    ///< per-tenant request index
  std::int64_t arrival = 0;
  std::int64_t start = 0;
  std::int64_t completion = 0;
  std::int64_t batch_id = -1;
  std::int64_t batch_size = 0;
  double energy_pj = 0.0;    ///< batch energy / batch size

  std::int64_t wait() const { return start - arrival; }
  std::int64_t service() const { return completion - start; }
  std::int64_t latency() const { return completion - arrival; }
};

/// Exact (sorted-sample) tail summary of one latency population.
struct SloSummary {
  std::int64_t count = 0;
  std::int64_t p50_cycles = 0;
  std::int64_t p99_cycles = 0;
  std::int64_t p999_cycles = 0;
  std::int64_t max_cycles = 0;
  double mean_wait_cycles = 0.0;
  double mean_latency_cycles = 0.0;
  double energy_per_request_pj = 0.0;
};

struct ServeResult {
  std::vector<RequestRecord> requests;  ///< in admission (id) order
  SloSummary overall;
  std::vector<SloSummary> per_tenant;
  std::int64_t batches = 0;
  std::int64_t busy_cycles = 0;         ///< accelerator-occupied cycles
  std::int64_t makespan_cycles = 0;     ///< last completion
  double total_energy_pj = 0.0;

  double utilization() const {
    return makespan_cycles > 0 ? static_cast<double>(busy_cycles) /
                                     static_cast<double>(makespan_cycles)
                               : 0.0;
  }
};

/// Exact p-quantile of an unsorted sample at rank ceil(p*N) (1-based),
/// the same convention as the obs histogram estimator.  0 when empty.
std::int64_t exact_quantile(std::vector<std::int64_t> values, double p);

class Simulator {
 public:
  /// Caller owns the pool; the simulator only borrows it for the
  /// per-request mix precompute inside BatchExecutor.
  explicit Simulator(ServeConfig config,
                     util::ThreadPool& pool = util::ThreadPool::instance());

  /// Runs every tenant's request budget to completion.
  ServeResult run();

  BatchExecutor& executor() { return executor_; }

 private:
  ServeConfig config_;
  BatchExecutor executor_;
};

}  // namespace drift::serve
