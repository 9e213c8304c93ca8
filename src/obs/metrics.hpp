// Per-layer metrics registry: named monotonic counters, gauges and
// fixed-bucket histograms, cheap enough for the hot paths.
//
// Design:
//   - *Handles, not names, on the hot path.*  `Registry::counter("x")`
//     does a mutex-protected map lookup and returns a stable pointer;
//     instrumented code caches the handle (the DRIFT_OBS_* macros use a
//     function-local `static`, so the lookup runs once per site).  The
//     drift_lint `obs` rule rejects lookup-by-string inside loops.
//   - *Per-thread shards merged on scrape.*  A Counter is an array of
//     cache-line-padded relaxed atomics indexed by a thread-local shard
//     id; `add` is one uncontended fetch_add.  Integer addition
//     commutes exactly, so scraped totals are independent of shard
//     assignment, thread count, and merge order (pinned by
//     tests/prop/prop_obs.cpp).
//   - *Layer attribution via scopes.*  `LayerScope` names the layer the
//     current thread is processing; instrumented components write into
//     the active per-layer record.  Threads may share a record (the
//     proxies run samples of one layer concurrently), so
//     DRIFT_OBS_LAYER runs its body under that record's own mutex;
//     the registry mutex guards only the name -> record lookup.  Layer
//     writes happen once per layer run, not per element, so the
//     uncontended lock is off the hot path.
//   - *Compiles out.*  Under -DDRIFT_OBS_OFF every DRIFT_OBS_* macro
//     expands to nothing, so instrumented kernels are bit-identical and
//     perf-neutral; the registry type itself stays defined so tooling
//     code still compiles.
//
// Scrape output is canonical JSON: keys sorted, integers verbatim,
// doubles printed with a fixed shortest-roundtrip format — byte-stable
// for the golden test in tests/test_obs_golden.cpp.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace drift::obs {

/// Number of per-thread shards per counter.  Threads hash onto shards
/// round-robin; 16 covers the pool sizes the repo runs while keeping a
/// histogram's footprint (shards x buckets) small.
inline constexpr int kShards = 16;

/// Per-shard exact-sample capacity.  While no shard has seen more
/// observations than this, histogram quantiles are computed exactly
/// from the complete sample set; beyond it the estimator falls back to
/// bucket interpolation.
inline constexpr std::int64_t kSamplesPerShard = 256;

namespace detail {
/// Shard index of the calling thread (stable for the thread's life).
int this_thread_shard();

struct alignas(64) ShardSlot {
  std::atomic<std::int64_t> value{0};
};

/// Relaxed CAS min/max — uncontended in practice because shards are
/// per-thread; the loop only spins when >16 threads share a shard.
void atomic_min(std::atomic<std::int64_t>& target, std::int64_t v);
void atomic_max(std::atomic<std::int64_t>& target, std::int64_t v);

/// One shard of a histogram's exact-sample reservoir (see
/// kSamplesPerShard below for the exactness contract).
struct alignas(64) SampleShard {
  std::atomic<std::int64_t> count{0};  ///< observations routed here
  std::atomic<std::int64_t> min{std::numeric_limits<std::int64_t>::max()};
  std::atomic<std::int64_t> max{std::numeric_limits<std::int64_t>::min()};
  std::array<std::atomic<std::int64_t>, kSamplesPerShard> values{};
};
}  // namespace detail

/// Monotonic counter.  add() is hot-path safe; value() merges shards.
class Counter {
 public:
  void add(std::int64_t delta) {
    slots_[static_cast<std::size_t>(detail::this_thread_shard())]
        .value.fetch_add(delta, std::memory_order_relaxed);
  }

  std::int64_t value() const {
    std::int64_t total = 0;
    for (const auto& s : slots_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void reset() {
    for (auto& s : slots_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<detail::ShardSlot, kShards> slots_{};
};

/// Last-write-wins double gauge (per-run settings, ratios).  Gauges are
/// set at layer granularity, never inside kernels, so a single atomic
/// suffices.
class Gauge {
 public:
  void set(double v) { bits_.store(encode(v), std::memory_order_relaxed); }
  double value() const {
    return decode(bits_.load(std::memory_order_relaxed));
  }
  void reset() { set(0.0); }

 private:
  static std::uint64_t encode(double v);
  static double decode(std::uint64_t bits);
  std::atomic<std::uint64_t> bits_{0};
};

/// Fixed-bucket histogram.  Bucket i counts observations in
/// (bound[i-1], bound[i]]; a final overflow bucket catches everything
/// above the last bound.  observe() is a bucket add, a reservoir
/// append while the shard reservoir has room, and a min/max update —
/// all relaxed sharded atomics, still hot-path safe.
class Histogram {
 public:
  explicit Histogram(std::vector<std::int64_t> upper_bounds);

  void observe(std::int64_t v) {
    buckets_[bucket_index(v)].add(1);
    detail::SampleShard& shard =
        samples_[static_cast<std::size_t>(detail::this_thread_shard())];
    const std::int64_t slot =
        shard.count.fetch_add(1, std::memory_order_relaxed);
    if (slot < kSamplesPerShard) {
      shard.values[static_cast<std::size_t>(slot)].store(
          v, std::memory_order_relaxed);
    }
    detail::atomic_min(shard.min, v);
    detail::atomic_max(shard.max, v);
  }

  const std::vector<std::int64_t>& upper_bounds() const { return bounds_; }
  /// Merged per-bucket counts; size is upper_bounds().size() + 1 (the
  /// trailing entry is the overflow bucket).
  std::vector<std::int64_t> counts() const;
  std::int64_t total_count() const;

  /// Smallest / largest observation so far (0 when empty).
  std::int64_t min_observed() const;
  std::int64_t max_observed() const;

  /// True while every shard reservoir still holds all of its
  /// observations, i.e. quantile() answers from the exact sorted
  /// sample set.
  bool quantiles_exact() const;

  /// The p-quantile (p in [0, 1]) at rank ceil(p * N), 1-based, so
  /// p = 0 names the minimum and p = 1 the maximum.  Exact while
  /// quantiles_exact(); afterwards interpolated inside the bucket that
  /// holds the rank, clamped to [min_observed, max_observed] — the
  /// estimate and the true order statistic always share that bucket,
  /// so the error is bounded by the (clamped) bucket width (pinned by
  /// tests/obs/prop_obs.cpp against the src/ref sorted-vector oracle).
  /// Monotone in p by construction; 0 when empty.
  double quantile(double p) const;

  void reset();

 private:
  std::size_t bucket_index(std::int64_t v) const;
  std::vector<std::int64_t> bounds_;       ///< ascending, strict
  std::vector<Counter> buckets_;           ///< bounds.size() + 1
  std::array<detail::SampleShard, kShards> samples_{};
};

/// One layer's scraped attribution record.  All fields are filled by
/// the instrumentation macros in the components; deterministic for a
/// fixed seed.
struct LayerRecord {
  std::string layer;
  /// Held by DRIFT_OBS_LAYER while it updates the fields below, and by
  /// the scrapes while they read them.
  mutable std::mutex mutex;
  // Selector / quant engine (activation operand).
  std::int64_t subtensors_total = 0;
  std::int64_t subtensors_low = 0;
  std::int64_t elements_total = 0;
  std::int64_t elements_low = 0;
  // Scheduler (Eq. 8 split + Eq. 7 predicted latencies).
  std::int64_t sched_r = -1;
  std::int64_t sched_c = -1;
  std::array<std::int64_t, 4> sched_latency{};  ///< hh, hl, lh, ll
  std::int64_t sched_makespan = 0;
  std::array<std::int64_t, 4> tile_count{};     ///< per-class weight tiles
  // Cycle accounting.
  std::int64_t compute_cycles = 0;
  std::int64_t stall_cycles = 0;
  std::int64_t dram_bytes = 0;

  /// 4-bit coverage ratio (Eq. 5/6 acceptance, element-weighted).
  double coverage() const {
    return elements_total > 0
               ? static_cast<double>(elements_low) /
                     static_cast<double>(elements_total)
               : 0.0;
  }
};

// ---------------------------------------------------------------------
// Run metadata (artifact schema v2).
// ---------------------------------------------------------------------

/// Version stamped into every metrics artifact.  v2 added the "meta"
/// block (git sha, backend, cpu_features, thread count, obs/scalar
/// flags) and histogram min/max/quantiles; v1 artifacts carry neither.
inline constexpr int kMetricsSchemaVersion = 2;

/// Fills in the metadata keys only the registering component knows
/// (e.g. the SIMD backend registers backend/cpu_features/force_scalar
/// from src/nn/simd/kernel_dispatch.cpp).  Providers run at scrape
/// time, so toggled state (force-scalar, pool resizes) is reported as
/// of the scrape.  Not available under DRIFT_OBS_OFF?  It is: the meta
/// block survives obs-off builds so even empty artifacts say where
/// they came from.
using MetadataProvider = void (*)(std::map<std::string, std::string>&);
void register_run_metadata_provider(MetadataProvider provider);

/// The merged metadata map: built-ins (git_sha from the build-time
/// DRIFT_GIT_SHA define, obs_off, threads), then registered providers.
std::map<std::string, std::string> run_metadata();

/// Process-wide metric namespace.
class Registry {
 public:
  static Registry& global();

  /// Lookup-by-string; returns a stable handle.  Cache the result —
  /// the drift_lint `obs` rule flags calls inside loops.
  Counter* counter(const std::string& name);
  // drift-lint: allow(dead-api) — production code reaches it only
  // through the DRIFT_OBS_GAUGE_SET macro, which the extractor does not
  // expand.
  Gauge* gauge(const std::string& name);
  /// First lookup fixes the bucket bounds; later lookups of the same
  /// name ignore `upper_bounds`.
  Histogram* histogram(const std::string& name,
                       std::vector<std::int64_t> upper_bounds);

  /// The record for `layer`, created on first use.  Records keep their
  /// creation order in scrapes.
  LayerRecord* layer_record(const std::string& layer);

  /// Layer attribution for the calling thread (set by LayerScope);
  /// nullptr outside any scope.
  // drift-lint: allow(dead-api) — production code reaches it only
  // through the DRIFT_OBS_LAYER macro, which the extractor does not
  // expand.
  LayerRecord* current_layer();

  /// Canonical JSON of every metric plus the layer records, for the
  /// golden tests and the --metrics-out artifacts (schema v2: see
  /// kMetricsSchemaVersion).  When `prefixes` is non-empty, only
  /// metrics whose name starts with one of them are emitted (layer
  /// records are always included); metadata keys filter as
  /// "meta.<key>", so the golden test's deterministic-prefix list
  /// drops the volatile git sha along with the wall-clock metrics.
  std::string to_json(const std::vector<std::string>& prefixes = {}) const;

  /// Zeroes every counter/gauge/histogram and drops all layer records.
  /// Not safe concurrently with instrumentation: call it between runs,
  /// as drift_serve and serving_study do.
  void reset();

 private:
  Registry() = default;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::vector<std::unique_ptr<LayerRecord>> layers_;
  std::map<std::string, LayerRecord*> layer_index_;
};

/// RAII layer-attribution scope: instrumented components called while
/// a scope is alive write into that layer's record.  Nests by
/// shadowing (inner scope wins, outer restored on exit).
class LayerScope {
 public:
  explicit LayerScope(const std::string& layer);
  ~LayerScope();
  LayerScope(const LayerScope&) = delete;
  LayerScope& operator=(const LayerScope&) = delete;

 private:
  LayerRecord* previous_ = nullptr;
};

/// Writes `content` to `path`; returns false (and logs) on I/O error.
bool write_file(const std::string& path, const std::string& content);

}  // namespace drift::obs

// ---------------------------------------------------------------------
// Instrumentation macros.  Hot-path cost when enabled: one static-init
// guard check + one sharded relaxed fetch_add.  Under DRIFT_OBS_OFF
// they expand to a void cast of nothing, so arguments are not
// evaluated and the instrumented code is bit-identical to the
// uninstrumented build.
// ---------------------------------------------------------------------

#ifndef DRIFT_OBS_OFF

#define DRIFT_OBS_COUNT(name, delta)                                     \
  do {                                                                   \
    static ::drift::obs::Counter* drift_obs_c_ =                         \
        ::drift::obs::Registry::global().counter(name);                  \
    drift_obs_c_->add(delta);                                            \
  } while (0)

#define DRIFT_OBS_GAUGE_SET(name, value)                                 \
  do {                                                                   \
    static ::drift::obs::Gauge* drift_obs_g_ =                           \
        ::drift::obs::Registry::global().gauge(name);                    \
    drift_obs_g_->set(value);                                            \
  } while (0)

/// Observes `value` in the named histogram; the trailing arguments are
/// the upper bucket bounds (used only by the first lookup).
#define DRIFT_OBS_HISTOGRAM(name, value, ...)                            \
  do {                                                                   \
    static ::drift::obs::Histogram* drift_obs_h_ =                       \
        ::drift::obs::Registry::global().histogram(                      \
            name, std::vector<std::int64_t>{__VA_ARGS__});               \
    drift_obs_h_->observe(value);                                        \
  } while (0)

/// Runs the trailing statements with `rec` bound to the current layer
/// record, holding the record's mutex (skipped entirely when no
/// LayerScope is active).  The statements must not nest another
/// DRIFT_OBS_LAYER.
#define DRIFT_OBS_LAYER(rec, ...)                                        \
  do {                                                                   \
    if (::drift::obs::LayerRecord* rec =                                 \
            ::drift::obs::Registry::global().current_layer()) {          \
      const std::lock_guard<std::mutex> drift_obs_layer_lock_(rec->mutex); \
      __VA_ARGS__;                                                       \
    }                                                                    \
  } while (0)

#ifndef DRIFT_OBS_CONCAT
#define DRIFT_OBS_CONCAT_INNER(a, b) a##b
#define DRIFT_OBS_CONCAT(a, b) DRIFT_OBS_CONCAT_INNER(a, b)
#endif

/// Opens a LayerScope for the rest of the enclosing block.
#define DRIFT_OBS_LAYER_SCOPE(name)                                      \
  ::drift::obs::LayerScope DRIFT_OBS_CONCAT(drift_obs_layer_,            \
                                            __LINE__)(name)

#else  // DRIFT_OBS_OFF: everything compiles out, arguments unevaluated.

#define DRIFT_OBS_COUNT(name, delta) do {} while (0)
#define DRIFT_OBS_GAUGE_SET(name, value) do {} while (0)
#define DRIFT_OBS_HISTOGRAM(name, value, ...) do {} while (0)
#define DRIFT_OBS_LAYER(rec, ...) do {} while (0)
#define DRIFT_OBS_LAYER_SCOPE(name) do {} while (0)

#endif  // DRIFT_OBS_OFF
