#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>

#include "util/assert.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace drift::obs {

namespace detail {

int this_thread_shard() {
  // Shards are handed out round-robin in thread-creation order; a
  // thread keeps its shard for life, so two adds from the same thread
  // never race beyond the relaxed atomic.
  static std::atomic<int> next{0};
  thread_local const int shard =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

void atomic_min(std::atomic<std::int64_t>& target, std::int64_t v) {
  std::int64_t cur = target.load(std::memory_order_relaxed);
  while (v < cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<std::int64_t>& target, std::int64_t v) {
  std::int64_t cur = target.load(std::memory_order_relaxed);
  while (v > cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace detail

std::uint64_t Gauge::encode(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v, "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

double Gauge::decode(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

Histogram::Histogram(std::vector<std::int64_t> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      buckets_(bounds_.size() + 1) {
  DRIFT_CHECK(!bounds_.empty(), "histogram needs at least one bound");
  DRIFT_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                  std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                      bounds_.end(),
              "histogram bounds must be strictly ascending");
}

std::size_t Histogram::bucket_index(std::int64_t v) const {
  // First bound >= v; the overflow bucket catches v beyond the last.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  return static_cast<std::size_t>(it - bounds_.begin());
}

std::vector<std::int64_t> Histogram::counts() const {
  std::vector<std::int64_t> out;
  out.reserve(buckets_.size());
  for (const auto& b : buckets_) out.push_back(b.value());
  return out;
}

std::int64_t Histogram::total_count() const {
  std::int64_t total = 0;
  for (const auto& b : buckets_) total += b.value();
  return total;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.reset();
  for (auto& s : samples_) {
    s.count.store(0, std::memory_order_relaxed);
    s.min.store(std::numeric_limits<std::int64_t>::max(),
                std::memory_order_relaxed);
    s.max.store(std::numeric_limits<std::int64_t>::min(),
                std::memory_order_relaxed);
  }
}

std::int64_t Histogram::min_observed() const {
  std::int64_t m = std::numeric_limits<std::int64_t>::max();
  for (const auto& s : samples_) {
    m = std::min(m, s.min.load(std::memory_order_relaxed));
  }
  return m == std::numeric_limits<std::int64_t>::max() ? 0 : m;
}

std::int64_t Histogram::max_observed() const {
  std::int64_t m = std::numeric_limits<std::int64_t>::min();
  for (const auto& s : samples_) {
    m = std::max(m, s.max.load(std::memory_order_relaxed));
  }
  return m == std::numeric_limits<std::int64_t>::min() ? 0 : m;
}

bool Histogram::quantiles_exact() const {
  for (const auto& s : samples_) {
    if (s.count.load(std::memory_order_relaxed) > kSamplesPerShard) {
      return false;
    }
  }
  return true;
}

double Histogram::quantile(double p) const {
  // Rank of the order statistic this quantile names: ceil(p*N),
  // 1-based, clamped so p<=0 is the minimum and p>=1 the maximum.
  // src/ref's sorted_quantile oracle uses the identical expression, so
  // the exact path and the oracle agree bitwise.
  const std::vector<std::int64_t> bucket_counts = counts();
  std::int64_t total = 0;
  for (const std::int64_t c : bucket_counts) total += c;
  if (total == 0) return 0.0;
  const std::int64_t rank = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(
          std::ceil(p * static_cast<double>(total))),
      1, total);

  if (quantiles_exact()) {
    std::vector<std::int64_t> values;
    values.reserve(static_cast<std::size_t>(total));
    for (const auto& s : samples_) {
      const std::int64_t n = s.count.load(std::memory_order_relaxed);
      for (std::int64_t i = 0; i < n; ++i) {
        values.push_back(
            s.values[static_cast<std::size_t>(i)].load(
                std::memory_order_relaxed));
      }
    }
    // The snapshot raced with concurrent observes?  Scrapes happen at
    // run boundaries, but stay safe: clamp the rank to what we read.
    std::sort(values.begin(), values.end());
    const std::size_t idx = static_cast<std::size_t>(
        std::min<std::int64_t>(rank, static_cast<std::int64_t>(values.size())) -
        1);
    return static_cast<double>(values[idx]);
  }

  // Bucket path: find the bucket holding the rank, then interpolate
  // linearly inside its value range clamped to the observed [min, max].
  // The true order statistic lies in the same clamped range, so the
  // estimate is off by at most that range's width; p=1 still returns
  // the exact maximum (the final nonempty bucket clamps to it).
  const std::int64_t min_v = min_observed();
  const std::int64_t max_v = max_observed();
  std::int64_t cum = 0;
  std::size_t j = 0;
  for (; j < bucket_counts.size(); ++j) {
    if (cum + bucket_counts[j] >= rank) break;
    cum += bucket_counts[j];
  }
  if (j >= bucket_counts.size()) return static_cast<double>(max_v);
  double lo = static_cast<double>(j == 0 ? min_v : bounds_[j - 1]);
  double hi = static_cast<double>(
      j < bounds_.size() ? std::min(bounds_[j], max_v) : max_v);
  lo = std::max(lo, static_cast<double>(min_v));
  if (hi < lo) hi = lo;
  const double f = static_cast<double>(rank - cum) /
                   static_cast<double>(bucket_counts[j]);
  return lo + f * (hi - lo);
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Counter* Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::histogram(const std::string& name,
                               std::vector<std::int64_t> upper_bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(upper_bounds));
  return slot.get();
}

Histogram* Registry::run_histogram(const std::string& name,
                                   std::vector<std::int64_t> upper_bounds) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    run_histograms_.insert(name);
  }
  return histogram(name, std::move(upper_bounds));
}

LayerRecord* Registry::layer_record(const std::string& layer) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = layer_index_.find(layer);
  if (it != layer_index_.end()) return it->second;
  layers_.push_back(std::make_unique<LayerRecord>());
  layers_.back()->layer = layer;
  layer_index_[layer] = layers_.back().get();
  return layers_.back().get();
}

namespace {

// The active layer record of each thread (LayerScope).  thread_local
// so concurrent LayerScopes on distinct threads attribute correctly.
// A pool worker attributes only inside a scope it opened itself (a
// proxy sample's layer forward does); chunks it runs for a scoped
// caller skip attribution, and the caller records the totals.
thread_local LayerRecord* tl_current_layer = nullptr;

bool matches_prefixes(const std::string& name,
                      const std::vector<std::string>& prefixes) {
  if (prefixes.empty()) return true;
  return std::any_of(prefixes.begin(), prefixes.end(),
                     [&name](const std::string& p) {
                       return name.rfind(p, 0) == 0;
                     });
}

template <typename Ints>
JsonValue int_array(const Ints& values) {
  JsonArray out;
  for (const std::int64_t v : values) out.push_back(JsonValue(v));
  return JsonValue(std::move(out));
}

JsonValue layer_json(const LayerRecord& r) {
  JsonObject out;
  out["layer"] = JsonValue(r.layer);
  out["subtensors_total"] = JsonValue(r.subtensors_total);
  out["subtensors_low"] = JsonValue(r.subtensors_low);
  out["elements_total"] = JsonValue(r.elements_total);
  out["elements_low"] = JsonValue(r.elements_low);
  out["coverage"] = JsonValue(r.coverage());
  out["sched_r"] = JsonValue(r.sched_r);
  out["sched_c"] = JsonValue(r.sched_c);
  out["sched_latency"] = int_array(r.sched_latency);
  out["sched_makespan"] = JsonValue(r.sched_makespan);
  out["tile_count"] = int_array(r.tile_count);
  out["compute_cycles"] = JsonValue(r.compute_cycles);
  out["stall_cycles"] = JsonValue(r.stall_cycles);
  out["dram_bytes"] = JsonValue(r.dram_bytes);
  return JsonValue(std::move(out));
}

JsonValue histogram_json(const Histogram& h) {
  JsonObject out;
  out["upper_bounds"] = int_array(h.upper_bounds());
  out["counts"] = int_array(h.counts());
  const std::int64_t total = h.total_count();
  out["total"] = JsonValue(total);
  if (total > 0) {
    out["min"] = JsonValue(h.min_observed());
    out["max"] = JsonValue(h.max_observed());
    static constexpr struct {
      const char* key;
      double p;
    } kQuantiles[] = {{"p50", 0.50}, {"p90", 0.90}, {"p95", 0.95},
                      {"p99", 0.99}, {"p99.9", 0.999}};
    JsonObject quantiles;
    for (const auto& q : kQuantiles) {
      quantiles[q.key] = JsonValue(h.quantile(q.p));
    }
    out["quantiles"] = JsonValue(std::move(quantiles));
    out["exact"] = JsonValue(h.quantiles_exact());
  }
  return JsonValue(std::move(out));
}

/// Providers behind run_metadata(); function-local so static-init-order
/// is safe for providers registered from other translation units'
/// global initializers.
struct MetadataState {
  std::mutex mutex;
  std::vector<MetadataProvider> providers;
};

MetadataState& metadata_state() {
  static MetadataState state;
  return state;
}

}  // namespace

void register_run_metadata_provider(MetadataProvider provider) {
  MetadataState& state = metadata_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.providers.push_back(provider);
}

std::map<std::string, std::string> run_metadata() {
  std::map<std::string, std::string> meta;
  // Build-time provenance: DRIFT_GIT_SHA is stamped by src/obs/
  // CMakeLists at configure time (stale until the next CMake rerun,
  // which run-diff consumers tolerate — see DESIGN.md).
#ifdef DRIFT_GIT_SHA
  meta["git_sha"] = DRIFT_GIT_SHA;
#else
  meta["git_sha"] = "unknown";
#endif
  meta["threads"] =
      std::to_string(util::ThreadPool::instance().num_threads());
  MetadataState& state = metadata_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  for (const MetadataProvider provider : state.providers) provider(meta);
  return meta;
}

LayerRecord* Registry::current_layer() { return tl_current_layer; }

std::string Registry::to_json(const std::vector<std::string>& prefixes) const {
  // Collected before taking the registry lock: providers may touch
  // other singletons (dispatch tables, the thread pool).
  const std::map<std::string, std::string> meta = run_metadata();
  std::lock_guard<std::mutex> lock(mutex_);
  // Each section keeps the entries whose name (metadata keys as
  // "meta.<key>") passes the prefix filter.
  const auto section = [&prefixes](const auto& entries, const char* filter,
                                   const auto& to_json) {
    JsonObject out;
    for (const auto& [name, entry] : entries) {
      if (matches_prefixes(filter + name, prefixes)) out[name] = to_json(entry);
    }
    return JsonValue(std::move(out));
  };
  JsonObject doc;
  doc["schema_version"] = JsonValue(std::int64_t{kMetricsSchemaVersion});
  doc["meta"] = section(meta, "meta.",
                        [](const std::string& v) { return JsonValue(v); });
  doc["counters"] = section(
      counters_, "", [](const auto& c) { return JsonValue(c->value()); });
  doc["gauges"] = section(
      gauges_, "", [](const auto& g) { return JsonValue(g->value()); });
  doc["histograms"] = section(
      histograms_, "", [](const auto& h) { return histogram_json(*h); });
  JsonArray layers;
  for (const auto& record : layers_) {
    const std::lock_guard<std::mutex> record_lock(record->mutex);
    layers.push_back(layer_json(*record));
  }
  doc["layers"] = JsonValue(std::move(layers));
  return write_canonical(JsonValue(std::move(doc)));
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::string& name : run_histograms_) histograms_.erase(name);
  run_histograms_.clear();
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
  layers_.clear();
  layer_index_.clear();
}

LayerScope::LayerScope(const std::string& layer) {
  previous_ = tl_current_layer;
  tl_current_layer = Registry::global().layer_record(layer);
}

LayerScope::~LayerScope() { tl_current_layer = previous_; }

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    DRIFT_LOG_ERROR("obs") << "cannot open " << path << " for writing";
    return false;
  }
  out << content;
  return static_cast<bool>(out);
}

}  // namespace drift::obs
