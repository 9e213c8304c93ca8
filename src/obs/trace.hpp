// Scoped-span tracer emitting Chrome trace_event JSON.
//
// Two time domains share one trace file, on separate pids so
// chrome://tracing (or Perfetto) renders them as separate process
// groups:
//
//   pid 0 — *host wall clock*: one complete (X) event per
//           DRIFT_OBS_SPAN scope of the real pipeline and thread-pool
//           workers, microsecond timestamps from a monotonic clock.
//   pid 1 — *simulated cycles*: complete (X) events whose timestamps
//           are model cycles (1 cycle == 1 "µs"), emitted by the
//           accelerator timeline and the serving simulator so the
//           double-buffered DRAM/compute schedule is inspectable on the
//           same timeline UI.
//
// Collection is off by default: a disabled tracer costs one relaxed
// atomic load per span site.  Events buffer per thread (mutex only at
// first touch and at write time), so spans are safe from pool workers.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace drift::obs {

/// Microseconds from a process-local monotonic clock (first call is 0).
std::int64_t trace_now_us();

/// One complete (X) trace_event entry: `name` ran from `ts` for `dur`.
struct TraceEvent {
  std::string name;
  const char* category = "drift";
  std::int64_t ts = 0;
  std::int64_t dur = 0;
  int pid = 0;
  std::uint32_t tid = 0;
};

class Tracer {
 public:
  static Tracer& global();

  /// Collection gate.  Spans recorded while disabled are dropped.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Records a complete (X) event on the calling thread's wall-clock
  /// track: `name` ran from `start_us` (a trace_now_us reading) until
  /// now.
  void span(const char* name, std::int64_t start_us);

  /// Records a complete (X) event with explicit simulated timestamps
  /// on the given pid-1 track (see sim_track).
  void complete(const std::string& name, std::uint32_t tid, std::int64_t ts,
                std::int64_t dur);

  /// Stable tid for a named simulated track (created on first use).
  std::uint32_t sim_track(const std::string& name);

  /// Serializes every buffered event as Chrome trace JSON in
  /// write_canonical's layout (track names first, then thread buffers
  /// in registration order) and returns it.
  std::string to_chrome_json() const;

  /// Writes to_chrome_json() to `path`.
  bool write_chrome_trace(const std::string& path) const;

  /// Drops all buffered events and named tracks.  Test-only.
  void reset();

 private:
  Tracer() = default;
  struct ThreadBuffer {
    std::uint32_t tid = 0;
    std::vector<TraceEvent> events;
    std::mutex mutex;  ///< guards events vs. concurrent serialization
  };
  ThreadBuffer& this_thread_buffer();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::vector<std::pair<std::string, std::uint32_t>> sim_tracks_;
  std::uint32_t next_tid_ = 0;
  std::uint32_t next_sim_tid_ = 0;
};

/// RAII wall-clock span, recorded as one complete event at scope exit
/// iff the tracer was enabled at scope entry.  Disabled, it costs the
/// one relaxed load of enabled().
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (Tracer::global().enabled()) {
      name_ = name;
      start_us_ = trace_now_us();
    }
  }
  ~ScopedSpan() {
    if (name_ != nullptr) Tracer::global().span(name_, start_us_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;
  std::int64_t start_us_ = 0;
};

}  // namespace drift::obs

/// Wall-clock span covering the rest of the enclosing block.
#define DRIFT_OBS_SPAN(name) \
  ::drift::obs::ScopedSpan DRIFT_OBS_CONCAT(drift_obs_span_, __LINE__)(name)
