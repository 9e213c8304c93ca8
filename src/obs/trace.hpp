// Scoped-span tracer emitting Chrome trace_event JSON.
//
// Two time domains share one trace file, on separate pids so
// chrome://tracing (or Perfetto) renders them as separate process
// groups:
//
//   pid 0 — *host wall clock*: DRIFT_OBS_SPAN scopes (B/E pairs) from
//           the real pipeline and thread-pool workers, microsecond
//           timestamps from a monotonic clock.
//   pid 1 — *simulated cycles*: complete (X) events whose timestamps
//           are model cycles (1 cycle == 1 "µs"), emitted by the
//           accelerator timeline so the double-buffered DRAM/compute
//           schedule is inspectable on the same timeline UI.
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

/// One trace_event entry.  `dur` is only meaningful for ph == 'X'.
struct TraceEvent {
  std::string name;
  const char* category = "drift";
  char ph = 'B';  ///< 'B' begin, 'E' end, 'X' complete, 'i' instant
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

  /// Records a begin/end pair on the calling thread's wall-clock track.
  void begin(const char* name);
  void end(const char* name);

  /// Records a complete (X) event with explicit simulated timestamps
  /// on the given pid-1 track (see sim_track).
  void complete(const std::string& name, std::uint32_t tid, std::int64_t ts,
                std::int64_t dur);

  /// Stable tid for a named simulated track (created on first use).
  std::uint32_t sim_track(const std::string& name);

  /// Serializes every buffered event as Chrome trace JSON (one event
  /// per line, thread buffers in registration order) and returns it.
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

/// RAII wall-clock span.  The end event is emitted iff the begin was
/// (tracer toggled mid-span still yields balanced B/E pairs).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (Tracer::global().enabled()) {
      name_ = name;
      Tracer::global().begin(name);
    }
  }
  ~ScopedSpan() {
    if (name_ != nullptr) Tracer::global().end(name_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;
};

}  // namespace drift::obs

/// Wall-clock span covering the rest of the enclosing block.
#define DRIFT_OBS_SPAN(name) \
  ::drift::obs::ScopedSpan DRIFT_OBS_CONCAT(drift_obs_span_, __LINE__)(name)
