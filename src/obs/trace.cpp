#include "obs/trace.hpp"

#include <chrono>
#include <utility>

#include "obs/metrics.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"

namespace drift::obs {

std::int64_t trace_now_us() {
  // drift-lint: allow(random) — observability timestamps annotate trace
  // spans only; no simulation or selection decision ever reads them.
  static const auto origin = std::chrono::steady_clock::now();
  // drift-lint: allow(random) — same: wall-clock span bounds feed the
  // Chrome trace artifact, never any computed result.
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(now - origin)
      .count();
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuffer& Tracer::this_thread_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer;
  // A new thread registers its buffer once; the tracer keeps a shared
  // reference so events survive thread exit until serialization.
  if (!buffer) {
    buffer = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(mutex_);
    buffer->tid = next_tid_++;
    buffers_.push_back(buffer);
  }
  return *buffer;
}

void Tracer::span(const char* name, std::int64_t start_us) {
  const std::int64_t end_us = trace_now_us();
  ThreadBuffer& buf = this_thread_buffer();
  std::lock_guard<std::mutex> lock(buf.mutex);
  buf.events.push_back(
      TraceEvent{name, "drift", start_us, end_us - start_us, 0, buf.tid});
}

void Tracer::complete(const std::string& name, std::uint32_t tid,
                      std::int64_t ts, std::int64_t dur) {
  if (!enabled()) return;
  DRIFT_CHECK(dur >= 0, "complete event duration must be non-negative");
  ThreadBuffer& buf = this_thread_buffer();
  std::lock_guard<std::mutex> lock(buf.mutex);
  buf.events.push_back(TraceEvent{name, "sim", ts, dur, 1, tid});
}

std::uint32_t Tracer::sim_track(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [existing, tid] : sim_tracks_) {
    if (existing == name) return tid;
  }
  sim_tracks_.emplace_back(name, next_sim_tid_);
  return next_sim_tid_++;
}

namespace {

JsonValue event_json(const TraceEvent& e) {
  JsonObject out;
  out["name"] = JsonValue(e.name);
  out["cat"] = JsonValue(std::string(e.category));
  out["ph"] = JsonValue(std::string("X"));
  out["ts"] = JsonValue(e.ts);
  out["dur"] = JsonValue(e.dur);
  out["pid"] = JsonValue(std::int64_t{e.pid});
  out["tid"] = JsonValue(std::int64_t{e.tid});
  return JsonValue(std::move(out));
}

/// Metadata event naming simulated track `tid` in the trace UI.
JsonValue track_name_json(const std::string& name, std::uint32_t tid) {
  JsonObject args;
  args["name"] = JsonValue(name);
  JsonObject out;
  out["name"] = JsonValue(std::string("thread_name"));
  out["ph"] = JsonValue(std::string("M"));
  out["pid"] = JsonValue(std::int64_t{1});
  out["tid"] = JsonValue(std::int64_t{tid});
  out["args"] = JsonValue(std::move(args));
  return JsonValue(std::move(out));
}

}  // namespace

std::string Tracer::to_chrome_json() const {
  // Snapshot the buffer list, then serialize each buffer under its own
  // lock.  A traced run holds tens of thousands of events, so they
  // stream out one JsonValue at a time instead of as one document.
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::vector<std::pair<std::string, std::uint32_t>> tracks;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers = buffers_;
    tracks = sim_tracks_;
  }
  CanonicalArrayStream out("traceEvents");
  for (const auto& [name, tid] : tracks) out.add(track_name_json(name, tid));
  for (const auto& buf : buffers) {
    std::lock_guard<std::mutex> lock(buf->mutex);
    for (const TraceEvent& e : buf->events) out.add(event_json(e));
  }
  return out.finish();
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  return write_file(path, to_chrome_json());
}

void Tracer::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> buf_lock(buf->mutex);
    buf->events.clear();
  }
  sim_tracks_.clear();
  next_sim_tid_ = 0;
}

}  // namespace drift::obs
