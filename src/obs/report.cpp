#include "obs/report.hpp"

#include <cstdlib>
#include <cstring>
#include <mutex>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/args.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace drift::obs {
namespace {

// State behind the atexit flush.  The handler itself is registered at
// most once per process; what it flushes is whatever request was armed
// most recently and not yet written.  Guarded by a mutex because the
// bench binaries parse flags before spawning worker threads but the
// registry makes no such promise in general.
struct FlushState {
  std::mutex mu;
  bool handler_registered = false;
  bool armed = false;
  ReportOptions pending;
};

FlushState& flush_state() {
  static FlushState state;
  return state;
}

void flush_at_exit() {
  FlushState& state = flush_state();
  ReportOptions pending;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    if (!state.armed) return;
    state.armed = false;
    pending = state.pending;
  }
  DRIFT_LOG_WARN("obs") << "process exiting before artifacts were "
                           "written; flushing partial run data";
  pending.write();
}

void arm_flush(const ReportOptions& opts) {
  if (opts.metrics_path.empty() && opts.trace_path.empty()) return;
  FlushState& state = flush_state();
  std::lock_guard<std::mutex> lock(state.mu);
  state.pending = opts;
  state.armed = true;
  if (!state.handler_registered) {
    state.handler_registered = true;
    // Exit destroys a function-local static built after this
    // registration before the handler runs, so build every singleton
    // the handler reads first.
    (void)Registry::global();
    (void)Tracer::global();
    (void)util::ThreadPool::instance();
    std::atexit(flush_at_exit);
  }
}

void disarm_flush() {
  FlushState& state = flush_state();
  std::lock_guard<std::mutex> lock(state.mu);
  state.armed = false;
}

void warn_if_obs_off(const ReportOptions& opts) {
  if (!opts.trace_path.empty()) {
    Tracer::global().set_enabled(true);
#ifdef DRIFT_OBS_OFF
    DRIFT_LOG_WARN("obs") << "--trace-out requested but this binary was "
                             "built with DRIFT_OBS_OFF; the trace will "
                             "be empty";
#endif
  }
}

}  // namespace

std::optional<ReportOptions> ReportOptions::from_args(
    const Args& args, const std::string& accepted) {
  ReportOptions opts;
  opts.metrics_path = args.get_string("metrics-out", "");
  opts.trace_path = args.get_string("trace-out", "");
  const std::string artifact_flags = "--metrics-out, --trace-out";
  if (args.reject_unqueried(accepted.empty()
                                ? artifact_flags
                                : accepted + ", " + artifact_flags)) {
    return std::nullopt;
  }
  warn_if_obs_off(opts);
  arm_flush(opts);
  return opts;
}

ReportOptions ReportOptions::consume_argv(int& argc, char** argv) {
  ReportOptions opts;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string* target = nullptr;
    const char* flag = nullptr;
    if (std::strncmp(arg, "--metrics-out", 13) == 0) {
      target = &opts.metrics_path;
      flag = arg + 13;
    } else if (std::strncmp(arg, "--trace-out", 11) == 0) {
      target = &opts.trace_path;
      flag = arg + 11;
    }
    if (target != nullptr && flag[0] == '=') {
      *target = flag + 1;
      continue;
    }
    if (target != nullptr && flag[0] == '\0') {
      if (i + 1 < argc) {
        *target = argv[++i];
      }
      continue;
    }
    argv[kept++] = argv[i];
  }
  argc = kept;
  argv[argc] = nullptr;
  warn_if_obs_off(opts);
  arm_flush(opts);
  return opts;
}

bool ReportOptions::write() const {
  disarm_flush();
  bool ok = true;
  if (!metrics_path.empty()) {
    if (write_file(metrics_path, Registry::global().to_json())) {
      DRIFT_LOG_INFO("obs") << "metrics written to " << metrics_path;
    } else {
      ok = false;
    }
  }
  if (!trace_path.empty()) {
    if (Tracer::global().write_chrome_trace(trace_path)) {
      DRIFT_LOG_INFO("obs") << "trace written to " << trace_path;
    } else {
      ok = false;
    }
  }
  return ok;
}

}  // namespace drift::obs
