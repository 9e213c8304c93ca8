// Shared --metrics-out / --trace-out handling for the examples, the
// bench binaries and the drivers, so every CLI exposes the same
// artifact surface.
//
// Usage in a main(), after every other flag has been read and checked:
//   const auto artifacts = obs::ReportOptions::from_args(args, "--x, --y");
//   if (!artifacts) return 2;      // unknown flag: nothing armed or written
//   ... run the pipeline ...
//   return artifacts->write() ? 0 : 1;  // emits the files
//
// Accepting a request also arms an atexit flush: if the binary exits
// (normally or via exit()) before the explicit write() call — a thrown
// DRIFT_CHECK, an early return, a failed example run — the requested
// artifacts are still written from whatever the registry and tracer
// hold at that point, so a crashed run leaves a partial artifact for
// drift_report triage.  Signal kills (SIGKILL/SIGSEGV) and abort()
// still lose the tail: atexit handlers do not run there.
#pragma once

#include <optional>
#include <string>

namespace drift {
class Args;
}  // namespace drift

namespace drift::obs {

/// Where (if anywhere) to write the scraped metrics and Chrome trace.
struct ReportOptions {
  std::string metrics_path;  ///< --metrics-out; empty means "don't".
  std::string trace_path;    ///< --trace-out; empty means "don't".

  /// Reads --metrics-out and --trace-out from `args`, then rejects
  /// every flag nothing queried (Args::reject_unqueried, naming
  /// `accepted` — the caller's other flags — and the two artifact
  /// flags).  Call it after every other flag was read and checked, so
  /// a usage error arms nothing and writes no artifact: on an unknown
  /// flag it returns nullopt and the caller exits 2.  Otherwise, when
  /// a trace was requested, turns span collection on for the whole run
  /// and arms the atexit flush (see header comment).
  static std::optional<ReportOptions> from_args(
      const Args& args, const std::string& accepted = "");

  /// Writes the requested artifacts (canonical metrics JSON, Chrome
  /// trace JSON) and disarms the atexit flush.  Returns false if any
  /// requested write failed.
  bool write() const;
};

}  // namespace drift::obs
