// The three drift_report analyses.
//
//   summarize  one run's metrics (+ optional Chrome trace) -> derived
//              report: stall-cycle attribution per layer, the Eq. 7
//              hh/hl/lh/ll quadrant latency breakdown, selector
//              coverage distribution, DRAM bytes/cycle roofline
//              position, histogram quantile tables, host-span (pid 0) stats.
//   diff       two runs -> per-metric relative deltas judged against a
//              noise-aware tolerance file.
//   ratchet    a fresh BENCH_kernels.json -> per-kernel slowdown vs a
//              committed baseline.
//
// All three are pure functions over parsed JSON documents: file IO and
// exit-code policy live in cli.cpp, which keeps every analysis
// unit-testable on in-memory fixtures.  Every analysis must degrade
// gracefully on an empty artifact (a partial flush, or a binary that
// touched no instrumented code, scrapes empty sections) — absent data
// yields absent report sections, never an error.
#pragma once

#include <string>
#include <vector>

#include "util/json.hpp"

namespace drift::report {

/// Derived analysis of one run.  `trace` may be null (no --trace file).
JsonValue summarize(const JsonValue& metrics, const JsonValue* trace);

/// Human-readable rendering of a summarize() report.
std::string summary_text(const JsonValue& report);

struct DiffEntry {
  std::string path;       ///< flattened metric path, e.g. "counters.sim.cycles"
  std::string a, b;       ///< rendered values from each run
  double rel_delta = 0.0; ///< |a-b| / max(|a|,|b|); 0 for non-numeric
  std::string note;       ///< why this entry failed
};

struct DiffResult {
  std::vector<DiffEntry> failures;  ///< out-of-tolerance or missing
  int compared = 0;                 ///< leaves judged against a tolerance
  int ignored = 0;                  ///< leaves skipped by an ignore rule
};

/// Compares two metrics artifacts leaf-by-leaf.  `tolerances` is the
/// parsed tolerance file (null for defaults only):
///
///   {"default_rel_tol": 0.0,
///    "rules": [{"prefix": "counters.sim.", "rel_tol": 0.05},
///              {"contains": "dram", "abs_tol": 64},
///              {"prefix": "histograms.thread_pool.", "ignore": true}]}
///
/// The first matching rule wins; a leaf passes when
/// |a-b| <= abs_tol + rel_tol * max(|a|, |b|).  Two built-in rules run
/// after (so a user rule can override them): paths under "meta." and
/// paths containing "_us" (wall-clock histograms) are ignored —
/// exactly the leaves that legitimately differ between two fixed-seed
/// runs of the same workload.  Returns false on a malformed tolerance
/// file, with `error` set.
bool diff_runs(const JsonValue& a, const JsonValue& b,
               const JsonValue* tolerances, DiffResult& result,
               std::string& error);

struct RatchetEntry {
  std::string key;        ///< "name|shape|threads|backend"
  double baseline_ops = 0.0;
  double current_ops = 0.0;
  double slowdown = 0.0;  ///< baseline_ops / current_ops; >1 = slower
};

struct RatchetResult {
  std::vector<RatchetEntry> checked;   ///< every kernel present in both
  std::vector<RatchetEntry> failures;  ///< slowdown > max_slowdown
  std::vector<std::string> missing;    ///< in baseline, absent from run
  std::vector<std::string> untracked;  ///< in run, absent from baseline
};

/// Gates `current` (a fresh BENCH_kernels.json) against `baseline`.
/// A kernel fails when baseline ops_per_s exceeds current ops_per_s by
/// more than `max_slowdown`; kernels missing from the current run are
/// failures too (a silently shrunk corpus must not pass), while
/// kernels the baseline doesn't know yet are warn-only.
RatchetResult ratchet(const JsonValue& current, const JsonValue& baseline,
                      double max_slowdown);

}  // namespace drift::report
