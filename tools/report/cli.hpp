// drift_report command-line front-end, separated from main() so the
// ctest suite can drive the full CLI in-process and assert on exit
// codes and byte-exact output.
//
//   drift_report summarize <metrics.json> [--trace=<trace.json>] [--json]
//   drift_report diff <a.json> <b.json> [--tolerances=<tol.json>] [--json]
//   drift_report ratchet <BENCH_kernels.json> --baseline=<baseline.json>
//                [--max-slowdown=<v>] [--json]
//
// The command line is read through util::Args, like every other
// binary's: a valued flag needs `=` (a value after a space is one file
// too many), --max-slowdown is a finite number > 0, and --json and
// --help are booleans.  A usage error logs why and prints the usage.
//
// Exit codes follow the drift_lint convention: 0 clean, 1 findings
// (out-of-tolerance diff, ratchet regression), 2 usage/IO/parse error.
#pragma once

#include <string>

#include "util/args.hpp"

namespace drift::report {

/// Runs one CLI invocation.  `out` receives what would go to stdout,
/// `err` what would go to stderr; a rejected flag is logged to stderr
/// directly.  Returns the process exit code.
int run_cli(const Args& args, std::string& out, std::string& err);

}  // namespace drift::report
