// drift_report: run-analysis and regression-gating CLI over the
// observability artifacts (see DESIGN.md "Run analysis & regression
// gating").  All logic lives in cli.cpp / analysis.cpp so tests drive
// it in-process; this file only adapts argv and stdio.
#include <cstdio>
#include <string>

#include "cli.hpp"

int main(int argc, char** argv) {
  std::string out, err;
  const int code =
      drift::report::run_cli(drift::Args::parse(argc, argv), out, err);
  std::fputs(out.c_str(), stdout);
  std::fputs(err.c_str(), stderr);
  return code;
}
