#!/usr/bin/env python3
"""Builds and runs the Drift host-cost benchmark.

    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --workload paper_sim --seed 17 --trace 1

Run from the repository root.  The first call configures and builds
perfbench/ (the repository's libraries plus drift_perfbench) into
.bench_build/perfbench; later calls only re-make it.  The binary runs
with DRIFT_NUM_THREADS=2.  Build output goes to stderr, so the last
stdout line is the binary's JSON result.  `--workload all` runs every
workload in turn.  See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "drift_perfbench")
WORKLOADS = ("paper_sim", "proxy_accuracy", "serve_poisson")
THREADS = "2"
# Longest one workload run may take before it is stopped.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds drift_perfbench; True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(os.cpu_count() or 1, 4))
    steps.append(["cmake", "--build", BUILD, "--target", "drift_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def run_binary(workload, seed, seconds, trace):
    """Runs one workload, its output going straight to ours; returns the
    exit code."""
    env = dict(os.environ, DRIFT_NUM_THREADS=THREADS)
    cmd = [BINARY, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%d" % seconds, "--trace=%d" % trace]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not build():
        return 1

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        code = run_binary(name, args.seed, args.seconds, args.trace)
        if code != 0:
            print("perfbench: %s exited with %d" % (name, code),
                  file=sys.stderr)
            return code if code > 0 else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
