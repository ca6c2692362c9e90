#!/usr/bin/env python3
"""wimesh benchmark entry point.

    python3 perfbench/run.py --workload city-tdma|dcf-fading|admit-knee \
        --seed N --seconds S --trace 0|1

Run from the root of a wimesh checkout. Builds the benchmark program
(wimesh_perf) from the checkout's sources (Release, into $CARGO_TARGET_DIR
or .bench_build),
runs one workload (untraced: two launches, best value kept), and prints the
result as the last line of standard output: one JSON object with
`correct`, `attempted`, `failed` and `metrics`. Untraced runs print the
end-to-end metrics, traced runs the per-layer metrics, each by name with
its unit, exactly as BENCHMARK.json lists them.

Exits non-zero, without a result line, when the checkout has no wimesh
sources or the build fails; exits non-zero after the result line when an
output check failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("city-tdma", "dcf-fading", "admit-knee")
# An untraced run launches wimesh_perf this many times, each for an equal
# share of --seconds, and keeps each end-to-end metric's best value. On a
# shared host one process can run every timed operation a fifth to a third
# slower than the next one does, from where its memory landed; the best of
# two launches reports the program rather than that placement.
LAUNCHES = 2
# A run must finish well inside the 180 s a caller allows it.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--tiny", action="store_true",
                   help="self-test size: same code paths, small inputs")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 3600:
        p.error("--seconds must be in [1, 3600]")
    return args


def build():
    """Configures and builds wimesh_perf; returns the binary's path."""
    for needed in ("src/core/mesh_network.cpp",
                   "include/wimesh/core/mesh_network.h"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"no wimesh sources here ({needed} is missing)")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build step timed out: {' '.join(cmd)}")
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-8000:])
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "wimesh_perf")


def declared_metrics(trace):
    """The metric entries BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return spec["per_layer"] if trace == "1" else spec["end_to_end"]


def launch(binary, args, seconds, timeout):
    """Runs wimesh_perf once; returns its result object and exit code."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", args.trace]
    if args.tiny:
        cmd.append("--tiny")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {timeout} s")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"wimesh_perf printed no result (exit code {done.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"wimesh_perf's last line is not JSON: {lines[-1][:200]}")
    for line in lines[:-1]:
        print(line)
    return result, done.returncode


def best_of(results, declared):
    """Merges launches: every check must hold, counts add up, and each
    metric keeps its best value in the direction BENCHMARK.json gives."""
    higher = {m["name"] for m in declared or [] if m["better"] == "higher"}
    merged = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }
    for name, metric in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        best = max(values) if name in higher else min(values)
        merged["metrics"][name] = {"value": best, "unit": metric["unit"]}
    return merged


def main(argv):
    args = parse_args(argv)
    binary = build()
    declared = declared_metrics(args.trace)
    launches = LAUNCHES if args.trace == "0" else 1
    runs = [launch(binary, args, max(1, args.seconds // launches),
                   RUN_TIMEOUT_S // launches)
            for _ in range(launches)]
    result = best_of([r for r, _ in runs], declared)
    exit_ok = all(code == 0 for _, code in runs)

    if declared is not None:
        declared = [(m["name"], m["unit"]) for m in declared]
        printed = [(k, v["unit"]) for k, v in result["metrics"].items()]
        if printed != declared:
            missing = sorted(set(declared) - set(printed))
            extra = sorted(set(printed) - set(declared))
            print(f"run.py: metrics differ from BENCHMARK.json: missing "
                  f"{missing}, undeclared {extra}", file=sys.stderr)
            result["correct"] = False
    print(json.dumps(result))
    return 0 if result["correct"] and exit_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
