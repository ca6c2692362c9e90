#!/usr/bin/env python3
"""Tiny-size self-test of the wimesh benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json through perfbench/run.py at self-test
size (--tiny), untraced and traced, and checks that

  * each run exits 0 and reports correct = true with attempted >= 1;
  * each run prints every metric BENCHMARK.json names for its mode, in
    order, with the declared unit, and nothing else;
  * end-to-end metrics are positive numbers;
  * the deterministic counts of a traced run repeat exactly when the run is
    repeated with the same seed.

Exits 1 on the first workload that fails, after printing why.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer counts that must be identical for a fixed seed.
DETERMINISTIC = (
    "des.events", "wifi.frames", "wifi.corrupted", "mac.drops",
    "tdma.records", "sync.records", "radio.records", "ilp.bnb_nodes",
    "lp.pivots", "sched.conflict_edges", "zones.border_links",
    "zones.relocated", "admit.fast_rejects", "admit.repairs",
    "admit.full_solves", "guaranteed_loss", "bound_violation_share",
    "blocking",
)


def run(workload, trace, seed=7):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_metrics(result, declared, positive):
    got = [(k, v["unit"]) for k, v in result["metrics"].items()]
    want = [(m["name"], m["unit"]) for m in declared]
    if got != want:
        raise AssertionError(f"metrics {got} != declared {want}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{name} is not a number")
        if positive and not m["value"] > 0:
            raise AssertionError(f"{name} = {m['value']} is not positive")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        try:
            plain = run(name, 0)
            if not plain["correct"] or plain["attempted"] < 1:
                raise AssertionError(f"untraced run: {plain}")
            check_metrics(plain, spec["end_to_end"], positive=True)
            traced = run(name, 1)
            again = run(name, 1)
            for r in (traced, again):
                if not r["correct"] or r["attempted"] < 1:
                    raise AssertionError(f"traced run: {r}")
                check_metrics(r, spec["per_layer"], positive=False)
            for key in DETERMINISTIC:
                a = traced["metrics"][key]["value"]
                b = again["metrics"][key]["value"]
                if a != b:
                    raise AssertionError(f"{key} differs between runs: {a} vs {b}")
        except AssertionError as e:
            print(f"FAIL {name}: {e}")
            return 1
        print(f"ok   {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
