"""Check that the benchmark repeats: two sets of runs of the same code.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 5
    python3 perfbench/steady.py --runs 5 --workloads serve_mix --seconds 25

Runs every workload ``--runs`` times per set, each run on its own seed, and
prints per workload x end-to-end metric each set's median and quartiles,
the spread of all runs (interquartile distance over median, as
``statistics.quantiles(values, n=4)`` gives the quartiles), and whether the
second set's median is within the metric's bound of the first.  Bounds come
from BENCHMARK.json.  Exits 1 if any spread exceeds its bound (``setup_s``
excepted) or any pair of medians disagrees, or the share of failed
operations differs between the sets.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set (two sets)")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    results = {w: ([], []) for w in workloads}
    for index in range(2 * args.runs):
        which = index // args.runs
        for workload in workloads:
            # Seeds differ between runs and between sets.
            result = one_run(workload, 1000 * (which + 1) + index, args.seconds)
            results[workload][which].append(result)
            print(f"set {which + 1} {workload} seed {1000 * (which + 1) + index}: "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
    ok = True
    for workload in workloads:
        first, second = results[workload]
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in (first, second)]
        print(f"\n{workload}: failed share {shares[0]:.4f} / {shares[1]:.4f}")
        ok &= shares[0] == shares[1]
        print(f"  {'metric':16s} {'set1 q1/med/q3':>30s} {'set2 q1/med/q3':>30s} {'spread':>7s} {'bound':>6s}  verdict")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in first]
            b = [r["metrics"][name]["value"] for r in second]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            all_spread = spread(a + b)
            agree = worse <= bound
            steady = name == "setup_s" or all_spread <= bound
            ok &= agree and steady
            cells = []
            for values in (a, b):
                q1, _, q3 = statistics.quantiles(values, n=4)
                cells.append(f"{q1:9.4g}/{statistics.median(values):9.4g}/{q3:9.4g}")
            verdict = ("agree" if agree else f"DISAGREE ({worse:+.1%})") + ("" if steady else ", SPREAD OVER BOUND")
            print(f"  {name:16s} {cells[0]:>30s} {cells[1]:>30s} {all_spread:7.3f} {bound:6.2f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
