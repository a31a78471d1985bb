#!/usr/bin/env python3
"""Steadiness check: run each workload k times and compare spreads to bounds.

    python3 perfbench/steady.py [--runs 10] [--sets 1|2]

Every workload of BENCHMARK.json runs --runs times at its run_seconds,
on seeds 1, 2, ..., --runs. For every end-to-end metric the script
prints the median, the first and third quartiles and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json.
A spread over the bound fails the check; one over a third of the
bound is flagged, since that is the margin a steady benchmark keeps.
With --sets 2 the runs repeat on the same seeds and the script also
prints how far the second median moved against the first, in the
metric's worse direction. The share of failed operations is printed per
set; it must be identical in every set.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds",
           str(SPEC["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if out.returncode:
        sys.exit(f"steady: {workload} seed {seed} failed ({out.returncode})")
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"steady: {workload} seed {seed} reported correct=false")
    return result


def worse_shift(metric, first, second):
    """How much worse the second median is, as a share of the first."""
    if metric["better"] == "lower":
        return (second - first) / first
    return (first - second) / first


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    steady = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        medians = []
        for s in range(args.sets):
            results = [run_once(workload, seed)
                       for seed in range(1, args.runs + 1)]
            share = {r["failed"] / r["attempted"] for r in results}
            print(f"{workload} set {s + 1}: {args.runs} runs, failed share "
                  f"{sorted(share)}")
            if len(share) != 1:
                steady = False
            set_medians = {}
            for m in SPEC["end_to_end"]:
                values = [r["metrics"][m["name"]]["value"] for r in results]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                set_medians[m["name"]] = med
                flag = ""
                if spread > m["bound"]:
                    flag, steady = "OVER BOUND", False
                elif spread > m["bound"] / 3:
                    flag = "over a third of the bound"
                print(f"  {m['name']:<20} median {med:12.6g} {m['unit']:<4} "
                      f"Q1 {q1:12.6g} Q3 {q3:12.6g} spread {spread:7.2%} "
                      f"bound {m['bound']:.0%} {flag}")
            medians.append(set_medians)
        if args.sets == 2:
            for m in SPEC["end_to_end"]:
                shift = worse_shift(m, medians[0][m["name"]],
                                    medians[1][m["name"]])
                flag = "OVER BOUND" if shift > m["bound"] else ""
                steady = steady and not flag
                print(f"  {m['name']:<20} second median worse by "
                      f"{shift:+7.2%} (bound {m['bound']:.0%}) {flag}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
