#!/usr/bin/env python3
"""Regenerate the simulated-statistics reference table in perfbench/README.md.

    python3 perfbench/reference.py

Runs every workload once at seed 1 with tracing on and writes the
deterministic simulated statistics it prints (signatures, simulated
times, tier and PCIe bytes, the sim.* telemetry counters) between the
reference markers of the README. Run it in a change that moves the
model on purpose; in any other change the table must not move.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "perfbench" / "README.md"
BEGIN, END = "<!-- reference:begin -->", "<!-- reference:end -->"
# Telemetry counters worth a row; per-cell lines stay in the run output.
TRACED = ("trace.sim.", "trace.nvm.observed_", "trace.machine.pcie",
          "trace.pool.crash")


def sim_lines(workload):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = out.stdout.splitlines()
    if out.returncode or not json.loads(lines[-1])["correct"]:
        sys.exit(f"reference: {workload} did not run cleanly")
    rows = []
    for line in lines:
        if not line.startswith("sim "):
            continue
        _, key, value = line.split(" ", 2)
        if key.startswith("cell."):
            continue
        if key.startswith("trace.") and not key.startswith(TRACED):
            continue
        rows.append((key, value))
    return rows


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = ["| workload | statistic | value at seed 1 |", "|---|---|---|"]
    for w in spec["workloads"]:
        for key, value in sim_lines(w["name"]):
            table.append(f"| {w['name']} | `{key}` | `{value}` |")
    text = README.read_text()
    head, rest = text.split(BEGIN, 1)
    _, tail = rest.split(END, 1)
    README.write_text(head + BEGIN + "\n" + "\n".join(table) + "\n" + END +
                      tail)
    print(f"reference: wrote {len(table) - 2} rows to {README}")


if __name__ == "__main__":
    main()
