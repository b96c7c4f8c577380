#!/usr/bin/env python3
"""Compares a traced e2ebench run's work counters with BENCH_e2e.json.

Usage:
    e2ebench --workload W --seed 1 --seconds 1 --trace 1 \\
        | python3 scripts/check_counters.py W [BENCH_e2e.json]

Reads the run's result line (the last non-empty stdin line) and checks
that every metric with unit `count` or `bytes` equals the value pinned
for workload W under `traced_counters` in the bench file. Wall-clock
metrics are not compared. Exits 1 on any difference, naming each moved
counter; a change that moves one on purpose updates the file and says
why in CHANGES.md. The analysis workloads' counters hold at any
`--seconds`; serve-mixed's scale with the run length, so its pin is for
`--seconds 1`.
"""

import json
import sys
from pathlib import Path

GATED_UNITS = ("count", "bytes")


def main() -> int:
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    workload = sys.argv[1]
    bench = Path(sys.argv[2]) if len(sys.argv) == 3 else Path(__file__).parent.parent / "BENCH_e2e.json"
    pinned = json.loads(bench.read_text())["traced_counters"].get(workload)
    if pinned is None:
        print(f"{bench}: no traced counters pinned for {workload}", file=sys.stderr)
        return 1
    lines = [line for line in sys.stdin.read().splitlines() if line.strip()]
    if not lines:
        print("no result line on stdin", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if result.get("correct") is not True or result.get("failed") != 0:
        print(f"{workload}: run not correct: {lines[-1]}", file=sys.stderr)
        return 1
    measured = {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] in GATED_UNITS
    }
    problems = []
    for name in sorted(set(pinned) | set(measured)):
        want, got = pinned.get(name), measured.get(name)
        if want != got:
            problems.append(f"  {name}: pinned {want}, measured {got}")
    if problems:
        print(f"{workload}: {len(problems)} counter(s) moved:", file=sys.stderr)
        print("\n".join(problems), file=sys.stderr)
        return 1
    print(f"{workload}: all {len(measured)} counters match {bench.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
