#!/usr/bin/env python3
"""Steadiness check: run each workload on ten seeds and report, per
end-to-end metric, the median and the spread (distance between the first
and third quartile, as `statistics.quantiles(values, n=4)` gives them, as
a share of the median) next to the metric's bound. A metric is steady
when its spread is at most a third of its bound.

    python3 perfbench/spread.py
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        values = {name: [] for name in bounds}
        for seed in range(1, RUNS + 1):
            done = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "{}"
            result = json.loads(last)
            if done.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: failed ({done.returncode})\n{done.stderr[-2000:]}")
                steady = False
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {RUNS} runs")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = spread <= bounds[name] / 3
            steady &= ok
            print(f"  {name:18s} median {med:12.4f}  spread {spread:6.3f}  "
                  f"bound {bounds[name]:.2f}  {'ok' if ok else 'WIDE'}", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
