"""Run-to-run spread of the end-to-end metrics, in two sets of runs.

    python3 perfbench/steadiness.py

Runs the benchmark once per (set, seed, workload) for SEEDS in each of
SETS sets, alternating the workloads within each seed rather than running
each in a block, so a drift in the host's speed reaches every workload
alike.  Prints every run's metrics, then per workload and metric: each
set's median and spread (the distance between the first and third quartile
as a share of the median), and how much worse the last set's median is
than the first's, next to the metric's bound from BENCHMARK.json.
steadiness_results.txt holds the output of one such run.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
SETS = 2


def worse_by(first: float, last: float, better: str) -> float:
    """How much worse `last` is than `first`, as a share of `first`."""
    return (last - first) / first if better == "lower" else (first - last) / first


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    values = {(s, w, m): [] for s in range(SETS) for w in workloads for m in metrics}
    for s in range(SETS):
        for seed in SEEDS:
            for workload in workloads:
                proc = subprocess.run(
                    [*bench["command"], "--workload", workload, "--seed", str(seed),
                     "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True, check=True)
                result = json.loads(proc.stdout.splitlines()[-1])
                if not result["correct"]:
                    print(proc.stdout, file=sys.stderr)
                    return 1
                for name, metric in result["metrics"].items():
                    values[s, workload, name].append(metric["value"])
                print(f"set {s + 1} seed {seed} {workload}: " + "  ".join(
                    f"{n} {m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
    for workload in workloads:
        for name, metric in metrics.items():
            columns = []
            for s in range(SETS):
                vals = values[s, workload, name]
                q1, _q2, q3 = statistics.quantiles(vals, n=4)
                median = statistics.median(vals)
                columns.append(f"median {median:10.5g} spread {(q3 - q1) / median:7.4f}")
            first = statistics.median(values[0, workload, name])
            last = statistics.median(values[SETS - 1, workload, name])
            print(f"{workload:20s} {name:13s} " + "  ".join(columns)
                  + f"  worse by {worse_by(first, last, metric['better']):+7.4f}"
                  + f"  bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
