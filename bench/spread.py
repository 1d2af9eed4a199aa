"""Run-to-run spread of the end-to-end metrics, as evidence of steadiness.

    python3 bench/spread.py

Runs the benchmark command of ``BENCHMARK.json`` with seeds 1 to 10 on
every workload, one run at a time, and prints for each end-to-end metric
the median, the quartiles and the spread (interquartile distance over the
median) next to the metric's bound.  A steady metric spreads by less than
a third of its bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in SEEDS:
            proc = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True, timeout=180,
            )
            report, result = proc.stdout.splitlines()[-2:]
            result = json.loads(result)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(workload, seed, report, json.dumps(result), flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            print(f"{workload:10s} {name:14s} median {statistics.median(vals):.6g} "
                  f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f} bound {bounds[name]} "
                  f"{'steady' if spread < bounds[name] / 3 else 'NOT steady'}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
