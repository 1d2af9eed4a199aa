"""Self-test of the benchmark harness at tiny sizes (about ten seconds).

    python3 bench/selftest.py

Checks that
* every workload, traced and untraced, emits exactly the metrics that
  ``BENCHMARK.json`` lists, each with its unit and a finite value, and that
  the tiny outputs pass every check except the known defects;
* a corrupted copy of every output table fails its check;
* the benchmark refuses to run, printing no result, in a directory that
  holds only ``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS thread count before numpy loads
import checks
import workloads

def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_metrics() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run.run(workload, seed=0, seconds=0.0, trace=bool(trace), tiny=True)["result"]
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload}: result keys {sorted(result)}")
            expect(result["correct"] is True and result["attempted"] >= 1,
                   f"{workload} trace={trace}: tiny run not correct: {result}")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{workload} trace={trace}: metrics {got} != {want}")
            expect(all(math.isfinite(m["value"]) for m in result["metrics"].values()),
                   f"{workload} trace={trace}: non-finite metric")


def corrupt(payload: bytes, fmt: str) -> bytes:
    """Add 0.25 to the last column of the middle row."""
    if fmt == "json":
        doc = json.loads(payload)
        doc["rows"][len(doc["rows"]) // 2][-1] += 0.25
        return json.dumps(doc).encode()
    lines = payload.decode().splitlines()
    body = [k for k, line in enumerate(lines) if not line.startswith("#")][1:]
    row = lines[body[len(body) // 2]].split(",")
    row[-1] = repr(float(row[-1]) + 0.25)
    lines[body[len(body) // 2]] = ",".join(row)
    return ("\n".join(lines) + "\n").encode()


def check_corruption() -> None:
    cli = run.import_cqed()["cli"]
    run.WORK.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        for workload in workloads.WORKLOADS:
            runner = run.Runner(cli, workloads.build(workload, 0, tiny=True), outdir)
            runner.run_pass()
            for inv, params, path in zip(runner.invocations, runner.params, runner.paths):
                payload = Path(path).read_bytes()
                clean = set(checks.check_table(inv.command, params, payload, inv.fmt))
                expect(not clean - checks.KNOWN_DEFECTS, f"{inv.command}: clean output fails {clean}")
                bad = set(checks.check_table(inv.command, params, corrupt(payload, inv.fmt), inv.fmt))
                expect(bad - clean, f"{inv.command}: corrupted copy passes its checks")
            runner.check_pass()
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def check_bare_directory() -> None:
    """Only BENCHMARK.json and bench/: the run must fail without a result."""
    run.WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        here = Path(__file__).resolve().parent
        shutil.copytree(here, bare / here.name, ignore=shutil.ignore_patterns(".out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{here.name}/run.py", "--workload", "spectra", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_metrics()
    check_corruption()
    check_bare_directory()
    shutil.rmtree(run.WORK, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
