"""Benchmark of the `cqed` command line, run in-process as a closed loop.

    python3 bench/run.py --workload spectra --seed 1 --seconds 30 --trace 0

One client drives ``cqed.cli.run_command``: each invocation starts only
after the previous one returns.  A *pass* produces every table of the
workload once (see ``workloads.py``).  After a warm-up pass the run repeats
passes for ``--seconds`` seconds, checks every table against independent
references (``checks.py``) between passes, and prints one JSON report line
followed by the result line, a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of `END_TO_END`.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracing.PER_LAYER``, including the tracing overhead
(median traced pass minus median untraced pass).

The program is imported from ``src/`` next to this directory; without it
the run exits with an error and prints no result.
"""

from __future__ import annotations

import os

#: BLAS threads, pinned before numpy loads so every commit runs the same way.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import ctypes
import glob
import hashlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for the output tables; removed when the run ends.
WORK = Path(__file__).resolve().parent / ".out"

#: End-to-end metrics (name -> unit) reported by an untraced run.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

#: What every shell `cqed` call pays before any work.
SETUP_CODE = "import cqed.cli; cqed.cli.build_parser()"
#: Set-up is timed twice before the first pass and once after every
#: untraced pass, so that its median samples the machine over the whole run.
SETUP_STARTS_FIRST = 2


def import_cqed() -> dict:
    """The `cqed` layer modules, imported from ``src/`` and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        modules = {name: importlib.import_module(f"cqed.{name}") for name in tracing.LAYERS}
    except ImportError as exc:
        raise SystemExit(f"error: cannot import cqed from {SRC}: {exc}") from None
    origin = Path(modules["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"error: cqed was imported from {origin}, not from {SRC}")
    return modules


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def cpu_time(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def time_setup() -> tuple[float, float]:
    """Wall and CPU time of a fresh interpreter that imports the CLI and builds its parser.

    Bytecode caching is on whatever the caller's environment says, as it is
    for an installed `cqed`.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cpu = cpu_time(resource.RUSAGE_CHILDREN)
    start = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    return perf_counter() - start, cpu_time(resource.RUSAGE_CHILDREN) - cpu


class Runner:
    """Runs passes of one workload and checks their outputs."""

    def __init__(self, cli, invocations, outdir: Path):
        self.cli = cli
        self.invocations = invocations
        self.paths = [str(outdir / f"{k}-{inv.command}.{inv.fmt}") for k, inv in enumerate(invocations)]
        self.argvs = [inv.argv(path) for inv, path in zip(invocations, self.paths)]
        self.params = [vars(cli.build_parser().parse_args(argv)) for argv in self.argvs]
        self.outdir = outdir
        self.digests: list[str | None] = [None] * len(invocations)
        self.codes: list = []
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.failed = 0

    def run_pass(self, tracer=None) -> tuple[float, float]:
        """Wall and CPU time of one pass; exit codes are kept for `check_pass`."""
        self.codes = []
        sink = io.StringIO()
        cpu = cpu_time(resource.RUSAGE_SELF)
        start = perf_counter()
        for inv, argv in zip(self.invocations, self.argvs):
            index = tracer.begin(f"cli.{inv.command}") if tracer else None
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = self.cli.run_command(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed invocation, not a harness error
                code = type(exc).__name__
            finally:
                if tracer:
                    tracer.end(index)
            self.codes.append(code)
        return perf_counter() - start, cpu_time(resource.RUSAGE_SELF) - cpu

    def check_pass(self) -> None:
        """Check every table of the last pass, then delete the tables."""
        leftovers = {Path(p).name for p in glob.glob(str(self.outdir / "*.tmp"))}
        for k, (inv, path, code) in enumerate(zip(self.invocations, self.paths, self.codes)):
            failed = []
            if code != 0:
                failed.append(f"{inv.command}:exit_{code}")
            elif not Path(path).is_file():
                failed.append(f"{inv.command}:output_written")
            else:
                payload = Path(path).read_bytes()
                digest = hashlib.sha256(payload).hexdigest()
                if self.digests[k] is None:
                    self.digests[k] = digest
                elif digest != self.digests[k]:
                    failed.append(f"{inv.command}:byte_identical_rerun")
                failed += checks.check_table(inv.command, self.params[k], payload, inv.fmt)
            if Path(path).name + ".tmp" in leftovers:
                failed.append(f"{inv.command}:no_tmp_left")
            for name in failed:
                self.failures[name] = self.failures.get(name, 0) + 1
            self.attempted += 1
            self.failed += bool(failed)
        for path in glob.glob(str(self.outdir / "*")):
            os.unlink(path)

    @property
    def correct(self) -> bool:
        return not set(self.failures) - checks.KNOWN_DEFECTS


def tail_percentile(times: list[float]) -> dict[str, float]:
    """The highest whole percentile above the median with ten passes beyond it."""
    pct = int(100 * (len(times) - 10) / len(times))
    return {f"wall_s.p{pct}": float(np.percentile(times, pct))} if pct > 50 else {}


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    modules = import_cqed()
    WORK.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        runner = Runner(modules["cli"], workloads.build(workload, seed, tiny), outdir)
        report = {"workload": workload, "seed": seed, "trace": int(trace),
                  "env": environment(),
                  "invocations": [" ".join(a[:-2]) for a in runner.argvs]}
        setup = []
        if not trace:
            time_setup()  # fills the bytecode cache
            setup += [time_setup() for _ in range(SETUP_STARTS_FIRST)]
        runner.run_pass()  # warm-up: lazy imports, first-call costs, reference digests
        runner.check_pass()
        plain, plain_cpu, traced, layer_passes = [], [], [], []
        tracer = tracing.Tracer() if trace else None
        start = perf_counter()
        while perf_counter() - start < seconds or not plain or (trace and not traced):
            if trace and len(traced) < len(plain):
                tracer.reset()
                tracer.install(modules)
                try:
                    wall, _ = runner.run_pass(tracer)
                finally:
                    tracer.remove()
                traced.append(wall)
                metrics = tracing.pass_metrics(tracer, wall)
                metrics["linalg.max_err_vs_lapack"] = tracer.max_lapack_error()
                layer_passes.append(metrics)
            else:
                wall, cpu = runner.run_pass()
                plain.append(wall)
                plain_cpu.append(cpu)
                if not trace:
                    setup.append(time_setup())
            runner.check_pass()
        wall_s = statistics.median(plain)
        report.update({
            "passes": len(plain), "pass_s": plain, "wall_s": wall_s,
            "pass_cpu_s": plain_cpu, "cpu_s": statistics.median(plain_cpu),
            **tail_percentile(plain),
            "attempted": runner.attempted, "failed": runner.failed,
            "error_rate": runner.failed / runner.attempted,
            "failed_checks": runner.failures,
            "known_defects": sorted(set(runner.failures) & checks.KNOWN_DEFECTS),
        })
        if trace:
            metrics = {name: statistics.median(p[name] for p in layer_passes)
                       for name in layer_passes[0]}
            metrics["linalg.max_err_vs_lapack"] = max(p["linalg.max_err_vs_lapack"] for p in layer_passes)
            metrics["trace.overhead_s"] = statistics.median(traced) - wall_s
            layers = {name: metrics[f"layer.{name}.s"] for name in tracing.LAYERS}
            report.update({"traced_passes": len(traced), "traced_pass_s": traced,
                           "dominant_layer": max(layers, key=layers.get)})
            units = tracing.PER_LAYER
        else:
            metrics = {
                "setup_s": statistics.median(wall for wall, _ in setup),
                "wall_s": wall_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "success_rate": 1.0 - runner.failed / runner.attempted,
            }
            report["setup_starts_s"] = [wall for wall, _ in setup]
            report["setup_starts_cpu_s"] = [cpu for _, cpu in setup]
            units = END_TO_END
        result = {
            "correct": runner.correct,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                        for name, unit in units.items()},
        }
        return {"report": report, "result": result}
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": out["report"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
