"""The benchmark harness still runs against the package.

``bench/tracing.py`` wraps `cqed` functions by name and ``bench/checks.py``
reads the tables, so a rename or an output change in the package can break
the harness while every other test passes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout


#: One traced tiny pass each of ``ensembles`` and ``dynamics``, run from
#: ``bench/`` so that its modules and BLAS settings stay out of this process.
HOOK_PASS = """
import json, tempfile
from pathlib import Path
import run, tracing, workloads
modules = run.import_cqed()
out = {}
with tempfile.TemporaryDirectory() as tmp:
    for workload in ("ensembles", "dynamics"):
        runner = run.Runner(modules["cli"], workloads.build(workload, 0, tiny=True), Path(tmp))
        tracer = tracing.Tracer()
        tracer.install(modules)
        try:
            runner.run_pass(tracer)
        finally:
            tracer.remove()
        out[workload] = {"codes": runner.codes, **tracer.counters}
print(json.dumps(out))
"""


def test_tracing_hooks_read_the_work_from_call_arguments():
    # The hooks read ramsey_ensemble's trials (args[4]) and noise (args[1].sigma),
    # t1_curves's mc dict and two_island_dynamics's steps (args[3]): a reordered
    # signature would change these counts, or crash the pass, and nothing else.
    proc = subprocess.run([sys.executable, "-c", HOOK_PASS], cwd=ROOT / "bench",
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    counters = json.loads(proc.stdout)
    assert counters["ensembles"]["codes"] == [0, 0, 0]
    assert counters["dynamics"]["codes"] == [0] * 6
    # 1000 trials in each of the tiny pass's dephase, decay and dephase runs
    assert counters["ensembles"]["trajectories"] == 3000
    # the tiny tunnel-ode run: 20000 // 20 steps
    assert counters["dynamics"]["rk4_steps"] == 1000


@pytest.mark.parametrize("workload", ["spectra", "ensembles", "dynamics"])
def test_one_full_size_pass_is_correct(workload):
    # The selftest's passes are tiny: spectrum at ncut 6 on 21 gate charges,
    # decay with 1000 trials, tunnel-ode with 1000 steps.  Full size, spectra
    # holds ncut 24 on 401 gate charges and the default transmon ratios to
    # LAPACK, ensembles the first-jump counts of 20 000 trials to the 5-sigma
    # decay check, and dynamics 20 000 tunnel-ode steps to their
    # n_total_conserved bound.
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
