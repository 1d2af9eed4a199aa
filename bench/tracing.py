"""Spans around calls into the `cqed` modules, recorded from outside.

`Tracer.install` replaces every public function of a `cqed` module in each
module namespace where it is looked up (``cqed.cli`` binds
``charge_dispersion`` at import, ``cqed.chargebox`` binds
``hermitian_eigen_batch``, ...) and ``RngSpec.stream`` on its class.  Each
call becomes a span: name, start, end and parent.  A span's self time is
its duration minus the time its child spans cover; `pass_metrics` turns
one pass's spans into the per-layer metrics of `PER_LAYER`.
"""

from __future__ import annotations

import functools
import inspect
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

import workloads

__all__ = ["LAYERS", "PER_LAYER", "Tracer", "pass_metrics"]

#: The `cqed` modules measured as layers, in dependency order.
LAYERS = ("linalg", "chargebox", "decoherence", "fitting", "junction", "fock",
          "jaynescummings", "qubit", "cli")

#: Every command some workload runs; each gets a ``cli.<command>.s`` metric.
_COMMANDS = sorted({inv.command for name in workloads.WORKLOADS for inv in workloads.build(name, 0)})

#: Called by the harness itself, which opens the ``cli.<command>`` span.
_NOT_WRAPPED = {"main", "run_command"}

#: Per-layer metrics (name -> unit) reported by a traced run.
PER_LAYER = {
    "linalg.eigen_batch.s": "s",
    "linalg.eigen_batch.calls": "count",
    "linalg.eigen_batch.matrices": "count",
    "linalg.eigen_batch.bytes_computed": "bytes",
    "linalg.eigen.calls": "count",
    "linalg.evolve.s": "s",
    "linalg.max_err_vs_lapack": "energy",
    "chargebox.charge_dispersion.s": "s",
    "chargebox.spectrum_sweep.s": "s",
    "decoherence.ramsey_ensemble.s": "s",
    "decoherence.t1_curves.s": "s",
    "decoherence.stream.s": "s",
    "decoherence.stream.calls": "count",
    "decoherence.trajectories": "count",
    "decoherence.trajectories_per_s": "1/s",
    "fitting.s": "s",
    "junction.two_island_dynamics.s": "s",
    "junction.rk4_steps_per_s": "1/s",
    "junction.potential.s": "s",
    "fock.coherent_ket.s": "s",
    "fock.quad_stats.s": "s",
    "jaynescummings.vacuum_rabi.s": "s",
    "qubit.trace.s": "s",
    "cli.parse_s": "s",
    "cli.write_table_s": "s",
    "cli.bytes_out": "bytes",
    "cli.rows_out": "count",
    **{f"cli.{command}.s": "s" for command in _COMMANDS},
    **{f"layer.{layer}.s": "s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.uncovered_s": "s",
    "trace.overhead_s": "s",
}

#: Eigen calls per pass kept for the comparison against LAPACK.
_LAPACK_PROBES = 32


class Tracer:
    """Span recorder plus the work counters read from call arguments."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, float] = defaultdict(float)
        self.probes: list[tuple[np.ndarray, np.ndarray]] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._open.pop()

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self.probes.clear()

    def _wrap(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, fn))

    def install(self, modules: dict) -> None:
        """Wrap the public `cqed` functions in each module of ``modules``."""
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and obj.__module__.startswith("cqed.")
                        and not attr.startswith("_") and attr not in _NOT_WRAPPED):
                    self._wrap(module, attr, f"{obj.__module__[5:]}.{obj.__name__}")
        self._wrap(modules["decoherence"].RngSpec, "stream", "decoherence.stream")

    def remove(self) -> None:
        """Restore every wrapped function."""
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def max_lapack_error(self) -> float:
        """Largest |Jacobi - LAPACK| eigenvalue difference over the probes."""
        err = 0.0
        for mats, values in self.probes:
            err = max(err, float(np.abs(values - np.linalg.eigvalsh(mats)).max()))
        return err


def _eigen_batch_hook(tracer, args, kwargs, result):
    mats = np.asarray(args[0])
    batch, n = mats.shape[0], mats.shape[-1]
    tracer.counters["eigen_batch.matrices"] += batch
    tracer.counters["eigen_batch.bytes"] += batch * n * n * mats.itemsize
    if len(tracer.probes) < _LAPACK_PROBES:
        tracer.probes.append((mats, result[0]))


def _build_parser_hook(tracer, args, kwargs, parser):
    parse = parser.parse_args

    def parse_args(*a, **k):
        index = tracer.begin("cli.parse_args")
        try:
            return parse(*a, **k)
        finally:
            tracer.end(index)

    parser.parse_args = parse_args


def _write_table_hook(tracer, args, kwargs, result):
    tracer.counters["bytes_out"] += os.path.getsize(args[1])
    tracer.counters["rows_out"] += len(args[0].rows)


def _ramsey_hook(tracer, args, kwargs, result):
    tracer.counters["trajectories"] += args[4] if args[1].sigma > 0 else 0


def _t1_hook(tracer, args, kwargs, result):
    mc = args[2] if len(args) > 2 else kwargs.get("mc")
    tracer.counters["trajectories"] += int(mc["trials"]) if mc else 0


def _rk4_hook(tracer, args, kwargs, result):
    tracer.counters["rk4_steps"] += args[3]


_HOOKS = {
    "linalg.hermitian_eigen_batch": _eigen_batch_hook,
    "cli.build_parser": _build_parser_hook,
    "cli.write_table": _write_table_hook,
    "decoherence.ramsey_ensemble": _ramsey_hook,
    "decoherence.t1_curves": _t1_hook,
    "junction.two_island_dynamics": _rk4_hook,
}


def pass_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass of duration ``wall``.

    ``trace.overhead_s`` and ``linalg.max_err_vs_lapack`` need untraced
    passes and a LAPACK run, so the caller fills them in.  The harness's
    ``cli.<command>`` root spans count in no layer: their self time (argv
    handling and row building inside ``run_command`` that no wrapped
    function covers) and the harness loop make up ``trace.uncovered_s``.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    layer: dict[str, float] = defaultdict(float)
    covered = 0.0
    for (name, start, end, parent), inner in zip(spans, child):
        total[name] += end - start
        calls[name] += 1
        if parent < 0:  # the harness's own cli.<command> span around run_command
            covered += inner
            continue
        own[name] += end - start - inner
        layer[name.split(".", 1)[0]] += end - start - inner

    def own_of(*names):
        return sum(own[n] for n in names)

    c = tracer.counters
    ensemble_s = total["decoherence.ramsey_ensemble"] + total["decoherence.t1_curves"]
    rk4_s = total["junction.two_island_dynamics"]
    metrics = {
        "linalg.eigen_batch.s": own["linalg.hermitian_eigen_batch"],
        "linalg.eigen_batch.calls": calls["linalg.hermitian_eigen_batch"],
        "linalg.eigen_batch.matrices": c["eigen_batch.matrices"],
        "linalg.eigen_batch.bytes_computed": c["eigen_batch.bytes"],
        "linalg.eigen.calls": calls["linalg.hermitian_eigen"],
        "linalg.evolve.s": own_of("linalg.evolve", "linalg.evolve_many"),
        "chargebox.charge_dispersion.s": own["chargebox.charge_dispersion"],
        "chargebox.spectrum_sweep.s": own["chargebox.spectrum_sweep"],
        "decoherence.ramsey_ensemble.s": own["decoherence.ramsey_ensemble"],
        "decoherence.t1_curves.s": own["decoherence.t1_curves"],
        "decoherence.stream.s": own["decoherence.stream"],
        "decoherence.stream.calls": calls["decoherence.stream"],
        "decoherence.trajectories": c["trajectories"],
        "decoherence.trajectories_per_s": c["trajectories"] / ensemble_s if ensemble_s else 0.0,
        "fitting.s": layer["fitting"],
        "junction.two_island_dynamics.s": own["junction.two_island_dynamics"],
        "junction.rk4_steps_per_s": c["rk4_steps"] / rk4_s if rk4_s else 0.0,
        "junction.potential.s": layer["junction"] - own["junction.two_island_dynamics"],
        "fock.coherent_ket.s": own["fock.coherent_ket"],
        "fock.quad_stats.s": own["fock.quad_stats"],
        "jaynescummings.vacuum_rabi.s": own["jaynescummings.vacuum_rabi"],
        "qubit.trace.s": own_of("qubit.rabi_trace", "qubit.ramsey_trace"),
        "cli.parse_s": own_of("cli.build_parser", "cli.parse_args"),
        "cli.write_table_s": own["cli.write_table"],
        "cli.bytes_out": c["bytes_out"],
        "cli.rows_out": c["rows_out"],
        **{f"cli.{command}.s": total[f"cli.{command}"] for command in _COMMANDS},
        **{f"layer.{name}.s": layer[name] for name in LAYERS},
        "trace.spans": len(spans),
        "trace.uncovered_s": wall - covered,
    }
    return metrics
