"""Deterministic command-line front end.

Every subcommand runs one experiment from the physics modules and writes a
single table, either CSV (default) or JSON.  CSV files start with
``# key=value`` metadata lines (command, parameters, seed, version), then a
header row; floats carry 12 significant digits.  JSON holds the bytes of
``json.dumps(doc, indent=1, sort_keys=True)`` with the same content.  Rows
are written in blocks of ``_BLOCK_ROWS``: each column gets one cell format
(``%.12g`` for floats, ``%s`` otherwise) and a whole block is formatted by
one ``%`` operation.  Output is written to a uniquely named temporary file
beside the target and atomically renamed, so a failing run never leaves a
partial or temporary file behind.

Exit codes: 0 success, 2 invalid arguments (including violated parameter
preconditions, Monte-Carlo trajectories over the byte budget and an output
path that cannot be written), 3 numerical
failure (non-convergence, inadequate truncation, failed fits) with the
error name on stderr.

Identical command line + seed -> byte-identical output file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .chargebox import charge_dispersion, spectrum_sweep
from .decoherence import (
    NoiseModel,
    RngSpec,
    bell_state,
    joint_table,
    ramsey_ensemble,
    t1_curves,
    OUTCOME_LABELS,
)
from .errors import CqedError, NumericalError
from .fock import FockBasis, coherent_ket, ladder_suite, quad_stats
from .jaynescummings import JCParams, JCSpace, transfer_time, vacuum_rabi
from .junction import (
    TwoIslandState,
    first_minimum,
    flux_qubit_potential,
    squid_effective,
    two_island_dynamics,
    washboard_u,
)
from .linalg import evolve_many, fidelity
from .qubit import rabi_trace, ramsey_trace

__all__ = ["main", "OutputTable", "run_command"]


class UsageError(Exception):
    """Invalid parameter combination detected before any computation."""


@dataclass
class OutputTable:
    """One experiment's tabular result plus its provenance metadata.

    ``rows`` is either a 2-D float array (one row per sample) or a list of
    rows in which each column holds values of one type, such as ``str``,
    ``str``, ``float``.
    """

    command: str
    params: dict
    seed: int
    columns: list[str]
    rows: np.ndarray | list[list]
    summary: str = ""
    extra_metadata: dict = field(default_factory=dict)


#: Rows formatted by one ``%`` operation.
_BLOCK_ROWS = 1024
#: JSON text of the non-finite ``%.12g`` strings.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _json_value(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    return value


def _cell_formats(rows) -> list[str]:
    """Each column's cell format: ``%.12g`` for floats, ``%s`` otherwise."""
    if isinstance(rows, np.ndarray):
        return ["%.12g"] * rows.shape[1]
    if not rows:
        return []
    return ["%.12g" if isinstance(v, float) else "%s" for v in rows[0]]


def _blocks(rows):
    """Yield ``(row count, flat cell values)`` for blocks of ``_BLOCK_ROWS`` rows."""
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        if isinstance(block, np.ndarray):
            yield len(block), block.ravel().tolist()
        else:
            yield len(block), [v for row in block for v in row]


def _json_float(text: str) -> str:
    """``json.dumps(float(text))`` for the ``%.12g`` text of a float.

    Fixed-point ``%.12g`` text with a point is already the shortest repr of
    its value; an integer-looking one lacks only the ``.0``.  Exponent
    forms differ (``1e+12`` is ``1000000000000.0``, and a subnormal's repr
    can be shorter), so they go through ``repr``.
    """
    if "e" in text:
        return repr(float(text))
    if "." in text:
        return text
    return _JSON_NONFINITE.get(text) or text + ".0"


def _json_cells(values: list, fmt: str) -> list[str]:
    """The JSON text of each value of one column, as ``_json_value`` has it."""
    if fmt != "%.12g":
        return [json.dumps(v) for v in values]
    texts = ("%.12g\n" * len(values) % tuple(values)).split("\n")
    texts.pop()
    # The first test is _json_float's common case, inlined.
    return [t if "." in t and "e" not in t else _json_float(t) for t in texts]


def _write_csv(table: OutputTable, fh) -> None:
    fh.write(f"# command={table.command}\n")
    for key, value in table.params.items():
        fh.write(f"# {key}={_fmt(value)}\n")
    fh.write(f"# seed={table.seed}\n# version={__version__}\n")
    for key, value in table.extra_metadata.items():
        fh.write(f"# {key}={_fmt(value)}\n")
    fh.write(",".join(table.columns) + "\n")
    line = ",".join(_cell_formats(table.rows)) + "\n"
    for n, values in _blocks(table.rows):
        fh.write(line * n % tuple(values))


def _write_json_rows(rows, fh) -> None:
    """The ``rows`` value of the JSON document, nested one level deep."""
    formats = _cell_formats(rows)
    width = len(formats)
    line = "\n  [\n   " + ",\n   ".join(["%s"] * width) + "\n  ]"
    sep = "["
    for n, values in _blocks(rows):
        for col, fmt in enumerate(formats):
            values[col::width] = _json_cells(values[col::width], fmt)
        fh.write(sep + ",".join([line] * n) % tuple(values))
        sep = ","
    fh.write("[]" if sep == "[" else "\n ]")


def _write_json(table: OutputTable, fh) -> None:
    """The bytes of ``json.dumps(doc, indent=1, sort_keys=True)`` plus a newline.

    ``doc`` holds the rows as ``_json_value`` makes them; they are written
    block by block, every other key through ``json.dumps``.
    """
    doc = {
        "command": table.command,
        "params": {k: _json_value(v) for k, v in table.params.items()},
        "seed": table.seed,
        "version": __version__,
        "metadata": {k: _json_value(v) for k, v in table.extra_metadata.items()},
        "columns": table.columns,
        "rows": table.rows,
    }
    sep = "{"
    for key in sorted(doc):
        fh.write(f'{sep}\n "{key}": ')
        if key == "rows":
            _write_json_rows(table.rows, fh)
        else:
            # Encoded JSON strings hold no raw newline, so this only indents.
            fh.write(json.dumps(doc[key], indent=1, sort_keys=True).replace("\n", "\n "))
        sep = ","
    fh.write("\n}\n")


_WRITERS = {"csv": _write_csv, "json": _write_json}


def write_table(table: OutputTable, path: str, fmt: str) -> None:
    """Serialize atomically: stream to a sibling temp file, then rename."""
    writer = _WRITERS.get(fmt)
    if writer is None:
        raise UsageError(f"unknown format {fmt!r}")
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            writer(table, fh)
        # mkstemp creates the file 0600; give the table the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _require_finite(args, *names: str) -> None:
    """Reject a non-finite value of any of the named float flags."""
    for name in names:
        if not math.isfinite(getattr(args, name)):
            raise UsageError(f"{name.replace('_', '-')} must be finite")


#: Bytes one float64 array over a Monte-Carlo trajectory's steps may take.
_TRAJECTORY_BYTES = 2**26


def _require_trajectory_budget(span: float, dt: float) -> None:
    """Reject trajectories of ``span / dt`` steps whose arrays exceed the budget."""
    steps = span / dt
    if steps * 8 > _TRAJECTORY_BYTES:
        raise UsageError(
            f"{steps:.3g} Monte-Carlo steps per trajectory exceed the "
            f"{_TRAJECTORY_BYTES >> 20} MiB budget ({_TRAJECTORY_BYTES // 8} steps)"
        )


def _time_grid(t_max: float, steps: int) -> np.ndarray:
    if not (np.isfinite(t_max) and t_max > 0) or steps < 2:
        raise UsageError("need finite t-max > 0 and steps >= 2")
    return np.linspace(0.0, t_max, steps)


# --- command runners -------------------------------------------------------


def _run_spectrum(args) -> OutputTable:
    if not (np.isfinite(args.ec) and args.ec > 0):
        raise UsageError("ec must be finite and positive")
    if not (np.isfinite(args.ej) and args.ej >= 0):
        raise UsageError("ej must be finite and non-negative")
    if not (np.isfinite(args.ng_min) and np.isfinite(args.ng_max)):
        raise UsageError("ng-min and ng-max must be finite")
    if args.ng_steps < 2 or args.levels < 1:
        raise UsageError("need ng-steps >= 2 and levels >= 1")
    if args.levels > 2 * args.ncut - 1:
        raise UsageError("levels exceeds the clean part of the truncated spectrum")
    grid = np.linspace(args.ng_min, args.ng_max, args.ng_steps)
    sweep = spectrum_sweep(args.ec, args.ej, grid, args.ncut, args.levels)
    columns = ["ng"] + [f"e{k}" for k in range(args.levels)]
    rows = np.column_stack([grid, sweep.levels])
    if args.levels >= 2:
        columns.append("gap_01")
        gaps = sweep.levels[:, 1] - sweep.levels[:, 0]
        rows = np.column_stack([rows, gaps])
        summary = f"min gap_01 = {gaps.min():.6g}"
    else:
        summary = f"{len(rows)} points"
    return OutputTable(
        "spectrum",
        {
            "ec": args.ec, "ej": args.ej, "ng_min": args.ng_min,
            "ng_max": args.ng_max, "ng_steps": args.ng_steps,
            "levels": args.levels, "ncut": args.ncut,
        },
        args.seed, columns, rows, summary,
    )


def _run_rabi(args) -> OutputTable:
    _require_finite(args, "omega")
    times = _time_grid(args.t_max, args.steps)
    p0, p1 = rabi_trace(args.omega, times)
    rows = np.column_stack([times, p0.values, p1.values])
    return OutputTable(
        "rabi", {"omega": args.omega, "t_max": args.t_max, "steps": args.steps},
        args.seed, ["t", "p0", "p1"], rows, f"{len(rows)} samples",
    )


def _run_ramsey(args) -> OutputTable:
    _require_finite(args, "delta")
    times = _time_grid(args.t_max, args.steps)
    series = ramsey_trace(args.delta, times)
    rows = np.column_stack([times, series.values])
    return OutputTable(
        "ramsey", {"delta": args.delta, "t_max": args.t_max, "steps": args.steps},
        args.seed, ["t", "p_plus"], rows, f"{len(rows)} samples",
    )


def _run_coherent(args) -> OutputTable:
    _require_finite(args, "alpha_re", "alpha_im", "omega0")
    alpha = complex(args.alpha_re, args.alpha_im)
    basis = FockBasis(args.dim)
    times = _time_grid(args.t_max, args.steps)
    number = ladder_suite(basis).number
    psi0 = coherent_ket(alpha, basis)
    rows = np.empty((len(times), 8))
    for row, t, numeric in zip(rows, times, evolve_many(-args.omega0 * number, times, psi0)):
        alpha_t = alpha * np.exp(1j * args.omega0 * t)
        analytic = coherent_ket(alpha_t, basis)
        stats = quad_stats(numeric, basis)
        row[:] = (
            t, alpha_t.real, alpha_t.imag,
            stats["mean1"], stats["mean2"], stats["var1"], stats["var2"],
            fidelity(analytic, numeric),
        )
    return OutputTable(
        "coherent",
        {
            "alpha_re": args.alpha_re, "alpha_im": args.alpha_im,
            "omega0": args.omega0, "dim": args.dim,
            "t_max": args.t_max, "steps": args.steps,
        },
        args.seed,
        ["t", "alpha_re", "alpha_im", "x1_mean", "x2_mean", "x1_var", "x2_var",
         "fidelity"],
        rows, f"<n> = {abs(alpha) ** 2:.6g}",
    )


def _run_washboard(args) -> OutputTable:
    _require_finite(args, "bias", "phi_min", "phi_max")
    if args.steps < 2:
        raise UsageError("need steps >= 2")
    phis = np.linspace(args.phi_min, args.phi_max, args.steps)
    us = washboard_u(args.bias, phis)
    rows = np.column_stack([phis, us])
    extra = {}
    summary = f"{len(rows)} samples"
    if abs(args.bias) <= 1.0:
        phi_min = first_minimum(args.bias)
        extra["first_minimum"] = phi_min
        summary = f"first minimum at phi = {phi_min:.9g}"
    return OutputTable(
        "washboard",
        {"bias": args.bias, "phi_min": args.phi_min, "phi_max": args.phi_max,
         "steps": args.steps},
        args.seed, ["phi", "u"], rows, summary, extra,
    )


def _run_squid(args) -> OutputTable:
    _require_finite(args, "i0", "phi_min", "phi_max")
    if args.steps < 2:
        raise UsageError("need steps >= 2")
    fluxes = np.linspace(args.phi_min, args.phi_max, args.steps)
    rows = np.empty((len(fluxes), 3))
    for row, f in zip(rows, fluxes):
        eff = squid_effective(args.i0, float(f), args.branch)
        row[:] = (f, eff["critical"], eff["magnitude"])
    return OutputTable(
        "squid",
        {"i0": args.i0, "phi_min": args.phi_min, "phi_max": args.phi_max,
         "steps": args.steps, "branch": args.branch},
        args.seed, ["phi_ext", "critical", "magnitude"], rows,
        f"{len(rows)} samples",
    )


def _run_fluxwell(args) -> OutputTable:
    _require_finite(args, "l", "ej", "phi_ext", "phi_min", "phi_max")
    if args.steps < 3:
        raise UsageError("need steps >= 3")
    if args.l <= 0 or args.ej <= 0:
        raise UsageError("need positive inductance and Josephson energy")
    phis = np.linspace(args.phi_min, args.phi_max, args.steps)
    result = flux_qubit_potential(args.l, args.ej, args.phi_ext, phis)
    rows = np.column_stack([result["phis"], result["u"]])
    extra = {}
    for k, (pos, val) in enumerate(result["minima"]):
        extra[f"minimum_{k}"] = f"{pos:.12g}:{val:.12g}"
    return OutputTable(
        "fluxwell",
        {"l": args.l, "ej": args.ej, "phi_ext": args.phi_ext,
         "phi_min": args.phi_min, "phi_max": args.phi_max, "steps": args.steps},
        args.seed, ["phi", "u"], rows,
        f"{len(result['minima'])} local minima", extra,
    )


def _run_jc(args) -> OutputTable:
    _require_finite(args, "g")
    if args.g <= 0:
        raise UsageError("coupling g must be positive")
    times = _time_grid(args.t_max, args.steps)
    result = vacuum_rabi(JCParams(args.g), times, JCSpace(args.nmax))
    rows = np.column_stack(
        [times, result["p_qubit_excited"].values, result["p_photon"].values]
    )
    return OutputTable(
        "jc", {"g": args.g, "nmax": args.nmax, "t_max": args.t_max,
               "steps": args.steps},
        args.seed, ["t", "p_qubit_excited", "p_photon"], rows,
        f"transfer time pi/2g = {transfer_time(JCParams(args.g)):.9g}",
    )


def _run_decay(args) -> OutputTable:
    if not (np.isfinite(args.t1) and args.t1 > 0):
        raise UsageError("t1 must be finite and positive")
    if not (np.isfinite(args.dt) and args.dt > 0):
        raise UsageError("dt must be finite and positive")
    if args.trials < 0:
        raise UsageError("trials must be >= 0")
    mc = None
    if args.trials > 0:
        if args.dt > args.t1 / 100:
            raise UsageError("need dt <= t1/100 for the Monte-Carlo estimator")
        _require_trajectory_budget(args.t_max, args.dt)
        mc = {"dt": args.dt, "trials": args.trials, "rng": RngSpec(args.seed)}
    times = _time_grid(args.t_max, args.steps)
    result = t1_curves(args.t1, times, mc)
    columns = ["t", "p_analytic"]
    data = [times, result["analytic"].values]
    if result["monte_carlo"] is not None:
        columns.append("p_mc")
        data.append(result["monte_carlo"].values)
    rows = np.column_stack(data)
    return OutputTable(
        "decay",
        {"t1": args.t1, "t_max": args.t_max, "steps": args.steps,
         "trials": args.trials, "dt": args.dt},
        args.seed, columns, rows, f"{len(rows)} samples",
    )


def _run_dephase(args) -> OutputTable:
    if not (np.isfinite(args.sigma2) and args.sigma2 >= 0):
        raise UsageError("sigma2 must be finite and >= 0")
    if not (np.isfinite(args.dt) and args.dt > 0):
        raise UsageError("dt must be finite and positive")
    if not (np.isfinite(args.horizon) and args.horizon > 0):
        raise UsageError("horizon must be finite and positive")
    if not np.isfinite(args.delta):
        raise UsageError("delta must be finite")
    if args.trials < 0:
        raise UsageError("trials must be >= 0")
    if args.sigma2 > 0 and args.delta <= 0:
        raise UsageError("the noisy-fringe fit needs delta > 0")
    if args.sigma2 > 0 and args.trials < 1000:
        raise UsageError("need trials >= 1000 for ensemble averaging")
    _require_trajectory_budget(args.horizon, args.dt)
    result = ramsey_ensemble(
        args.delta, NoiseModel(np.sqrt(args.sigma2)), args.dt, args.horizon,
        args.trials, RngSpec(args.seed),
    )
    series = result["p_plus"]
    rows = np.column_stack([series.times, series.values])
    extra = {"fitted_freq": result["fitted_freq"]}
    if result["fitted_t2"] is not None:
        extra["fitted_t2"] = result["fitted_t2"]
        summary = f"fitted T2 = {result['fitted_t2']:.6g}"
    else:
        summary = "no damping (sigma = 0)"
    return OutputTable(
        "dephase",
        {"delta": args.delta, "sigma2": args.sigma2, "dt": args.dt,
         "horizon": args.horizon, "trials": args.trials},
        args.seed, ["t", "p_plus"], rows, summary, extra,
    )


def _run_bell(args) -> OutputTable:
    table = joint_table(bell_state(args.state))
    rows = []
    for i, alice in enumerate(OUTCOME_LABELS):
        for j, bob in enumerate(OUTCOME_LABELS):
            rows.append([alice, bob, float(table.probs[i, j])])
    return OutputTable(
        "bell", {"state": args.state}, args.seed,
        ["alice", "bob", "probability"], rows, "36 joint probabilities",
    )


def _transmon_ncut(ratio: float) -> int:
    # Charge support grows like (E_J/E_C)^(1/4); the +4 margin plus the
    # doubled-ncut self-check in charge_dispersion keep the cutoff honest.
    return max(5, int(np.ceil(np.sqrt(ratio))) + 4)


def _run_transmon(args) -> OutputTable:
    if not (np.isfinite(args.ec) and args.ec > 0):
        raise UsageError("ec must be finite and positive")
    ratios = [float(r) for r in args.ratios.split(",") if r]
    if not ratios or not all(np.isfinite(r) and r > 0 for r in ratios):
        raise UsageError("ratios must be a comma-separated list of finite positive numbers")
    rows = np.empty((len(ratios), 4))
    for row, ratio in zip(rows, ratios):
        ncut = args.ncut if args.ncut > 0 else _transmon_ncut(ratio)
        disp = charge_dispersion(args.ec, ratio * args.ec, ncut)
        row[:] = (ratio, disp["dispersion"], disp["min_gap"], disp["max_gap"])
    return OutputTable(
        "transmon", {"ec": args.ec, "ratios": args.ratios, "ncut": args.ncut},
        args.seed, ["ej_over_ec", "dispersion", "min_gap", "max_gap"], rows,
        f"dispersion {rows[0, 1]:.4g} -> {rows[-1, 1]:.4g}",
    )


def _run_tunnel_ode(args) -> OutputTable:
    _require_finite(args, "n1", "n2", "theta1", "theta2", "e_coupling", "dt")
    if args.dt <= 0 or args.steps < 1:
        raise UsageError("need dt > 0 and steps >= 1")
    if args.n1 <= 0 or args.n2 <= 0:
        raise UsageError("pair numbers must be positive")
    if args.max_rows < 2:
        raise UsageError("need max-rows >= 2")
    state0 = TwoIslandState(args.n1, args.n2, args.theta1, args.theta2)
    traj = two_island_dynamics(state0, args.e_coupling, args.dt, args.steps)
    # steps // stride + 1 <= max_rows rows, the first at t = 0
    stride = -(-args.steps // (args.max_rows - 1))
    delta = traj.delta[::stride]
    rows = np.column_stack([
        traj.times[::stride], traj.n1[::stride], traj.n2[::stride], delta,
        traj.current.values[::stride], traj.i0 * np.sin(delta),
    ])
    return OutputTable(
        "tunnel-ode",
        {"n1": args.n1, "n2": args.n2, "theta1": args.theta1,
         "theta2": args.theta2, "e_coupling": args.e_coupling,
         "dt": args.dt, "steps": args.steps},
        args.seed, ["t", "n1", "n2", "delta", "current", "i0_sin_delta"], rows,
        f"I0 = {traj.i0:.6g}",
    )


# --- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqed",
        description="Deterministic circuit-QED sweep generator (CSV/JSON).",
    )
    parser.add_argument("--version", action="version", version=f"cqed {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, runner, help_, params):
        p = sub.add_parser(name, help=help_)
        for flag, kwargs in params:
            p.add_argument(flag, **kwargs)
        p.add_argument("--out", default=None, help="output path (default <command>.<format>)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(runner=runner)
        return p

    f = lambda d: {"type": float, "default": d}
    i = lambda d: {"type": int, "default": d}

    add("spectrum", _run_spectrum, "Charge-qubit levels vs gate charge", [
        ("--ec", f(1.0)), ("--ej", f(0.1)), ("--ng-min", f(0.0)),
        ("--ng-max", f(1.0)), ("--ng-steps", i(201)), ("--levels", i(3)),
        ("--ncut", i(10)),
    ])
    add("rabi", _run_rabi, "Rabi oscillation populations", [
        ("--omega", f(1.0)), ("--t-max", f(12.566370614359172)), ("--steps", i(101)),
    ])
    add("ramsey", _run_ramsey, "Noiseless Ramsey fringe", [
        ("--delta", f(1.0)), ("--t-max", f(12.566370614359172)), ("--steps", i(101)),
    ])
    add("coherent", _run_coherent, "Coherent-state free evolution and quadratures", [
        ("--alpha-re", f(1.5)), ("--alpha-im", f(0.0)), ("--omega0", f(1.0)),
        ("--dim", i(48)), ("--t-max", f(6.283185307179586)), ("--steps", i(61)),
    ])
    add("washboard", _run_washboard, "Tilted washboard potential", [
        ("--bias", f(0.5)), ("--phi-min", f(-3.141592653589793)),
        ("--phi-max", f(9.42477796076938)), ("--steps", i(201)),
    ])
    add("squid", _run_squid, "Split-junction critical current vs applied flux", [
        ("--i0", f(1.0)), ("--phi-min", f(-1.0)), ("--phi-max", f(1.0)),
        ("--steps", i(201)), ("--branch", i(0)),
    ])
    add("fluxwell", _run_fluxwell, "Flux-qubit potential and its minima", [
        ("--l", f(0.5)), ("--ej", f(0.4)), ("--phi-ext", f(0.5)),
        ("--phi-min", f(-1.25)), ("--phi-max", f(1.25)), ("--steps", i(501)),
    ])
    add("jc", _run_jc, "Vacuum Rabi oscillation of a qubit-cavity pair", [
        ("--g", f(1.0)), ("--nmax", i(4)), ("--t-max", f(6.283185307179586)),
        ("--steps", i(101)),
    ])
    add("decay", _run_decay, "T1 decay, analytic and Monte-Carlo", [
        ("--t1", f(1.0)), ("--t-max", f(4.0)), ("--steps", i(81)),
        ("--trials", i(0)), ("--dt", f(0.01)),
    ])
    add("dephase", _run_dephase, "Ramsey ensemble under white frequency noise", [
        ("--delta", f(5.0)), ("--sigma2", f(0.5)), ("--dt", f(0.02)),
        ("--horizon", f(8.0)), ("--trials", i(2000)),
    ])
    add("bell", _run_bell, "Joint outcome table of a Bell state", [
        ("--state", {"choices": ("phi+", "phi-", "psi+", "psi-"), "default": "phi+"}),
    ])
    add("transmon", _run_transmon, "Charge dispersion vs E_J/E_C", [
        ("--ec", f(1.0)), ("--ratios", {"default": "1,2,5,10,20,50"}),
        ("--ncut", i(0)),
    ])
    add("tunnel-ode", _run_tunnel_ode, "Semiclassical two-island tunnelling", [
        ("--n1", f(1.0e6)), ("--n2", f(1.0e6)), ("--theta1", f(0.0)),
        ("--theta2", f(0.7)), ("--e-coupling", f(1.0e-6)), ("--dt", f(1.0e-3)),
        ("--steps", i(10000)), ("--max-rows", i(501)),
    ])
    return parser


def run_command(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    out_path = args.out if args.out is not None else f"{args.command}.{args.format}"
    try:
        table = args.runner(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except CqedError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    try:
        write_table(table, out_path, args.format)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    print(f"{table.command}: wrote {out_path} ({len(table.rows)} rows); {table.summary}")
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
