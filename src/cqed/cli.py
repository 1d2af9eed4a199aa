"""Deterministic command-line front end.

Every subcommand runs one experiment from the physics modules and writes a
single table, either CSV (default) or JSON.  ``_COMMANDS`` declares each
subcommand once: its runner, help text, flags and size terms.  A flag is a
name, a default that gives its type, and an optional bound (``> x`` or
``>= x``) or list of choices.  The parser, the ``params`` metadata and
every flag check come from that table: a number flag must be finite as a
float (an int past float range is not), and a flag must lie within its
bound.  Three budgets are checked from the size terms before any array
exists: no array over 2^23 float64 values (64 MiB), no run over 2^30
random draws, and no ``transmon`` run over 2^19 iterations of the Sturm
bisection's Python loop over charges.

CSV files start with ``# key=value`` metadata lines (command, parameters,
seed, version), then a header row; floats carry 12 significant digits.
JSON holds the bytes of ``json.dumps(doc, indent=1, sort_keys=True)`` with
the same content.  Rows are written in blocks of ``_BLOCK_ROWS``: each
column gets one cell format (``%.12g`` for floats, ``%s`` otherwise) and a
whole block is formatted by one ``%`` operation.  Output is written to a
uniquely named temporary file beside the target and atomically renamed, so
a failing run never leaves a partial or temporary file behind.

Exit codes: 0 success; 2 invalid arguments (a flag that is not finite or
out of its bound, a violated parameter precondition, a run over a budget,
an output path that cannot be written); 3 numerical failure (inadequate
truncation, failed fits, and floating-point overflow, invalid operations
or division by zero, which raise instead of leaving NaN or inf cells) with
the error name on stderr.

Identical command line + seed -> byte-identical output file.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import os
import sys
import tempfile
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .chargebox import charge_dispersion, koch_dispersion, spectrum_sweep
from .decoherence import (
    OUTCOME_LABELS, NoiseModel, RngSpec, _block_rows, bell_state, joint_table, ramsey_ensemble,
    t1_curves,
)
from .errors import CqedError
from .fock import coherent_evolution, quad_stats
from .jaynescummings import transfer_time, vacuum_rabi
from .junction import (
    first_minimum, flux_qubit_potential, squid_effective, two_island_dynamics, washboard_u,
)
from .linalg import _COLUMNS, fidelity
from .qubit import rabi_trace, ramsey_trace

__all__ = ["main", "OutputTable", "run_command"]


@dataclass
class OutputTable:
    """One experiment's tabular result plus its provenance metadata.

    ``rows`` is always a 2-D array, one row per sample: float64, or object
    when its columns hold values of different types, such as ``str``,
    ``str``, ``float``; each column holds values of one type.
    """

    command: str
    params: dict
    seed: int
    columns: list[str]
    rows: np.ndarray
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


def _cell_formats(rows: np.ndarray) -> list[str]:
    """Each column's cell format, from the first row: ``%.12g`` for floats,
    ``%s`` otherwise (none for an empty table, which formats no cell)."""
    return ["%.12g" if isinstance(v, float) else "%s" for v in rows[:1].ravel()]


def _blocks(rows: np.ndarray):
    """Yield ``(row count, rows)`` for blocks of ``_BLOCK_ROWS`` rows."""
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        yield len(block), block


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
    for n, block in _blocks(table.rows):
        fh.write(line * n % tuple(block.ravel().tolist()))


def _write_json_rows(rows, fh) -> None:
    """The ``rows`` value of the JSON document, nested one level deep.

    A float64 block whose cells are all finite and none integer-valued is
    formatted in one pass, ``%.12g`` straight into the row template.  That
    text is kept if it holds no ``e`` or ``n`` and one point per cell: then
    every cell is fixed-point text with a point, which `_json_float` returns
    unchanged, so the bytes are those of the per-cell path.  Every other
    block (an object table, an integer or non-finite cell, an exponent form,
    a cell such as 0.99999999999995 whose text is ``1``) goes cell by cell
    through `_json_cells`.
    """
    formats = _cell_formats(rows)
    width = len(formats)
    line = "\n  [\n   " + ",\n   ".join(["%s"] * width) + "\n  ]"
    fast = line.replace("%s", "%.12g") if rows.dtype == np.float64 else None
    sep = "["
    for n, block in _blocks(rows):
        values = block.ravel().tolist()
        text = None
        if fast and np.isfinite(block).all() and not (block == np.trunc(block)).any():
            text = sep + ",".join([fast] * n) % tuple(values)
            if "e" in text or "n" in text or text.count(".") != len(values):
                text = None
        if text is None:
            for col, fmt in enumerate(formats):
                values[col::width] = _json_cells(values[col::width], fmt)
            text = sep + ",".join([line] * n) % tuple(values)
        fh.write(text)
        sep = ","
    fh.write("[]" if sep == "[" else "\n ]")


def _write_json(table: OutputTable, fh) -> None:
    """The bytes of ``json.dumps(doc, indent=1, sort_keys=True)`` plus a newline.

    ``doc`` holds the rows as ``_json_value`` makes them.  Every other key is
    dumped once with empty rows, and the rows are written block by block in
    their place: at indent 1 only a top-level key starts a line with
    ``\\n "``, since encoded JSON strings hold no raw newline.
    """
    doc = {
        "command": table.command,
        "params": {k: _json_value(v) for k, v in table.params.items()},
        "seed": table.seed,
        "version": __version__,
        "metadata": {k: _json_value(v) for k, v in table.extra_metadata.items()},
        "columns": table.columns,
        "rows": [],
    }
    head, tail = json.dumps(doc, indent=1, sort_keys=True).split('\n "rows": []')
    fh.write(head + '\n "rows": ')
    _write_json_rows(table.rows, fh)
    fh.write(tail + "\n")


_WRITERS = {"csv": _write_csv, "json": _write_json}


def write_table(table: OutputTable, path: str, fmt: str) -> None:
    """Serialize atomically: stream to a sibling temp file, then rename."""
    writer = _WRITERS.get(fmt)
    if writer is None:
        raise ValueError(f"unknown format {fmt!r}")
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


# --- command runners -------------------------------------------------------
# A runner gets flags that passed the checks and budgets derived from its
# table entry, and returns (columns, rows, summary[, extra metadata]).


def _run_spectrum(args):
    grid = np.linspace(args.ng_min, args.ng_max, args.ng_steps)
    levels = spectrum_sweep(args.ec, args.ej, grid, args.ncut, args.levels)
    columns = ["ng"] + [f"e{k}" for k in range(args.levels)]
    rows = np.column_stack([grid, levels])
    if args.levels < 2:
        return columns, rows, f"{len(rows)} points"
    gaps = levels[:, 1] - levels[:, 0]
    return columns + ["gap_01"], np.column_stack([rows, gaps]), f"min gap_01 = {gaps.min():.6g}"


def _run_rabi(args):
    times = np.linspace(0.0, args.t_max, args.steps)
    p0, p1 = rabi_trace(args.omega, times)
    rows = np.column_stack([times, p0, p1])
    return ["t", "p0", "p1"], rows, f"{len(rows)} samples"


def _run_ramsey(args):
    times = np.linspace(0.0, args.t_max, args.steps)
    rows = np.column_stack([times, ramsey_trace(args.delta, times)])
    return ["t", "p_plus"], rows, f"{len(rows)} samples"


def _run_coherent(args):
    alpha = complex(args.alpha_re, args.alpha_im)
    times = np.linspace(0.0, args.t_max, args.steps)
    states = coherent_evolution(alpha, args.omega0, times, args.dim)
    stats = quad_stats(states["numeric"])
    rows = np.column_stack([
        times, states["alpha"].real, states["alpha"].imag, stats["mean1"], stats["mean2"],
        stats["var1"], stats["var2"], fidelity(states["analytic"], states["numeric"]),
    ])
    columns = ["t", "alpha_re", "alpha_im", "x1_mean", "x2_mean", "x1_var", "x2_var", "fidelity"]
    return columns, rows, f"<n> = {abs(alpha) ** 2:.6g}"


def _run_washboard(args):
    phis = np.linspace(args.phi_min, args.phi_max, args.steps)
    rows = np.column_stack([phis, washboard_u(args.bias, phis)])
    if abs(args.bias) > 1.0:
        return ["phi", "u"], rows, f"{len(rows)} samples"
    phi_min = first_minimum(args.bias)
    return ["phi", "u"], rows, f"first minimum at phi = {phi_min:.9g}", {"first_minimum": phi_min}


def _run_squid(args):
    fluxes = np.linspace(args.phi_min, args.phi_max, args.steps)
    eff = squid_effective(args.i0, fluxes, args.branch)
    rows = np.column_stack([fluxes, eff["critical"], eff["magnitude"]])
    return ["phi_ext", "critical", "magnitude"], rows, f"{len(rows)} samples"


def _run_fluxwell(args):
    phis = np.linspace(args.phi_min, args.phi_max, args.steps)
    result = flux_qubit_potential(args.l, args.ej, args.phi_ext, phis)
    rows = np.column_stack([phis, result["u"]])
    minima = result["minima"]
    extra = {f"minimum_{k}": f"{pos:.12g}:{val:.12g}" for k, (pos, val) in enumerate(minima)}
    return ["phi", "u"], rows, f"{len(minima)} local minima", extra


def _run_jc(args):
    times = np.linspace(0.0, args.t_max, args.steps)
    result = vacuum_rabi(args.g, times)
    rows = np.column_stack([times, result["p_qubit_excited"], result["p_photon"]])
    return (["t", "p_qubit_excited", "p_photon"], rows,
            f"transfer time pi/2g = {transfer_time(args.g):.9g}")


def _run_decay(args):
    mc = {"dt": args.dt, "trials": args.trials, "rng": RngSpec(args.seed)} if args.trials else None
    times = np.linspace(0.0, args.t_max, args.steps)
    result = t1_curves(args.t1, times, mc)
    columns, data = ["t", "p_analytic"], [times, result["analytic"]]
    if mc is not None:
        columns.append("p_mc")
        data.append(result["monte_carlo"])
    return columns, np.column_stack(data), f"{len(times)} samples"


def _run_dephase(args):
    if args.sigma2 > 0 and args.delta <= 0:
        raise ValueError("the noisy-fringe fit needs delta > 0")
    result = ramsey_ensemble(args.delta, NoiseModel(np.sqrt(args.sigma2)), args.dt,
                             args.horizon, args.trials, RngSpec(args.seed))
    extra = {"fitted_freq": result["fitted_freq"]}
    summary = "no damping (sigma = 0)"
    if result["fitted_t2"] is not None:
        extra["fitted_t2"] = result["fitted_t2"]
        summary = f"fitted T2 = {result['fitted_t2']:.6g}"
    return ["t", "p_plus"], np.column_stack([result["times"], result["p_plus"]]), summary, extra


def _run_bell(args):
    table = joint_table(bell_state(args.state))
    rows = np.array([[alice, bob, float(table[i, j])]
                     for i, alice in enumerate(OUTCOME_LABELS)
                     for j, bob in enumerate(OUTCOME_LABELS)], dtype=object)
    return ["alice", "bob", "probability"], rows, "36 joint probabilities"


def _ratios(text: str) -> list[float]:
    """The ``--ratios`` list of E_J/E_C values."""
    try:
        ratios = [float(r) for r in text.split(",")]
    except ValueError:
        ratios = []
    if not ratios or not all(math.isfinite(r) and r > 0 for r in ratios):
        raise ValueError("ratios must be a comma-separated list of finite positive numbers")
    return ratios


def _transmon_ncut(ratio: float) -> int:
    # Charge support grows like (E_J/E_C)^(1/4), but the square root is a
    # deliberate over-allowance: ratio^(1/4) + 4 fails the doubled-ncut
    # self-check in charge_dispersion at ratio 5.
    return max(5, int(np.ceil(np.sqrt(ratio))) + 4)


def _transmon_ncuts(args) -> list[int]:
    """The charge cutoff of each ratio of a ``transmon`` run."""
    return [args.ncut or _transmon_ncut(r) for r in _ratios(args.ratios)]


def _run_transmon(args):
    ratios = _ratios(args.ratios)
    ej = [ratio * args.ec for ratio in ratios]
    disp = charge_dispersion(args.ec, ej, _transmon_ncuts(args))
    # below_floor is 1 where the dispersion is roundoff, 0 elsewhere
    rows = np.column_stack([ratios, disp["dispersion"], disp["dispersion_floor"],
                            disp["dispersion"] < disp["dispersion_floor"],
                            koch_dispersion(args.ec, ej), disp["min_gap"], disp["max_gap"]])
    return (["ej_over_ec", "dispersion", "dispersion_floor", "below_floor", "koch_asymptotic",
             "min_gap", "max_gap"], rows, f"dispersion {rows[0, 1]:.4g} -> {rows[-1, 1]:.4g}")


def _run_tunnel_ode(args):
    state0 = (args.n1, args.n2, args.theta1, args.theta2)
    # steps // stride + 1 <= max_rows rows, the first at t = 0
    stride = -(-args.steps // (args.max_rows - 1))
    traj = two_island_dynamics(state0, args.e_coupling, args.dt, args.steps, stride)
    delta, i0 = traj["delta"], traj["i0"]
    rows = np.column_stack([traj["times"], traj["n1"], traj["n2"], delta, traj["current"],
                            i0 * np.sin(delta)])
    return ["t", "n1", "n2", "delta", "current", "i0_sin_delta"], rows, f"I0 = {i0:.6g}"


# --- the command table -----------------------------------------------------


@dataclass(frozen=True)
class _Command:
    """One subcommand.  A flag is ``(name, default)``, ``(name, default, bound)``
    with a bound ``"> x"`` or ``">= x"``, or ``(name, default, choices)``.
    ``size`` counts the float64 values of the largest array (or list of
    arrays) the command holds at once, ``draws`` its random draws and ``loops``
    the iterations of its bisections' Python loop.
    """

    run: Callable
    help: str
    flags: tuple
    size: Callable = lambda args: 0
    draws: Callable = lambda args: 0
    loops: Callable = lambda args: 0


#: Halvings of one Sturm bisection, at most: the Gershgorin bracket (about
#: 2 ||T||) over eps ||T|| / 16 is just over 2^57.  Each pass, one halving
#: or several under multisection, loops over every charge in Python.
_HALVINGS = 58


def _block(trials, steps):
    """Float64 values in the trajectory block that `RngSpec._blocks` fills for
    ``trials`` trajectories of ``steps`` steps: at most max(2^17, steps)."""
    steps = max(1.0, steps)
    return min(trials, _block_rows(steps)) * steps if trials else 0


_COMMANDS = {
    "spectrum": _Command(
        _run_spectrum, "Charge-qubit levels vs gate charge",
        (("ec", 1.0, "> 0"), ("ej", 0.1, ">= 0"), ("ng-min", 0.0), ("ng-max", 1.0),
         ("ng-steps", 201, ">= 2"), ("levels", 3, ">= 1"), ("ncut", 10, ">= 2")),
        # the (charges, columns) arrays of the Sturm bisection: a column per
        # (gate charge, level), or up to _COLUMNS when multisection widens a
        # narrow sweep.  The value budget keeps charges x _HALVINGS under the
        # loop budget, so spectrum needs no loops term.
        size=lambda a: (2 * a.ncut + 1) * max(a.ng_steps * a.levels, _COLUMNS),
    ),
    "rabi": _Command(
        _run_rabi, "Rabi oscillation populations",
        (("omega", 1.0), ("t-max", 4 * math.pi, "> 0"), ("steps", 101, ">= 2")),
        size=lambda a: 3 * a.steps,
    ),
    "ramsey": _Command(
        _run_ramsey, "Noiseless Ramsey fringe",
        (("delta", 1.0), ("t-max", 4 * math.pi, "> 0"), ("steps", 101, ">= 2")),
        size=lambda a: 2 * a.steps,
    ),
    "coherent": _Command(
        _run_coherent, "Coherent-state free evolution and quadratures",
        (("alpha-re", 1.5), ("alpha-im", 0.0), ("omega0", 1.0), ("dim", 48, ">= 2"),
         ("t-max", 2 * math.pi, "> 0"), ("steps", 61, ">= 2")),
        # three complex (steps, dim) stacks held at once while the numeric kets
        # are built (the phases, their exponentials, the kets); or the (steps, 8) rows
        size=lambda a: max(6 * a.dim * a.steps, 8 * a.steps),
    ),
    "washboard": _Command(
        _run_washboard, "Tilted washboard potential",
        (("bias", 0.5), ("phi-min", -math.pi), ("phi-max", 3 * math.pi),
         ("steps", 201, ">= 2")),
        size=lambda a: 2 * a.steps,
    ),
    "squid": _Command(
        _run_squid, "Split-junction critical current vs applied flux",
        (("i0", 1.0, "> 0"), ("phi-min", -1.0), ("phi-max", 1.0), ("steps", 201, ">= 2"),
         ("branch", 0)),
        size=lambda a: 3 * a.steps,
    ),
    "fluxwell": _Command(
        _run_fluxwell, "Flux-qubit potential and its minima",
        (("l", 0.5, "> 0"), ("ej", 0.4, "> 0"), ("phi-ext", 0.5), ("phi-min", -1.25),
         ("phi-max", 1.25), ("steps", 501, ">= 3")),
        size=lambda a: 2 * a.steps,
    ),
    "jc": _Command(
        _run_jc, "Vacuum Rabi oscillation of a qubit-cavity pair",
        (("g", 1.0, "> 0"), ("nmax", 4, ">= 2"), ("t-max", 2 * math.pi, "> 0"),
         ("steps", 101, ">= 2")),
        # the (steps, 3) table; the populations need no state vectors
        size=lambda a: 3 * a.steps,
    ),
    "decay": _Command(
        _run_decay, "T1 decay, analytic and Monte-Carlo",
        (("t1", 1.0, "> 0"), ("t-max", 4.0, "> 0"), ("steps", 81, ">= 2"),
         ("trials", 0, ">= 0"), ("dt", 0.01, "> 0")),
        # the table, or the first-jump probabilities of max(1, ceil(t_max / dt)) steps and no jump
        size=lambda a: max(3 * a.steps, max(1.0, np.ceil(a.t_max / a.dt)) + 1 if a.trials else 0),
    ),
    "dephase": _Command(
        _run_dephase, "Ramsey ensemble under white frequency noise",
        (("delta", 5.0), ("sigma2", 0.5, ">= 0"), ("dt", 0.02, "> 0"), ("horizon", 8.0, "> 0"),
         ("trials", 2000, ">= 0")),
        size=lambda a: max(2 * a.horizon / a.dt, _block(a.trials, np.round(a.horizon / a.dt))),
        draws=lambda a: a.trials * float(np.round(a.horizon / a.dt)) if a.sigma2 > 0 else 0,
    ),
    "bell": _Command(
        _run_bell, "Joint outcome table of a Bell state",
        (("state", "phi+", ("phi+", "phi-", "psi+", "psi-")),),
    ),
    "transmon": _Command(
        _run_transmon, "Charge dispersion vs E_J/E_C",
        (("ec", 1.0, "> 0"), ("ratios", "1,2,5,10,20,50"), ("ncut", 0, ">= 0")),
        # every scan (2 ncut + 1 and 4 ncut + 1 charges per ratio) runs in one
        # bisection, whose ragged Sturm blocks hold one value per charge and
        # column; each scan has as many columns as every other: its 2 x 2 (gate
        # charge, level) brackets, or its share of the _COLUMNS that
        # multisection spreads over 8 brackets per ratio
        size=lambda a: (sum(6 * n + 2 for n in _transmon_ncuts(a))
                        * max(4, _COLUMNS / (2 * len(_ratios(a.ratios))))),
        # the one bisection loops over the charges of its largest scan only,
        # in each of at most _HALVINGS passes
        loops=lambda a: _HALVINGS * (4 * max(_transmon_ncuts(a)) + 1),
    ),
    "tunnel-ode": _Command(
        _run_tunnel_ode, "Semiclassical two-island tunnelling",
        (("n1", 1.0e6, "> 0"), ("n2", 1.0e6, "> 0"), ("theta1", 0.0), ("theta2", 0.7),
         ("e-coupling", 1.0e-6), ("dt", 1.0e-3, "> 0"), ("steps", 10000, ">= 1"),
         ("max-rows", 501, ">= 2")),
        # the (rows, 6) table: the closed form is evaluated at those rows alone
        size=lambda a: 6 * min(a.max_rows, a.steps + 1),
    ),
}

#: Float64 values one array may hold (64 MiB), random draws one run may make
#: and bisection loop iterations one run may take (a row of a pass: 6-9 us, 2-vCPU Xeon).
_MAX_VALUES = 2**23
_MAX_DRAWS = 2**30
_MAX_LOOPS = 2**19
_BOUNDS = {">": operator.gt, ">=": operator.ge}


def _flags(spec: _Command):
    """``(flag, dest, default, rule)`` per flag; a rule is None, a bound or choices."""
    for name, default, *rule in spec.flags:
        yield name, name.replace("-", "_"), default, rule[0] if rule else None


def _check(args, spec: _Command) -> None:
    """Reject bad flag values and over-budget runs before any work."""
    # Every table records its seed, so every command checks it, not only RngSpec.
    if not 0 <= args.seed < 2**64:
        raise ValueError("seed must be within [0, 2^64)")
    for flag, dest, _, rule in _flags(spec):
        value = getattr(args, dest)
        # An int past float range fails too: every size term works in floats.
        if isinstance(value, (int, float)) and not abs(value) <= sys.float_info.max:
            raise ValueError(f"{flag} must be finite")
        if isinstance(rule, str):
            op, limit = rule.split()
            if not _BOUNDS[op](value, float(limit)):
                raise ValueError(f"{flag} must be {rule}")
    for amount, limit, what in ((spec.size(args), _MAX_VALUES, "float64 values in one array"),
                                (spec.draws(args), _MAX_DRAWS, "random draws"),
                                (spec.loops(args), _MAX_LOOPS, "bisection loop iterations")):
        if amount > limit:
            raise ValueError(f"{amount:.3g} {what} exceed the budget of {limit}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqed", description="Deterministic circuit-QED sweep generator (CSV/JSON).")
    parser.add_argument("--version", action="version", version=f"cqed {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _COMMANDS.items():
        p = sub.add_parser(command, help=spec.help)
        for flag, _, default, rule in _flags(spec):
            p.add_argument(f"--{flag}", type=type(default), default=default,
                           choices=rule if isinstance(rule, tuple) else None)
        p.add_argument("--out", default=None, help="output path (default <command>.<format>)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, default=0)
    return parser


#: One parser per process, built on the first `run_command`.
_parser = functools.cache(build_parser)


def run_command(argv: list[str]) -> int:
    args = _parser().parse_args(argv)
    spec = _COMMANDS[args.command]
    out_path = args.out if args.out is not None else f"{args.command}.{args.format}"
    params = {dest: getattr(args, dest) for _, dest, _, _ in _flags(spec)}
    try:
        # A floating-point fault raises here instead of leaving NaN or inf cells.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            _check(args, spec)
            table = OutputTable(args.command, params, args.seed, *spec.run(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CqedError, ArithmeticError) as exc:
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
