"""Output checks against references that do not use the `cqed` solvers.

Each check reads one output table and returns the names of the checks it
failed.  References are LAPACK (``numpy.linalg.eigvalsh``) for spectra,
closed forms for the dynamics, and binomial or fit-resolution bounds for
the Monte-Carlo estimators.  Parameters come from the argv the harness
passed, completed with the CLI's own defaults.

A check tests the documented contract.  `KNOWN_DEFECTS` lists the checks
that fail on purpose today; they still count as failures in ``failed`` and
the error rate, and only leave ``correct`` true.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = ["KNOWN_DEFECTS", "Table", "parse_table", "check_table"]

#: Checks that fail today because of a known program defect.
KNOWN_DEFECTS = {
    # ROADMAP open item 4: the row stride is steps // max_rows, so
    # `tunnel-ode --steps 20000` emits 513 rows for --max-rows 501.
    "tunnel-ode:rows_le_max_rows",
}

EPS = float(np.finfo(np.float64).eps)
#: Tables print floats with 12 significant digits.
PRINT_RTOL = 1e-11
#: Convergence target of the in-package Jacobi solver (off-diagonal
#: Frobenius norm below JACOBI_TOL * ||H||_F), which bounds its eigenvalue
#: error by Weyl's inequality.
JACOBI_TOL = 1e-12
#: Binomial standard errors allowed between a Monte-Carlo estimate and
#: the exact decay curve.
MC_SIGMAS = 5.0
#: Relative distance allowed between the fitted T2 and 2 / sigma^2.  The
#: extrema fit scatters by about 5 % across seeds at 5000-20000 trials.
T2_RTOL = 0.15


class Table:
    """Columns of one output file as float arrays, plus its metadata."""

    def __init__(self, columns: list[str], rows: list[list], metadata: dict):
        self.metadata = metadata
        data = np.asarray(rows, dtype=np.float64).reshape(len(rows), len(columns))
        self.data = {name: data[:, k] for k, name in enumerate(columns)}
        self.nrows = len(rows)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.data[name]


def parse_table(payload: bytes, fmt: str) -> Table:
    """Parse CSV (``# key=value`` lines, header, rows) or JSON output."""
    text = payload.decode("utf-8")
    if fmt == "json":
        doc = json.loads(text)
        return Table(doc["columns"], doc["rows"], doc["metadata"])
    lines = text.splitlines()
    metadata = {}
    k = 0
    while lines[k].startswith("# "):
        key, _, value = lines[k][2:].partition("=")
        metadata[key] = value
        k += 1
    rows = [line.split(",") for line in lines[k + 1:]]
    return Table(lines[k].split(","), rows, metadata)


def _close(failures, name, got, want, atol) -> None:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape or not np.all(
        np.abs(got - want) <= atol + PRINT_RTOL * np.abs(want)
    ):
        failures.append(name)


def _box_levels(ec, ej, ng_values, ncut, k):
    """LAPACK levels of the box Hamiltonian and the Jacobi error bound.

    The Hamiltonian is built here from its definition
    H = sum_N E_C (N - N_g)^2 |N><N| - (E_J/2)(|N><N+1| + h.c.).
    The bound is the solver's convergence target plus LAPACK's own
    backward error, both scaled by the norm of each matrix.
    """
    charges = np.arange(-ncut, ncut + 1)
    dim = len(charges)
    idx = np.arange(dim)
    levels = np.empty((len(ng_values), k))
    bound = np.empty(len(ng_values))
    for s in range(0, len(ng_values), 64):
        ng = np.asarray(ng_values[s:s + 64], dtype=np.float64)
        h = np.zeros((len(ng), dim, dim))
        h[:, idx, idx] = ec * (charges[None, :] - ng[:, None]) ** 2
        h[:, idx[:-1], idx[1:]] = -0.5 * ej
        h[:, idx[1:], idx[:-1]] = -0.5 * ej
        levels[s:s + 64] = np.linalg.eigvalsh(h)[:, :k]
        fro = np.sqrt((h * h).sum(axis=(1, 2)))
        bound[s:s + 64] = (JACOBI_TOL + dim * EPS) * fro
    return levels, bound


def _check_spectrum(p, t, failures):
    grid = np.linspace(p["ng_min"], p["ng_max"], p["ng_steps"])
    if t.nrows != p["ng_steps"]:
        failures.append("spectrum:row_count")
        return
    _close(failures, "spectrum:ng_grid", t["ng"], grid, 1e-12)
    ref, bound = _box_levels(p["ec"], p["ej"], grid, p["ncut"], p["levels"])
    got = np.stack([t[f"e{k}"] for k in range(p["levels"])], axis=1)
    _close(failures, "spectrum:levels_vs_lapack", got, ref, bound[:, None])
    if p["levels"] >= 2:
        _close(failures, "spectrum:gap_vs_lapack", t["gap_01"], ref[:, 1] - ref[:, 0],
               2 * bound)


#: Charge cutoff of the transmon reference: far beyond the charge spread
#: (E_J/E_C)^(1/4) of every ratio the benchmark uses.
_TRANSMON_REF_NCUT = 30


def _check_transmon(p, t, failures):
    ratios = [float(r) for r in p["ratios"].split(",") if r]
    if t.nrows != len(ratios):
        failures.append("transmon:row_count")
        return
    _close(failures, "transmon:ratios", t["ej_over_ec"], ratios, 0.0)
    grid = np.linspace(0.0, 1.0, 201)
    want = {"min_gap": [], "max_gap": [], "dispersion": []}
    tol = []
    for ratio in ratios:
        ref, bound = _box_levels(p["ec"], ratio * p["ec"], grid, _TRANSMON_REF_NCUT, 2)
        gaps = ref[:, 1] - ref[:, 0]
        want["min_gap"].append(gaps.min())
        want["max_gap"].append(gaps.max())
        want["dispersion"].append(gaps.max() - gaps.min())
        tol.append(4 * bound.max())
    for column, values in want.items():
        _close(failures, f"transmon:{column}_vs_lapack", t[column], values, np.array(tol))


def _check_rabi(p, t, failures):
    times = np.linspace(0.0, p["t_max"], p["steps"])
    p0 = 0.5 * (1.0 + np.cos(p["omega"] * times))
    _close(failures, "rabi:times", t["t"], times, 1e-12)
    _close(failures, "rabi:p0_closed_form", t["p0"], p0, 1e-12)
    _close(failures, "rabi:p1_closed_form", t["p1"], 1.0 - p0, 1e-12)


# Spectral propagation error: eigenvalue error (JACOBI_TOL * ||H||_F, a few
# tens here) times t <= 2 pi, with room to spare.
_PROPAGATION_ATOL = 1e-9


def _check_jc(p, t, failures):
    times = np.linspace(0.0, p["t_max"], p["steps"])
    gt = p["g"] * times
    _close(failures, "jc:times", t["t"], times, 1e-12)
    _close(failures, "jc:p_excited_closed_form", t["p_qubit_excited"], np.cos(gt) ** 2,
           _PROPAGATION_ATOL)
    _close(failures, "jc:p_photon_closed_form", t["p_photon"], np.sin(gt) ** 2,
           _PROPAGATION_ATOL)


def _check_coherent(p, t, failures):
    times = np.linspace(0.0, p["t_max"], p["steps"])
    alpha_t = complex(p["alpha_re"], p["alpha_im"]) * np.exp(1j * p["omega0"] * times)
    _close(failures, "coherent:alpha_closed_form",
           np.stack([t["alpha_re"], t["alpha_im"]]), np.stack([alpha_t.real, alpha_t.imag]),
           1e-12)
    # |alpha(t)>: <x1> = Re alpha, <x2> = Im alpha, both variances 1/4.
    _close(failures, "coherent:quadrature_means",
           np.stack([t["x1_mean"], t["x2_mean"]]), np.stack([alpha_t.real, alpha_t.imag]),
           _PROPAGATION_ATOL)
    _close(failures, "coherent:quadrature_vars",
           np.stack([t["x1_var"], t["x2_var"]]), np.full((2, t.nrows), 0.25),
           _PROPAGATION_ATOL)
    _close(failures, "coherent:fidelity_one", t["fidelity"], np.ones(t.nrows),
           _PROPAGATION_ATOL)


def _check_tunnel_ode(p, t, failures):
    total0 = p["n1"] + p["n2"]
    # RK4 moves the same amount between the islands, so the drift is a few
    # roundoffs per step.
    _close(failures, "tunnel-ode:n_total_conserved", t["n1"] + t["n2"],
           np.full(t.nrows, total0), p["steps"] * 8 * EPS * total0)
    # current = dn1/dt = E sqrt(n1 n2) sin(delta); I0 = E sqrt(n1(0) n2(0)).
    e = p["e_coupling"]
    _close(failures, "tunnel-ode:current_vs_state", t["current"],
           e * np.sqrt(t["n1"] * t["n2"]) * np.sin(t["delta"]), 1e-12 * e * total0)
    _close(failures, "tunnel-ode:i0_sin_delta", t["i0_sin_delta"],
           e * np.sqrt(p["n1"] * p["n2"]) * np.sin(t["delta"]), 1e-12 * e * total0)
    if t.nrows > p["max_rows"]:
        failures.append("tunnel-ode:rows_le_max_rows")
    if t.nrows < 2 or t["t"][0] != 0.0 or not np.all(np.diff(t["t"]) > 0):
        failures.append("tunnel-ode:times")


def _check_washboard(p, t, failures):
    phis = np.linspace(p["phi_min"], p["phi_max"], p["steps"])
    _close(failures, "washboard:phi_grid", t["phi"], phis, 1e-12)
    _close(failures, "washboard:u_closed_form", t["u"], -p["bias"] * phis - np.cos(phis),
           1e-12)


def _check_fluxwell(p, t, failures):
    phis = np.linspace(p["phi_min"], p["phi_max"], p["steps"])
    u = phis ** 2 / (2.0 * p["l"]) - p["ej"] * np.cos(2.0 * np.pi * (phis - p["phi_ext"]))
    _close(failures, "fluxwell:phi_grid", t["phi"], phis, 1e-12)
    _close(failures, "fluxwell:u_closed_form", t["u"], u, 1e-12)


def _check_decay(p, t, failures):
    times = np.linspace(0.0, p["t_max"], p["steps"])
    exact = np.exp(-times / p["t1"])
    _close(failures, "decay:p_analytic", t["p_analytic"], exact, 1e-12)
    if p["trials"] > 0:
        se = np.sqrt(exact * (1.0 - exact) / p["trials"])
        _close(failures, "decay:p_mc_binomial", t["p_mc"], exact, MC_SIGMAS * se + 1e-12)


def _check_dephase(p, t, failures):
    meta = t.metadata
    p_plus = t["p_plus"]
    if not np.all((p_plus >= -1e-12) & (p_plus <= 1.0 + 1e-12)):
        failures.append("dephase:p_plus_range")
    # The accumulated noise phase at t is Gaussian with variance sigma^2 t, so
    # <cos phi> = exp(-sigma^2 t / 2) cos(delta t), and each trajectory's
    # cos phi has variance (1 + e^{-2 v} cos(2 delta t)) / 2 - <cos phi>^2.
    v = p["sigma2"] * t["t"]
    mean_cos = np.exp(-0.5 * v) * np.cos(p["delta"] * t["t"])
    var_cos = 0.5 * (1.0 + np.exp(-2.0 * v) * np.cos(2.0 * p["delta"] * t["t"])) - mean_cos ** 2
    se = 0.5 * np.sqrt(np.maximum(var_cos, 0.0) / max(p["trials"], 1))
    _close(failures, "dephase:p_plus_vs_exact_mean", p_plus, 0.5 * (1.0 + mean_cos),
           MC_SIGMAS * se + 1e-12)
    # One FFT bin of the averaged fringe is 2 pi / horizon (angular).
    if abs(float(meta["fitted_freq"]) - p["delta"]) > 2.0 * np.pi / p["horizon"]:
        failures.append("dephase:fitted_freq_within_bin")
    if p["sigma2"] > 0:
        t2 = 2.0 / p["sigma2"]
        if abs(float(meta["fitted_t2"]) - t2) > T2_RTOL * t2:
            failures.append("dephase:fitted_t2_vs_2_over_sigma2")


_CHECKS = {
    "spectrum": _check_spectrum,
    "transmon": _check_transmon,
    "rabi": _check_rabi,
    "jc": _check_jc,
    "coherent": _check_coherent,
    "tunnel-ode": _check_tunnel_ode,
    "washboard": _check_washboard,
    "fluxwell": _check_fluxwell,
    "decay": _check_decay,
    "dephase": _check_dephase,
}


def check_table(command: str, params: dict, payload: bytes, fmt: str) -> list[str]:
    """Names of the failed checks of one output file (empty when it passes)."""
    try:
        table = parse_table(payload, fmt)
    except (ValueError, KeyError, IndexError):
        return [f"{command}:parse"]
    failures: list[str] = []
    try:
        _CHECKS[command](params, table, failures)
    except (KeyError, ValueError, IndexError):
        failures.append(f"{command}:columns")
    return failures
