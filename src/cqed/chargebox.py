"""Cooper-pair box / transmon engine.

The box Hamiltonian in the Cooper-pair number basis |N>, N = -ncut..ncut:

    H = sum_N  E_C (N - N_g)^2 |N><N|  -  (E_J/2) (|N><N+1| + |N+1><N|)

with the pair charging energy E_C = (2e)^2 / 2 C_Sigma as the reference
unit.  Apart from the closed-form two-level gap `exact_gap`, everything
here reduces to eigenvalues of that tridiagonal matrix on gate-charge
grids: spectra, the sweet-spot/charge-dispersion analysis that motivates
the transmon, and the second-order avoided crossings.

All of it hands the diagonal and the constant coupling -E_J/2 straight to
the batched Sturm bisection `tridiagonal_eigvalsh_groups`: a spectrum sweep
is one stack, the dispersion scans of a whole list of (E_J, ncut) pairs
share one bisection, and so do the avoided-crossing gaps of a whole E_J
list.  No dense Hamiltonian is ever built.

Spectra are periodic in N_g with period 1 and symmetric about N_g = 1/2,
so no search over N_g is needed: the charge dispersion and the avoided
crossings are evaluated at their symmetry points, and `koch_dispersion`
gives the dispersion's large-E_J/E_C asymptote as an independent check.
Truncation: the charges run over N = -ncut..ncut with ncut >= 2, and
states near |+-ncut| are polluted by the hard cutoff, so callers never get
more than 2 ncut - 1 levels; the dispersion scan re-runs itself at doubled
ncut to prove the cutoff is irrelevant.
"""

from __future__ import annotations

import numpy as np

from .errors import TruncationTooSmall
from .linalg import _EPS, tridiagonal_eigvalsh_groups

__all__ = [
    "spectrum_sweep",
    "exact_gap",
    "charge_dispersion",
    "koch_dispersion",
    "second_order_gap",
]


def _charging_energies(ec, ng_values, ncut, k) -> np.ndarray:
    """Diagonal E_C (N - N_g)^2, N = -ncut..ncut: one row per gate charge, one
    column per N.  Checks ncut >= 2, then 1 <= k <= 2 ncut - 1 for the k
    levels the caller will take, before any arithmetic."""
    if ncut < 2:
        raise ValueError("ncut must be at least 2")
    if not 1 <= k <= 2 * ncut - 1:
        raise ValueError(f"k must be within [1, {2 * ncut - 1}]; top levels are cutoff-polluted")
    charges = np.arange(-ncut, ncut + 1)
    return ec * (charges[None, :] - np.asarray(ng_values, dtype=np.float64)[:, None]) ** 2


def spectrum_sweep(
    ec: float, ej: float, ng_values: np.ndarray, ncut: int, k: int
) -> np.ndarray:
    """k lowest levels of the box at each gate charge (one batched bisection).

    Returns shape (len(ng_values), k), ascending along each row.
    """
    return tridiagonal_eigvalsh_groups([(_charging_energies(ec, ng_values, ncut, k),
                                         -0.5 * ej, k)])[0]


def exact_gap(ec: float, ej: float, dg: float) -> float:
    """Two-level gap E_J sqrt(1 + 4 E_C^2 dg^2 / E_J^2) at N_g = 1/2 + dg.

    Written as 2 sqrt((E_C dg)^2 + (E_J/2)^2) so the E_J = 0 limit
    (2 E_C |dg|, the bare parabola separation) is handled exactly.  Minimum
    E_J at dg = 0; crossover to the linear regime near |dg| ~ E_J / 2 E_C.
    """
    return 2.0 * np.hypot(ec * dg, 0.5 * ej)


def charge_dispersion(ec: float, ej, ncut) -> dict[str, object]:
    """Gate-charge dispersion of the qubit gap, from its two symmetry points.

    Each level of the box is a Hill-equation band, monotone in N_g between
    the symmetry points N_g = 0 and 1/2 (Magnus & Winkler 1966), so the gap
    between the two lowest levels takes its extremes there and the
    dispersion is their difference, |eps_0| + |eps_1| with Koch et al.'s
    eps_m = E_m(1/2) - E_m(0).  Returned are the extremes (``max_gap``,
    ``min_gap``), the ``dispersion`` and its roundoff floor
    ``dispersion_floor`` = eps ||H|| dim of the doubled-ncut Hamiltonian,
    below which the dispersion is noise.  The scan is repeated at doubled
    ncut; if that changes the dispersion by more than 1e-8 relative to the
    gap scale the truncation is inadequate and TruncationTooSmall is
    raised.  (The gap scale, not the dispersion itself, is the reference:
    deep in the transmon regime the dispersion underflows any fixed
    relative tolerance.)

    ``ej`` and ``ncut`` are either scalars, which give float values, or
    equal-length sequences of (E_J, ncut) pairs, which give float arrays
    with one entry per pair, bit for bit the scalar results.  All scans of
    all pairs run as one bisection (`tridiagonal_eigvalsh_groups`); the
    TruncationTooSmall raised is that of the first failing pair.
    """
    scalar = np.ndim(ej) == 0 and np.ndim(ncut) == 0
    pairs = list(zip(np.atleast_1d(ej).tolist(), np.atleast_1d(ncut).tolist(), strict=True))
    scans = [(_charging_energies(ec, [0.0, 0.5], n, 2), -0.5 * ej_, 2)
             for ej_, ncut_ in pairs for n in (ncut_, 2 * ncut_)]
    gaps = [vals[:, 1] - vals[:, 0] for vals in tridiagonal_eigvalsh_groups(scans)]
    out = {"max_gap": [], "min_gap": [], "dispersion": [], "dispersion_floor": []}
    for (ej_, ncut_), gaps_a, gaps_b, (diag, _, _) in zip(
            pairs, gaps[::2], gaps[1::2], scans[1::2]):
        disp_a = gaps_a.max() - gaps_a.min()
        disp_b = gaps_b.max() - gaps_b.min()
        scale = max(abs(disp_b), float(gaps_b.mean()))
        if abs(disp_b - disp_a) > 1e-8 * scale:
            raise TruncationTooSmall(
                f"dispersion moved by {abs(disp_b - disp_a):.3e} when doubling ncut={ncut_}"
            )
        out["max_gap"].append(float(gaps_b.max()))
        out["min_gap"].append(float(gaps_b.min()))
        out["dispersion"].append(float(disp_b))
        # ||H|| <= max |E_C (N - N_g)^2| + E_J, the Gershgorin bound
        out["dispersion_floor"].append(_EPS * (float(diag.max()) + abs(ej_)) * diag.shape[1])
    return {key: values[0] if scalar else np.array(values) for key, values in out.items()}


def koch_dispersion(ec: float, ej):
    """Asymptotic charge dispersion |eps_1| + |eps_0| of the qubit gap.

    Koch et al., PRA 76, 042319 (2007), eq. 2.5, for E_J >> E_C:
    eps_m = (-1)^m E_C' 2^(4m+5) / m! sqrt(2/pi) (E_J / 2 E_C')^(m/2 + 3/4)
    exp(-sqrt(8 E_J / E_C')), with Koch's single-electron charging energy
    E_C' = E_C / 4.  An independent check on `charge_dispersion`; ``ej``
    may be an array.
    """
    ec_koch = 0.25 * ec
    x = np.asarray(ej, dtype=np.float64) / ec_koch
    common = ec_koch * np.sqrt(2.0 / np.pi) * (0.5 * x) ** 0.75 * np.exp(-np.sqrt(8.0 * x))
    return common * (2.0**5 + 2.0**9 * np.sqrt(0.5 * x))


def second_order_gap(
    ec: float, ej_values: np.ndarray, ncut: int = 10
) -> dict[str, object]:
    """Avoided-crossing gap where the |0> and |2> parabolas meet, vs E_J.

    The bare parabolas E_C (N - N_g)^2 for N = 0 and N = 2 cross at
    N_g = 1 (the midpoint), where |1> lies below them, so the crossing is
    between the second and third levels.  The coupling connecting |0> to
    |2> appears only at second order in the tunnelling, so the minimal gap
    scales as (E_J/2)^2; the gaps and their log-log slope over
    ``ej_values`` are returned.

    No search is needed for the minimum: the spectrum has period 1 in N_g
    and is symmetric about N_g = 1/2, so every gap is stationary at the
    symmetry points, and the avoided crossing sits exactly at N_g = 1.
    All len(ej_values) matrices run as one bisection, each its own stack.
    """
    ej_values = np.asarray(ej_values, dtype=np.float64)
    if np.any(ej_values > 0.2 * ec):
        raise ValueError("second-order scaling needs E_J << E_C")
    diag = _charging_energies(ec, [1.0], ncut, 3)
    crossings = tridiagonal_eigvalsh_groups([(diag, -0.5 * ej, 3) for ej in ej_values])
    gaps = np.array([vals[0, 2] - vals[0, 1] for vals in crossings])
    return {"gaps": gaps, "slope": float(np.polyfit(np.log(ej_values), np.log(gaps), 1)[0])}
