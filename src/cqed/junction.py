"""Semiclassical Josephson junction toolset.

Reduced units throughout: the flux quantum is 1 (so the reduced flux
quantum is 1/2pi), currents are quoted in units of the critical current
I0 = 2 pi E_J / Phi_0, and washboard energies in units of I0 Phi0 / 2pi
(= E_J).  In these units the tilted washboard is

    u(phi) = -(I/I0) phi - cos(phi)

and every formula below is a pure ratio: no absolute junction scale enters.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NoMinimum, StepUnstable

__all__ = [
    "washboard_u",
    "first_minimum",
    "squid_effective",
    "flux_qubit_potential",
    "two_island_dynamics",
]


def washboard_u(bias: float, phis: np.ndarray) -> np.ndarray:
    """Reduced washboard u(phi) = -bias phi - cos(phi), vectorized."""
    phis = np.asarray(phis, dtype=np.float64)
    return -bias * phis - np.cos(phis)


def _newton(slope, lo: float, hi: float) -> float:
    """Root of a slope u' that rises through zero on [lo, hi]: safeguarded Newton.

    ``slope(x)`` gives (u'(x), u''(x)).  An end where u' = 0 is the root; else
    the search starts mid-bracket, keeps u' < 0 at lo and u' >= 0 at hi, and
    bisects when u'' is not positive and finite, or Newton's step leaves the
    bracket or is over half the step before the last.  It stops when the next
    point is the last again: the bracket cannot shrink.
    """
    for end in (lo, hi):
        if slope(end)[0] == 0.0:
            return end
    x = 0.5 * (lo + hi)
    last = before = hi - lo
    while True:
        g, dg = slope(x)
        lo, hi = (x, hi) if g < 0.0 else (lo, x)
        nxt = x - g / dg if 0.0 < dg < math.inf else math.nan
        if nxt == x:
            return x
        if not (lo < nxt < hi and abs(nxt - x) <= 0.5 * before):
            nxt = 0.5 * (lo + hi)
            if nxt == lo or nxt == hi:
                return x
        before, last, x = last, abs(nxt - x), nxt


def first_minimum(bias: float) -> float:
    """Location of the first washboard minimum, phi = arcsin(I/I0).

    Raises NoMinimum for |bias| > 1, where the tilt removes every local minimum.
    """
    if abs(bias) > 1.0:
        raise NoMinimum(f"|I/I0| = {abs(bias):.4g} > 1: washboard has no local minima")
    return float(np.arcsin(bias))


def squid_effective(i0_each: float, phi_ext, n: int = 0) -> dict[str, object]:
    """Split junction (SQUID) as one flux-tunable junction.

    For two identical junctions of critical current ``i0_each`` in a loop
    threaded by ``phi_ext`` (Phi0 units) on fluxoid branch ``n``, the pair
    obeys I = 2 I0 cos(pi (n - phi_ext)) sin(dphi): a single junction whose
    critical current is tunable through zero at half-integer flux.  An array
    ``phi_ext`` gives one value per flux for each key.
    """
    # numpy's product, not Python's, so 2 I0 overflowing raises under np.errstate
    critical = np.multiply(2.0, i0_each) * np.cos(np.pi * (n - phi_ext))
    return {"critical": critical, "magnitude": abs(critical)}


def flux_qubit_potential(
    l: float, ej: float, phi_ext: float, phis: np.ndarray
) -> dict[str, object]:
    """Flux-qubit potential u(phi) = phi^2/2L - E_J cos(2 pi (phi - phi_ext)).

    ``phis`` is a sorted grid of loop flux values in Phi0 units.  Returns the
    samples and every interior local minimum: an array scan for sign changes
    of the numerical derivative brackets each, and `_newton` finds it on the
    closed-form slope.  At phi_ext = 1/2 the potential is even in phi and the
    two lowest minima are degenerate mirror images about phi = 0.
    """
    phis = np.asarray(phis, dtype=np.float64)
    if phis.ndim != 1 or len(phis) < 3:
        raise ValueError("need a 1-D grid of at least 3 points")
    if np.any(np.diff(phis) <= 0):
        raise ValueError("grid must be strictly increasing")

    def u(phi):
        return phi * phi / (2.0 * l) - ej * np.cos(2.0 * np.pi * (phi - phi_ext))

    # u', u'' over a power of two near max(|E_J|, 1/L): same bits, finite for huge E_J
    shift = max(math.frexp(ej)[1], -math.frexp(l)[1])
    ej_scaled = math.ldexp(ej, -shift)

    def slope(phi):  # Python floats
        w = 2.0 * math.pi * (phi - phi_ext)
        return (math.ldexp(phi / l, -shift) + 2 * math.pi * ej_scaled * math.sin(w),
                math.ldexp(1 / l, -shift) + 4 * math.pi**2 * ej_scaled * math.cos(w))

    samples = u(phis)
    rise = np.diff(samples)
    brackets = np.flatnonzero((rise[:-1] < 0.0) & (rise[1:] >= 0.0))
    minima = [_newton(slope, float(phis[k]), float(phis[k + 2])) for k in brackets]
    return {"u": samples, "minima": [(p, float(u(p))) for p in minima]}


def two_island_dynamics(
    state0: tuple, e_coupling: float, dt: float, steps: int, every: int = 1
) -> dict[str, object]:
    """The coupled tunnel equations, solved exactly at steps 0, ``every``, 2 ``every``, ...

    The equations (hbar = 1, Cooper-pair charge 1) are

        dn1/dt = E sqrt(n1 n2) sin(delta)        dn2/dt = -dn1/dt
        dtheta_j/dt = -(E/2) sqrt(n_k/n_j) cos(delta)

    with delta = theta2 - theta1 and ``state0`` = (n1, n2, theta1, theta2), n_j > 0.
    For psi_j = sqrt(n_j) exp(i theta_j) they are i dpsi/dt = (E/2) sigma_x psi
    (Feynman Lectures III, 21-9), so with phi = E t / 2 and delta0 = delta(0)

        z1 = psi_1 exp(-i theta1(0)) = sqrt(n1) cos(phi) - i sqrt(n2) exp(i delta0) sin(phi)
        z2 = psi_2 exp(-i theta2(0)) = sqrt(n2) cos(phi) - i sqrt(n1) exp(-i delta0) sin(phi)

    and n_j = |z_j|^2.  Each z_j is a real-linear image of (cos phi, sin phi), so
    its argument is monotone in phi and gains -sign(cos delta0) pi per pi of
    phi: with k = round(phi / pi), theta_j = theta_j(0) - sign(cos delta0) k pi
    + Arg((-1)^k z_j), exact on each row however many windings lie between
    rows, with no unwrapping.  <sigma_x> / 2 = sqrt(n1 n2) cos(delta) is
    conserved, so cos(delta) keeps the sign of cos(delta0), delta stays within
    pi of delta0, and delta = delta0 + Arg(z2 conj(z1)): theta2 - theta1
    without the cancellation of their windings.  cos and sin take phi itself,
    since numpy reduces the argument exactly (phi - k pi would not be exact).

    Every rounding leaves about eps sqrt(n1 + n2) in z_j, so about
    eps sqrt((n1 + n2) / n_j) in theta_j.  A row where a pair number falls
    below eps (n1 + n2), next to a node of psi_j, raises StepUnstable: its
    phase (to worse than sqrt(eps)) and the pair number itself are not
    determined.

    The rows are the times k ``every`` dt for k = 0 .. ``steps`` // ``every``.
    Returns the arrays "times", "n1", "n2", "theta1", "theta2", "delta" and
    "current" (dn1/dt), one value per row, and the float "i0" = E sqrt(n1 n2)
    at t = 0.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if steps < 1:
        raise ValueError("need at least one step")
    n1, n2, th1, th2 = (np.float64(v) for v in state0)
    # (k every) dt: the bits of np.arange(0, steps + 1, every) * dt while k every
    # < 2^53, and no int64 or object array for a step count past that
    times = np.arange(steps // every + 1, dtype=np.float64) * float(every) * dt
    phi = 0.5 * e_coupling * times
    # numpy's difference, so one that overflows raises under np.errstate
    delta0 = np.subtract(th2, th1)
    cos_d, sin_d = np.cos(delta0), np.sin(delta0)
    r1, r2 = np.sqrt(n1), np.sqrt(n2)
    c, s = np.cos(phi), np.sin(phi)
    # z_j = x_j + i y_j
    x1, y1 = r1 * c + r2 * sin_d * s, -r2 * cos_d * s
    x2, y2 = r2 * c - r1 * sin_d * s, -r1 * cos_d * s
    pairs1, pairs2 = x1 * x1 + y1 * y1, x2 * x2 + y2 * y2
    floor = np.finfo(np.float64).eps * (n1 + n2)
    low = np.flatnonzero(np.minimum(pairs1, pairs2) < floor)
    if low.size:
        raise StepUnstable(f"a pair number at t = {times[low[0]]:.6g} is below eps (n1 + n2) "
                           f"= {floor:.3g}: its phase is not determined")
    k = np.round(phi / np.pi)
    flip = 1.0 - 2.0 * (k % 2.0)
    turns = np.sign(cos_d) * np.pi * k
    theta1 = (th1 - turns) + np.arctan2(flip * y1, flip * x1)
    theta2 = (th2 - turns) + np.arctan2(flip * y2, flip * x2)
    delta = delta0 + np.arctan2(y2 * x1 - x2 * y1, x2 * x1 + y2 * y1)
    current = e_coupling * np.sqrt(pairs1 * pairs2) * np.sin(delta)
    return {"times": times, "n1": pairs1, "n2": pairs2, "theta1": theta1, "theta2": theta2,
            "delta": delta, "current": current, "i0": float(np.sqrt(n1 * n2)) * e_coupling}
