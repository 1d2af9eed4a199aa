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
from dataclasses import dataclass

import numpy as np

from .errors import NoMinimum, StepUnstable

__all__ = [
    "TwoIslandState",
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

    def slope(phi):  # Python floats: a product that overflows only steers _newton
        w = 2.0 * math.pi * (phi - phi_ext)
        return phi / l + 2 * math.pi * ej * math.sin(w), 1 / l + 4 * math.pi**2 * ej * math.cos(w)

    samples = u(phis)
    rise = np.diff(samples)
    brackets = np.flatnonzero((rise[:-1] < 0.0) & (rise[1:] >= 0.0))
    minima = [_newton(slope, float(phis[k]), float(phis[k + 2])) for k in brackets]
    return {"u": samples, "minima": [(p, float(u(p))) for p in minima]}


@dataclass(frozen=True)
class TwoIslandState:
    """Semiclassical condensates sqrt(n_j) exp(i theta_j) on two islands."""

    n1: float
    n2: float
    theta1: float
    theta2: float

    def __post_init__(self):
        if not (0 < self.n1 < math.inf and 0 < self.n2 < math.inf):
            raise ValueError("pair numbers must be positive and finite")


def two_island_dynamics(
    state0: TwoIslandState, e_coupling: float, dt: float, steps: int, every: int = 1
) -> dict[str, object]:
    """Integrate the coupled tunnel equations with fixed-step RK4 for ``steps`` steps.

    The equations (hbar = 1, Cooper-pair charge 1) are

        dn1/dt = E sqrt(n1 n2) sin(delta)        dn2/dt = -dn1/dt
        dtheta_j/dt = -(E/2) sqrt(n_k/n_j) cos(delta)

    with delta = theta2 - theta1.  The emitted current is dn1/dt, to be
    compared against I0 sin(delta) with I0 = n0 E and n0 the geometric mean
    of the initial pair numbers.  Both number derivatives come from a single
    evaluation, so n1 + n2 is conserved to roundoff.

    The stepper runs on Python floats with the four stages written out.  Stage 1
    tests only its phase difference: its pair numbers are positive, checked by
    TwoIslandState for step 1 and by the end of every step after.  Stages 2-4
    test their pair numbers, then their phase difference, before sqrt, sin and
    cos, and the sums y + (dt/2) k and y + (dt/6) (((k1 + 2 k2) + 2 k3) + k4) keep
    that operation order per component.  n2 subtracts n1's increments, exactly:
    negation is exact and rounding sign-symmetric, so x + c (-s) is x - c s.
    The trajectory is thus bit-identical to the same RK4 on length-4 numpy
    arrays.  Raises StepUnstable if a pair number is driven to zero or any
    component of the state stops being finite, at whatever step that happens.

    Only the states at steps 0, ``every``, 2 ``every``, ... are kept, and the
    returned arrays hold those rows alone: bit for bit the full trajectory's
    ``[::every]``.  Steps past the last kept row are integrated and checked
    all the same.  Returns the arrays "times", "n1", "n2", "theta1", "theta2",
    "delta" (theta2 - theta1) and "current", one value per kept row, and the
    float "i0".
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if steps < 1:
        raise ValueError("need at least one step")
    e = float(e_coupling)
    h = -0.5 * e
    half = 0.5 * dt
    sixth = dt / 6.0
    inf = math.inf
    sin, cos, sqrt = math.sin, math.cos, math.sqrt
    zero = "pair number reached zero during integration"
    # tested before each stage: math.sin and math.cos raise ValueError on inf
    phase = "phase difference became non-finite during integration"

    n1, n2, th1, th2 = y = (
        float(state0.n1), float(state0.n2), float(state0.theta1), float(state0.theta2)
    )
    out = np.empty((steps // every + 1, 4))
    out[0] = y
    # a memoryview stores each float faster than numpy's sequence assignment
    rows = out.data
    # one pass of the outer loop per kept row, the last maybe cut short at steps
    for row, stop in enumerate(range(every, steps + every, every), 1):
        for k in range(stop - every + 1, min(stop, steps) + 1):
            delta = th2 - th1
            if not -inf < delta < inf:
                raise StepUnstable(phase)
            a1, cos_d = e * sqrt(n1 * n2) * sin(delta), cos(delta)
            a3, a4 = h * sqrt(n2 / n1) * cos_d, h * sqrt(n1 / n2) * cos_d
            p1, p2 = n1 + half * a1, n2 - half * a1
            if p1 <= 0.0 or p2 <= 0.0:
                raise StepUnstable(zero)
            delta = (th2 + half * a4) - (th1 + half * a3)
            if not -inf < delta < inf:
                raise StepUnstable(phase)
            b1, cos_d = e * sqrt(p1 * p2) * sin(delta), cos(delta)
            b3, b4 = h * sqrt(p2 / p1) * cos_d, h * sqrt(p1 / p2) * cos_d
            p1, p2 = n1 + half * b1, n2 - half * b1
            if p1 <= 0.0 or p2 <= 0.0:
                raise StepUnstable(zero)
            delta = (th2 + half * b4) - (th1 + half * b3)
            if not -inf < delta < inf:
                raise StepUnstable(phase)
            c1, cos_d = e * sqrt(p1 * p2) * sin(delta), cos(delta)
            c3, c4 = h * sqrt(p2 / p1) * cos_d, h * sqrt(p1 / p2) * cos_d
            p1, p2 = n1 + dt * c1, n2 - dt * c1
            if p1 <= 0.0 or p2 <= 0.0:
                raise StepUnstable(zero)
            delta = (th2 + dt * c4) - (th1 + dt * c3)
            if not -inf < delta < inf:
                raise StepUnstable(phase)
            d1, cos_d = e * sqrt(p1 * p2) * sin(delta), cos(delta)
            s1 = sixth * (((a1 + 2.0 * b1) + 2.0 * c1) + d1)
            # one name at a time: no 4-tuple is built and unpacked per step
            n1 = n1 + s1
            n2 = n2 - s1
            th1 = th1 + sixth * (((a3 + 2.0 * b3) + 2.0 * c3) + h * sqrt(p2 / p1) * cos_d)
            th2 = th2 + sixth * (((a4 + 2.0 * b4) + 2.0 * c4) + h * sqrt(p1 / p2) * cos_d)
            if not (n1 < inf and n2 < inf and -inf < th1 < inf and -inf < th2 < inf):
                raise StepUnstable(f"state became non-finite at step {k}")
            if n1 <= 0.0 or n2 <= 0.0:
                raise StepUnstable(f"pair number went non-positive at step {k}")
        if stop <= steps:
            rows[row, 0], rows[row, 1], rows[row, 2], rows[row, 3] = n1, n2, th1, th2
    times = np.arange(0, steps + 1, every) * dt
    n1, n2, th1, th2 = out.T
    delta = th2 - th1
    current = e_coupling * np.sqrt(n1 * n2) * np.sin(delta)
    n0 = float(np.sqrt(state0.n1 * state0.n2))
    return {"times": times, "n1": n1, "n2": n2, "theta1": th1, "theta2": th2,
            "delta": delta, "current": current, "i0": n0 * e_coupling}
