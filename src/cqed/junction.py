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
    "TwoIslandTrajectory",
    "washboard_u",
    "first_minimum",
    "first_minimum_numeric",
    "squid_effective",
    "flux_qubit_potential",
    "two_island_dynamics",
]

#: Grid step used to bracket minima before golden-section refinement.
_SCAN_STEP = np.pi / 200

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def washboard_u(bias: float, phis: np.ndarray) -> np.ndarray:
    """Reduced washboard u(phi) = -bias phi - cos(phi), vectorized."""
    phis = np.asarray(phis, dtype=np.float64)
    return -bias * phis - np.cos(phis)


def _golden_section(f, lo: float, hi: float) -> float:
    """Minimum of a unimodal f on [lo, hi]: golden section + parabolic polish.

    Pure golden section cannot resolve the minimum below the flat-basin
    width sqrt(eps |f| / f''), about 1e-8 for order-one washboards, so the
    bracket is finished with one parabolic vertex fit, which averages the
    roundoff away.  Against the exact minima (Newton's method on the closed
    form of f'), it lands 1.2e-13 to 1.8e-10 off on 21 flux-well minima, and
    1e-9 to 1.1e-8 off on washboard first minima at bias 0.5 to 0.99, whose
    curvature is lower.
    """
    a, b = float(lo), float(hi)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > 1e-7:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    m = 0.5 * (a + b)
    h = max(b - a, 1e-7)
    fa, fm, fb = f(m - h), f(m), f(m + h)
    denom = fa - 2.0 * fm + fb
    if denom <= 0.0:  # flat to roundoff: the midpoint is as good as it gets
        return m
    vertex = m + 0.5 * h * (fa - fb) / denom
    return min(max(vertex, a - h), b + h)


def first_minimum_numeric(bias: float) -> float:
    """First washboard minimum located by grid scan plus golden section.

    Independent of the arcsin closed form: brackets the minimum of u(phi)
    on [-pi/2, pi/2] from a pi/200 grid and refines by golden section.
    """
    grid = np.arange(-np.pi / 2, np.pi / 2 + _SCAN_STEP, _SCAN_STEP)
    us = washboard_u(bias, grid)
    k = int(np.argmin(us))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    return _golden_section(lambda p: -bias * p - np.cos(p), lo, hi)


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
    samples together with every interior local minimum, located by one array
    scan for sign changes of the numerical derivative and refined by golden section.
    At phi_ext = 1/2 the potential is even in phi and the two lowest minima
    are degenerate, symmetric about the midpoint phi = 0.
    """
    phis = np.asarray(phis, dtype=np.float64)
    if phis.ndim != 1 or len(phis) < 3:
        raise ValueError("need a 1-D grid of at least 3 points")
    if np.any(np.diff(phis) <= 0):
        raise ValueError("grid must be strictly increasing")

    def u(phi):
        return phi * phi / (2.0 * l) - ej * np.cos(2.0 * np.pi * (phi - phi_ext))

    samples = u(phis)
    minima = []
    slope = np.diff(samples)
    for k in np.flatnonzero((slope[:-1] < 0.0) & (slope[1:] >= 0.0)):
        p = _golden_section(u, phis[k], phis[k + 2])
        minima.append((float(p), float(u(p))))
    return {"u": samples, "minima": minima}


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


@dataclass(frozen=True)
class TwoIslandTrajectory:
    times: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    theta1: np.ndarray
    theta2: np.ndarray
    current: np.ndarray
    i0: float

    @property
    def delta(self) -> np.ndarray:
        return self.theta2 - self.theta1


def two_island_dynamics(
    state0: TwoIslandState, e_coupling: float, dt: float, steps: int, every: int = 1
) -> TwoIslandTrajectory:
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
    all the same.
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
    return TwoIslandTrajectory(
        times=times,
        n1=n1,
        n2=n2,
        theta1=th1,
        theta2=th2,
        current=current,
        i0=n0 * e_coupling,
    )
