"""Reference implementations that the tests and acceptance criteria check `cqed` against.

No command runs any of these.  Each is the explicit, step-by-step or dense
version of something the package computes in closed form or on a band: the
qubit gates behind the Rabi and Ramsey circuits, dense ladder matrices of a
truncated mode, the Jaynes-Cummings single-excitation orbit on the
cavity-major product space, Bob's marginals of a joint table, a Newton
search for the washboard minimum, and a fixed-step RK4 of the two-island
tunnel equations.  They check none of their inputs: every
caller is a test that knows what it passes.
"""

import math
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from cqed import junction
from cqed.decoherence import OUTCOME_LABELS, joint_table
from cqed.linalg import Ket
from cqed.qubit import KET_0

#: sigma_x, sigma_y, sigma_z
SX, SY, SZ = SIGMAS = (
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)

#: Hadamard gate (1/sqrt2) [[1, 1], [1, -1]]; its own inverse.
HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)


def expectation(a: np.ndarray, psi: Ket) -> complex:
    """<psi| A |psi>.  Real within roundoff whenever A is Hermitian."""
    return complex(np.vdot(psi.amps, a @ psi.amps))


def axis_angle_unitary(n, theta: float) -> np.ndarray:
    """U_n(theta) = exp(-i theta/2 n.sigma) = cos(theta/2) I - i sin(theta/2) n.sigma."""
    n = np.asarray(n, dtype=np.float64)
    ndots = n[0] * SX + n[1] * SY + n[2] * SZ
    return np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * ndots


def rotate(n, theta: float, psi: Ket) -> Ket:
    """Rotate ``psi`` by ``theta`` (right-handed) about the unit axis ``n``."""
    return Ket(axis_angle_unitary(n, theta) @ psi.amps)


def free_evolution(delta: float, t: float, psi: Ket) -> Ket:
    """Evolve under H0 = -delta/2 sigma_z for time t."""
    phase = np.exp(0.5j * delta * t)
    return Ket(psi.amps * [phase, np.conj(phase)])


def rabi_numeric(omega: float, t: float) -> float:
    """Ground population of |0> evolved under omega/2 sigma_x: the rotation by omega t about x."""
    return float(abs(rotate(np.array([1.0, 0.0, 0.0]), omega * t, KET_0).amps[0]) ** 2)


def ramsey_numeric(delta: float, t: float) -> float:
    """Ground population after the Hadamard / free-evolve(t) / Hadamard circuit on |0>."""
    psi = Ket(HADAMARD @ KET_0.amps)
    final = HADAMARD @ free_evolution(delta, t, psi).amps
    return float(abs(final[0]) ** 2)


def ladder_suite(dim: int) -> SimpleNamespace:
    """Dense matrices of one truncated mode of ``dim`` levels.

    ``lower`` |n> = sqrt(n) |n-1>, ``raise_`` = lower^dag, ``number`` = raise_ @ lower,
    and the quadratures ``x1`` = (a + a^dag)/2, ``x2`` = -i (a - a^dag)/2.
    """
    lower = np.diag(np.sqrt(np.arange(1, dim)), 1).astype(np.complex128)
    raise_ = lower.conj().T
    return SimpleNamespace(lower=lower, raise_=raise_, number=raise_ @ lower,
                           x1=0.5 * (lower + raise_), x2=-0.5j * (lower - raise_))


def fock_ket(n: int, dim: int) -> Ket:
    """Number state |n> of a mode truncated to ``dim`` levels."""
    return Ket(np.eye(dim)[n])


class JCSpace(NamedTuple):
    """nmax cavity levels (x) one qubit; dimension 2 nmax."""

    nmax: int

    @property
    def dim(self) -> int:
        return 2 * self.nmax


def index_of(n: int, q: int, space: JCSpace) -> int:
    """Flat index of |n, q> in the cavity-major product ordering |n> (x) |q>."""
    return 2 * n + q


def product_ket(n: int, q: int, space: JCSpace) -> Ket:
    """Product basis state |n, q>."""
    return Ket(np.eye(space.dim)[index_of(n, q, space)])


def _orbit(g: float, times: np.ndarray, space: JCSpace) -> np.ndarray:
    """Row k: the amplitudes of cos(g t) |0,1> - i sin(g t) |1,0> at t = times[k]."""
    amps = np.zeros((len(times), space.dim), dtype=np.complex128)
    amps[:, index_of(0, 1, space)] = np.cos(g * times)
    amps[:, index_of(1, 0, space)] = -1j * np.sin(g * times)
    return amps


def vacuum_rabi_closed_form(g: float, t: float, space: JCSpace) -> Ket:
    """cos(gt) |0,1> - i sin(gt) |1,0>, the exact single-excitation orbit."""
    return Ket(_orbit(g, np.array([t], dtype=np.float64), space)[0])


def marginal_table(state: Ket) -> dict[str, float]:
    """Bob's outcome probabilities ignoring Alice entirely.

    The joint table summed over Alice's computational-basis outcomes.  No
    signalling makes her other two bases give the same sums: her remote
    choice of basis cannot steer Bob's marginals.
    """
    return dict(zip(OUTCOME_LABELS, joint_table(state)[0:2].sum(axis=0)))


def first_minimum_numeric(bias: float) -> float:
    """The arcsin-free washboard minimum: `cqed.junction._newton` on u' = sin(phi) - bias,
    rising on [-pi/2, pi/2]; looked up on the module, so a test that patches it sees it."""
    return junction._newton(lambda p: (math.sin(p) - bias, math.cos(p)),
                            -math.pi / 2, math.pi / 2)


def two_island_rk4(state0, e: float, dt: float, steps: int) -> np.ndarray:
    """Fixed-step RK4 of the two-island tunnel equations on Python floats.

    ``state0`` is (n1, n2, theta1, theta2); returns the (steps + 1, 4)
    trajectory.  The stages sum as ((k1 + 2 k2) + 2 k3) + k4 per component.
    Its error is O(dt^4), against the closed form of
    `cqed.junction.two_island_dynamics`.
    """
    h = -0.5 * e
    half, sixth = 0.5 * dt, dt / 6.0
    sin, cos, sqrt = math.sin, math.cos, math.sqrt

    def rhs(n1, n2, th1, th2):
        s = e * sqrt(n1 * n2) * sin(th2 - th1)
        cos_d = cos(th2 - th1)
        return s, -s, h * sqrt(n2 / n1) * cos_d, h * sqrt(n1 / n2) * cos_d

    y = tuple(float(v) for v in state0)
    out = [y]
    for _ in range(steps):
        k1 = rhs(*y)
        k2 = rhs(*[v + half * k for v, k in zip(y, k1)])
        k3 = rhs(*[v + half * k for v, k in zip(y, k2)])
        k4 = rhs(*[v + dt * k for v, k in zip(y, k3)])
        y = tuple(v + sixth * (((a + 2.0 * b) + 2.0 * c) + d)
                  for v, a, b, c, d in zip(y, k1, k2, k3, k4))
        out.append(y)
    return np.array(out)
