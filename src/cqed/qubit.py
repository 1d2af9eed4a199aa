"""Two-level algebra: rotations, free evolution, Rabi and Ramsey sequences.

Conventions (all with hbar = 1):

* Basis order is (|0>, |1>) with |0> the ground state, so the free
  Hamiltonian of a qubit with gap ``delta`` is H0 = -delta/2 * sigma_z and
  U0(t) = diag(exp(+i delta t / 2), exp(-i delta t / 2)).  At t = pi/(2 delta)
  this maps |+> -> |-i> (a 90-degree rotation about the 0-1 axis).
* ``rotate`` applies U_n(theta) = exp(-i theta/2 n.sigma), a right-handed
  rotation of the Bloch sphere by theta about the unit axis n.
* Global phases are physically meaningless here; state comparisons should
  use fidelity, never componentwise equality.

States are `cqed.linalg.Ket`s of dimension 2; every function taking one
raises DimensionMismatch on any other dimension.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotUnitAxis
from .linalg import _NORM_TOL, Ket

__all__ = [
    "hadamard",
    "rotate",
    "free_evolution",
    "rabi_trace",
    "ramsey_trace",
    "KET_0",
    "KET_1",
    "KET_PLUS",
    "KET_MINUS",
    "KET_PLUS_I",
    "KET_MINUS_I",
]

_SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}

KET_0 = Ket([1.0, 0.0])
KET_1 = Ket([0.0, 1.0])
KET_PLUS = Ket([1 / np.sqrt(2), 1 / np.sqrt(2)])
KET_MINUS = Ket([1 / np.sqrt(2), -1 / np.sqrt(2)])
KET_PLUS_I = Ket([1 / np.sqrt(2), 1j / np.sqrt(2)])
KET_MINUS_I = Ket([1 / np.sqrt(2), -1j / np.sqrt(2)])


def _qubit_amps(psi: Ket) -> np.ndarray:
    """Amplitudes (a0, a1) of ``psi``, which must be a qubit state."""
    if psi.dim != 2:
        raise DimensionMismatch(f"a qubit state has 2 amplitudes, not {psi.dim}")
    return psi.amps


def hadamard() -> np.ndarray:
    """Hadamard gate (1/sqrt2) [[1, 1], [1, -1]]; its own inverse."""
    return np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)


def axis_angle_unitary(n: np.ndarray, theta: float) -> np.ndarray:
    """U_n(theta) = cos(theta/2) I - i sin(theta/2) n.sigma."""
    n = np.asarray(n, dtype=np.float64)
    if n.shape != (3,) or abs(np.linalg.norm(n) - 1.0) > _NORM_TOL:
        raise NotUnitAxis("rotation axis must be a 3D unit vector")
    ndots = n[0] * _SIGMA["x"] + n[1] * _SIGMA["y"] + n[2] * _SIGMA["z"]
    return np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * ndots


def rotate(n: np.ndarray, theta: float, psi: Ket) -> Ket:
    """Rotate ``psi`` by ``theta`` (right-handed) about the unit axis ``n``."""
    return Ket(axis_angle_unitary(n, theta) @ _qubit_amps(psi))


def free_evolution(delta: float, t: float, psi: Ket) -> Ket:
    """Evolve under H0 = -delta/2 sigma_z for time t."""
    phase = np.exp(0.5j * delta * t)
    return Ket(_qubit_amps(psi) * [phase, np.conj(phase)])


def rabi_trace(omega: float, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ground/excited populations under the coupling H = omega/2 sigma_x.

    Starting from |0>, p0(t) = (1 + cos(omega t))/2 and p1 = 1 - p0.
    """
    times = np.asarray(times, dtype=np.float64)
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    p0 = 0.5 * (1.0 + np.cos(omega * times))
    return p0, 1.0 - p0


def rabi_numeric(omega: float, t: float) -> float:
    """Ground population from explicit evolution under omega/2 sigma_x.

    The propagator exp(-i omega t/2 sigma_x) is the rotation by omega t
    about the x axis.
    """
    return float(abs(rotate(np.array([1.0, 0.0, 0.0]), omega * t, KET_0).amps[0]) ** 2)


def ramsey_trace(delta: float, times: np.ndarray) -> np.ndarray:
    """Ramsey fringe p0(t) = (1 + cos(delta t))/2.

    Closed form for the Hadamard / free-evolve(t) / Hadamard sequence on a
    qubit of gap ``delta`` started in |0>; `ramsey_numeric` runs the actual
    three-step circuit.
    """
    times = np.asarray(times, dtype=np.float64)
    return 0.5 * (1.0 + np.cos(delta * times))


def ramsey_numeric(delta: float, t: float) -> float:
    """Ground population from the explicit three-step Ramsey circuit."""
    h = hadamard()
    psi = Ket(h @ KET_0.amps)
    final = h @ free_evolution(delta, t, psi).amps
    return float(abs(final[0]) ** 2)
