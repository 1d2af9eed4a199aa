"""Two-level algebra: Pauli matrices, Bloch sphere, rotations, Rabi/Ramsey.

Conventions (all with hbar = 1):

* Basis order is (|0>, |1>) with |0> the ground state, so the free
  Hamiltonian of a qubit with gap ``delta`` is H0 = -delta/2 * sigma_z and
  U0(t) = diag(exp(+i delta t / 2), exp(-i delta t / 2)).  At t = pi/(2 delta)
  this maps |+> -> |-i> (a 90-degree rotation about the 0-1 axis).
* ``rotate`` applies U_n(theta) = exp(-i theta/2 n.sigma), a right-handed
  rotation of the Bloch sphere by theta about the unit axis n.
* Global phases are physically meaningless here; state comparisons should
  use fidelity, never componentwise equality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotUnitAxis
from .timeseries import TimeSeries

__all__ = [
    "QubitKet",
    "BlochVector",
    "pauli",
    "hadamard",
    "bloch",
    "bloch_of_density",
    "rotate",
    "free_evolution",
    "rabi_trace",
    "ramsey_trace",
    "density_ops",
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

_NORM_TOL = 1e-10


@dataclass(frozen=True)
class QubitKet:
    """Pure qubit state a0 |0> + a1 |1>, normalized within 1e-10."""

    a0: complex
    a1: complex

    def __post_init__(self):
        n2 = abs(self.a0) ** 2 + abs(self.a1) ** 2
        if abs(n2 - 1.0) > _NORM_TOL:
            raise ValueError(f"|a0|^2 + |a1|^2 = {n2!r} differs from 1")

    @property
    def amps(self) -> np.ndarray:
        return np.array([self.a0, self.a1], dtype=np.complex128)

    def fidelity(self, other: "QubitKet") -> float:
        return abs(np.vdot(self.amps, other.amps)) ** 2


KET_0 = QubitKet(1.0, 0.0)
KET_1 = QubitKet(0.0, 1.0)
KET_PLUS = QubitKet(1 / np.sqrt(2), 1 / np.sqrt(2))
KET_MINUS = QubitKet(1 / np.sqrt(2), -1 / np.sqrt(2))
KET_PLUS_I = QubitKet(1 / np.sqrt(2), 1j / np.sqrt(2))
KET_MINUS_I = QubitKet(1 / np.sqrt(2), -1j / np.sqrt(2))


@dataclass(frozen=True)
class BlochVector:
    """Cartesian point on (pure states) or inside (mixed states) the sphere."""

    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    @property
    def norm(self) -> float:
        return float(np.sqrt(self.x**2 + self.y**2 + self.z**2))


def pauli(axis: str) -> np.ndarray:
    """Pauli matrix sigma_axis for axis in {'x', 'y', 'z'} (copies)."""
    try:
        return _SIGMA[axis].copy()
    except KeyError:
        raise ValueError(f"axis must be 'x', 'y' or 'z', got {axis!r}") from None


def hadamard() -> np.ndarray:
    """Hadamard gate (1/sqrt2) [[1, 1], [1, -1]]; its own inverse."""
    return np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)


def bloch(psi: QubitKet) -> BlochVector:
    """Bloch coordinates as overlap differences against the three bases.

    x = |<+|psi>|^2 - |<-|psi>|^2, y likewise in the circular basis and
    z in the computational basis.
    """
    amps = psi.amps
    return BlochVector(
        x=abs(np.vdot(KET_PLUS.amps, amps)) ** 2 - abs(np.vdot(KET_MINUS.amps, amps)) ** 2,
        y=abs(np.vdot(KET_PLUS_I.amps, amps)) ** 2 - abs(np.vdot(KET_MINUS_I.amps, amps)) ** 2,
        z=abs(amps[0]) ** 2 - abs(amps[1]) ** 2,
    )


def bloch_of_density(rho: np.ndarray) -> BlochVector:
    """Bloch vector tr(rho sigma_j); norm <= 1, equal to 1 for pure rho."""
    rho = np.asarray(rho)
    if rho.shape != (2, 2):
        raise DimensionMismatch("density matrix must be 2x2")
    return BlochVector(
        x=float(np.trace(rho @ _SIGMA["x"]).real),
        y=float(np.trace(rho @ _SIGMA["y"]).real),
        z=float(np.trace(rho @ _SIGMA["z"]).real),
    )


def axis_angle_unitary(n: np.ndarray, theta: float) -> np.ndarray:
    """U_n(theta) = cos(theta/2) I - i sin(theta/2) n.sigma."""
    n = np.asarray(n, dtype=np.float64)
    if n.shape != (3,) or abs(np.linalg.norm(n) - 1.0) > _NORM_TOL:
        raise NotUnitAxis("rotation axis must be a 3D unit vector")
    ndots = n[0] * _SIGMA["x"] + n[1] * _SIGMA["y"] + n[2] * _SIGMA["z"]
    return np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * ndots


def rotate(n: np.ndarray, theta: float, psi: QubitKet) -> QubitKet:
    """Rotate ``psi`` by ``theta`` (right-handed) about the unit axis ``n``."""
    out = axis_angle_unitary(n, theta) @ psi.amps
    return QubitKet(complex(out[0]), complex(out[1]))


def free_evolution(delta: float, t: float, psi: QubitKet) -> QubitKet:
    """Evolve under H0 = -delta/2 sigma_z for time t."""
    phase = np.exp(0.5j * delta * t)
    return QubitKet(psi.a0 * phase, psi.a1 * np.conj(phase))


def rabi_trace(omega: float, times: np.ndarray) -> tuple[TimeSeries, TimeSeries]:
    """Ground/excited populations under the coupling H = omega/2 sigma_x.

    Starting from |0>, p0(t) = (1 + cos(omega t))/2 and p1 = 1 - p0.
    """
    times = np.asarray(times, dtype=np.float64)
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    p0 = 0.5 * (1.0 + np.cos(omega * times))
    return (
        TimeSeries(times, p0, label="p0"),
        TimeSeries(times, 1.0 - p0, label="p1"),
    )


def rabi_numeric(omega: float, t: float) -> float:
    """Ground population from explicit evolution under omega/2 sigma_x.

    The propagator exp(-i omega t/2 sigma_x) is the rotation by omega t
    about the x axis.
    """
    return float(abs(rotate(np.array([1.0, 0.0, 0.0]), omega * t, KET_0).a0) ** 2)


def ramsey_trace(delta: float, times: np.ndarray) -> TimeSeries:
    """Ramsey fringe p0(t) = (1 + cos(delta t))/2.

    Closed form for the Hadamard / free-evolve(t) / Hadamard sequence on a
    qubit of gap ``delta`` started in |0>; `ramsey_numeric` runs the actual
    three-step circuit.
    """
    times = np.asarray(times, dtype=np.float64)
    return TimeSeries(times, 0.5 * (1.0 + np.cos(delta * times)), label="p0")


def ramsey_numeric(delta: float, t: float) -> float:
    """Ground population from the explicit three-step Ramsey circuit."""
    h = hadamard()
    psi = QubitKet(*(h @ KET_0.amps))
    final = h @ free_evolution(delta, t, psi).amps
    return float(abs(final[0]) ** 2)


def density_ops(psi: QubitKet, a: np.ndarray) -> dict[str, np.ndarray]:
    """Density matrix rho = |psi><psi| and its image A rho A^dag."""
    a = np.asarray(a, dtype=np.complex128)
    if a.shape != (2, 2):
        raise DimensionMismatch("operator must be 2x2")
    amps = psi.amps
    rho = np.outer(amps, amps.conj())
    return {"rho": rho, "rho_evolved": a @ rho @ a.conj().T}
