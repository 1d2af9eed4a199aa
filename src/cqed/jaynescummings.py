"""Resonant qubit-cavity exchange (Jaynes-Cummings) on a truncated space.

The coupling H = g (a sigma_+ + a^dag sigma_-) with hbar = 1 exchanges one
excitation between cavity and qubit: H |n, 0> = g sqrt(n) |n-1, 1> and
H |n, 1> = g sqrt(n+1) |n+1, 0>.  Product states are ordered cavity-major,
|n> (x) |q>, and every index goes through `index_of` so the layout is fixed
in exactly one place.

Started from |0, 1> the dynamics stay in the single-excitation pair
{|0,1>, |1,0>}, so any nmax >= 2 is exact for these experiments; the
truncation knob exists for future driven extensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import FockBasis, ladder_suite
from .linalg import Ket, hermitian_eigen, kron
from .timeseries import TimeSeries

__all__ = [
    "JCParams",
    "JCSpace",
    "index_of",
    "jc_hamiltonian",
    "vacuum_rabi",
    "vacuum_rabi_closed_form",
    "transfer_time",
]

_SIGMA_PLUS = np.array([[0, 0], [1, 0]], dtype=np.complex128)   # |1><0|
_SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=np.complex128)  # |0><1|


@dataclass(frozen=True)
class JCParams:
    """Exchange coupling strength g > 0 (energy units)."""

    g: float

    def __post_init__(self):
        if not self.g > 0:
            raise ValueError("coupling g must be positive")


@dataclass(frozen=True)
class JCSpace:
    """nmax cavity levels (x) one qubit; dimension 2 nmax."""

    nmax: int = 4

    def __post_init__(self):
        if self.nmax < 2:
            raise ValueError("need at least 2 cavity levels")

    @property
    def dim(self) -> int:
        return 2 * self.nmax


def index_of(n: int, q: int, space: JCSpace) -> int:
    """Flat index of |n, q| in the cavity-major product ordering."""
    if not 0 <= n < space.nmax:
        raise ValueError(f"cavity level {n} outside 0..{space.nmax - 1}")
    if q not in (0, 1):
        raise ValueError("qubit state must be 0 or 1")
    return 2 * n + q


def product_ket(n: int, q: int, space: JCSpace) -> Ket:
    """Product basis state |n, q>."""
    amps = np.zeros(space.dim, dtype=np.complex128)
    amps[index_of(n, q, space)] = 1.0
    return Ket(amps, basis="cavity*qubit")


def jc_hamiltonian(params: JCParams, space: JCSpace) -> np.ndarray:
    """g (a (x) sigma_+ + a^dag (x) sigma_-) on the truncated product space."""
    ops = ladder_suite(FockBasis(space.nmax))
    return params.g * (kron(ops.lower, _SIGMA_PLUS) + kron(ops.raise_, _SIGMA_MINUS))


def vacuum_rabi_closed_form(g: float, t: float, space: JCSpace) -> Ket:
    """cos(gt) |0,1> - i sin(gt) |1,0>, the exact single-excitation orbit."""
    amps = np.zeros(space.dim, dtype=np.complex128)
    amps[index_of(0, 1, space)] = np.cos(g * t)
    amps[index_of(1, 0, space)] = -1j * np.sin(g * t)
    return Ket(amps, basis="cavity*qubit")


def vacuum_rabi(
    params: JCParams, times: np.ndarray, space: JCSpace
) -> dict[str, object]:
    """Evolve |0, 1> under the exchange coupling at each sampled time.

    Returns the qubit excited-state population, the mean cavity photon
    number (equal to the |1,0> population in the single-excitation
    manifold) and, under ``"amps"``, the amplitudes of the state at
    ``times[k]`` as row k of a (len(times), dim) array.
    """
    times = np.asarray(times, dtype=np.float64)
    h = jc_hamiltonian(params, space)
    eig = hermitian_eigen(h)
    psi0 = product_ket(0, 1, space).amps
    weights = eig.vectors.conj().T @ psi0

    qubit_idx = np.array([index_of(n, 1, space) for n in range(space.nmax)])
    photon_numbers = np.repeat(np.arange(space.nmax), 2).astype(np.float64)

    states = np.empty((len(times), space.dim), dtype=np.complex128)
    p_excited = np.empty(len(times))
    p_photon = np.empty(len(times))
    for k, t in enumerate(times):
        states[k] = eig.vectors @ (np.exp(-1j * eig.values * t) * weights)
        probs = np.abs(states[k]) ** 2
        p_excited[k] = probs[qubit_idx].sum()
        p_photon[k] = (photon_numbers * probs).sum()
    return {
        "p_qubit_excited": TimeSeries(times, p_excited, label="p_qubit_excited"),
        "p_photon": TimeSeries(times, p_photon, label="p_photon"),
        "amps": states,
    }


def transfer_time(params: JCParams) -> float:
    """Time pi / 2g for the excitation to move entirely into the cavity."""
    return np.pi / (2.0 * params.g)
