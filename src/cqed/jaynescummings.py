"""Resonant qubit-cavity exchange (Jaynes-Cummings) on a truncated space.

The coupling H = g (a sigma_+ + a^dag sigma_-) with hbar = 1 exchanges one
excitation between cavity and qubit: H |n, 0> = g sqrt(n) |n-1, 1> and
H |n, 1> = g sqrt(n+1) |n+1, 0>.  Product states are ordered cavity-major,
|n> (x) |q>, and every index goes through `index_of` so the layout is fixed
in exactly one place.

H conserves the excitation number n + q, so it splits into 2x2 blocks
{|n,1>, |n+1,0>} with coupling g sqrt(n+1) (Shore & Knight, J. Mod. Opt.
40 (1993) 1195).  Started from |0, 1> the state never leaves the first
block, where it follows cos(gt) |0,1> - i sin(gt) |1,0> exactly; that orbit
is computed directly, without building or diagonalizing H, and any
nmax >= 2 holds it.  Its populations are cos^2(gt) and sin^2(gt), so
`vacuum_rabi` builds no state vectors at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Ket

__all__ = [
    "JCParams",
    "JCSpace",
    "index_of",
    "vacuum_rabi",
    "vacuum_rabi_closed_form",
    "transfer_time",
]


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


def _orbit(g: float, times: np.ndarray, space: JCSpace) -> np.ndarray:
    """Row k: the amplitudes of cos(g t) |0,1> - i sin(g t) |1,0> at t = times[k]."""
    amps = np.zeros((len(times), space.dim), dtype=np.complex128)
    amps[:, index_of(0, 1, space)] = np.cos(g * times)
    amps[:, index_of(1, 0, space)] = -1j * np.sin(g * times)
    return amps


def vacuum_rabi_closed_form(g: float, t: float, space: JCSpace) -> Ket:
    """cos(gt) |0,1> - i sin(gt) |1,0>, the exact single-excitation orbit."""
    return Ket(_orbit(g, np.array([t], dtype=np.float64), space)[0])


def vacuum_rabi(params: JCParams, times: np.ndarray) -> dict[str, np.ndarray]:
    """Populations of |0, 1> evolved under the exchange coupling, at each sampled time.

    On the orbit cos(gt) |0,1> - i sin(gt) |1,0>, in any truncation, the qubit
    excited-state population is cos^2(gt) and the mean cavity photon number
    (the |1,0> population) is sin^2(gt); `vacuum_rabi_closed_form` gives the state.
    """
    gt = params.g * np.asarray(times, dtype=np.float64)
    return {"p_qubit_excited": np.cos(gt) ** 2, "p_photon": np.sin(gt) ** 2}


def transfer_time(params: JCParams) -> float:
    """Time pi / 2g for the excitation to move entirely into the cavity."""
    return np.pi / (2.0 * params.g)
