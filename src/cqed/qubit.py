"""Two-level closed forms: the six axis states and the Rabi and Ramsey fringes.

Conventions (all with hbar = 1):

* Basis order is (|0>, |1>) with |0> the ground state, so the free
  Hamiltonian of a qubit with gap ``delta`` is H0 = -delta/2 * sigma_z and
  U0(t) = diag(exp(+i delta t / 2), exp(-i delta t / 2)).  At t = pi/(2 delta)
  this maps |+> -> |-i> (a 90-degree rotation about the 0-1 axis).
* Global phases are physically meaningless here; state comparisons should
  use fidelity, never componentwise equality.

The axis states are `cqed.linalg.Ket`s of dimension 2, the outcome kets of
the correlation tables in `cqed.decoherence`.
"""

from __future__ import annotations

import numpy as np

from .linalg import Ket

__all__ = [
    "rabi_trace",
    "ramsey_trace",
    "KET_0",
    "KET_1",
    "KET_PLUS",
    "KET_MINUS",
    "KET_PLUS_I",
    "KET_MINUS_I",
]

KET_0 = Ket([1.0, 0.0])
KET_1 = Ket([0.0, 1.0])
KET_PLUS = Ket([1 / np.sqrt(2), 1 / np.sqrt(2)])
KET_MINUS = Ket([1 / np.sqrt(2), -1 / np.sqrt(2)])
KET_PLUS_I = Ket([1 / np.sqrt(2), 1j / np.sqrt(2)])
KET_MINUS_I = Ket([1 / np.sqrt(2), -1j / np.sqrt(2)])


def rabi_trace(omega: float, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ground/excited populations under the coupling H = omega/2 sigma_x.

    Starting from |0>, p0(t) = (1 + cos(omega t))/2 and p1 = 1 - p0.
    """
    times = np.asarray(times, dtype=np.float64)
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    p0 = 0.5 * (1.0 + np.cos(omega * times))
    return p0, 1.0 - p0


def ramsey_trace(delta: float, times: np.ndarray) -> np.ndarray:
    """Ramsey fringe p0(t) = (1 + cos(delta t))/2.

    Closed form for the Hadamard / free-evolve(t) / Hadamard sequence on a
    qubit of gap ``delta`` started in |0>.
    """
    times = np.asarray(times, dtype=np.float64)
    return 0.5 * (1.0 + np.cos(delta * times))
