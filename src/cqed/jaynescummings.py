"""Resonant qubit-cavity exchange (Jaynes-Cummings) on a truncated space.

The coupling H = g (a sigma_+ + a^dag sigma_-) with hbar = 1 exchanges one
excitation between cavity and qubit: H |n, 0> = g sqrt(n) |n-1, 1> and
H |n, 1> = g sqrt(n+1) |n+1, 0>.

H conserves the excitation number n + q, so it splits into 2x2 blocks
{|n,1>, |n+1,0>} with coupling g sqrt(n+1) (Shore & Knight, J. Mod. Opt.
40 (1993) 1195).  Started from |0, 1> the state never leaves the first
block, where it follows cos(gt) |0,1> - i sin(gt) |1,0> exactly, in any
truncation that holds |1,0>.  Its populations are cos^2(gt) and sin^2(gt), so
`vacuum_rabi` builds neither H nor a state vector, and both functions take
the coupling g (energy units, g > 0 for a transfer time) as a plain number.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "vacuum_rabi",
    "transfer_time",
]


def vacuum_rabi(g: float, times: np.ndarray) -> dict[str, np.ndarray]:
    """Populations of |0, 1> evolved under the exchange coupling, at each sampled time.

    On the orbit cos(gt) |0,1> - i sin(gt) |1,0>, in any truncation, the qubit
    excited-state population is cos^2(gt) and the mean cavity photon number
    (the |1,0> population) is sin^2(gt).
    """
    gt = g * np.asarray(times, dtype=np.float64)
    return {"p_qubit_excited": np.cos(gt) ** 2, "p_photon": np.sin(gt) ** 2}


def transfer_time(g: float) -> float:
    """Time pi / 2g for the excitation to move entirely into the cavity."""
    # numpy's operations, so a quotient that overflows raises under np.errstate
    return np.divide(np.pi, np.multiply(2.0, g))
