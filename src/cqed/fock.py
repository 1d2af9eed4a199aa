"""Truncated harmonic-oscillator (Fock) space.

Ladder, number and quadrature operators on the lowest ``dim`` levels,
coherent states, free evolution and the mode frequencies of half- and
quarter-wave cavities.  Units: hbar = 1, so omega0 is an energy.

Truncation is the one place where the finite basis shows through: the
commutator [a, a^dag] equals the identity except for its top diagonal
entry, which is -(dim-1) instead of 1, so [a, a^dag] - I has -dim there
(to within the roundoff of squaring sqrt(n)).  Coherent-state constructors
enforce an adequacy rule so the discarded Poisson tail stays below 1e-8 in
norm.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, TruncationTooSmall
from .linalg import Ket, expectation

__all__ = [
    "FockBasis",
    "LadderOps",
    "ladder_suite",
    "fock_ket",
    "coherent_ket",
    "coherent_evolution",
    "quad_stats",
    "cavity_mode_freq",
]

_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class FockBasis:
    """Levels |0> ... |dim-1> of one oscillator mode."""

    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("a truncated Fock basis needs at least 2 levels")


@dataclass(frozen=True)
class LadderOps:
    """Matrix suite for one truncated mode.

    lower |n> = sqrt(n) |n-1>, raise_ = lower^dag, number = raise_ @ lower,
    and the quadratures x1 = (a + a^dag)/2, x2 = -i (a - a^dag)/2.
    """

    lower: np.ndarray
    raise_: np.ndarray
    number: np.ndarray
    x1: np.ndarray
    x2: np.ndarray


def ladder_suite(basis: FockBasis) -> LadderOps:
    """Build annihilation/creation, number and quadrature matrices."""
    n = basis.dim
    lower = np.diag(np.sqrt(np.arange(1, n)), 1).astype(np.complex128)
    raise_ = lower.conj().T
    return LadderOps(
        lower=lower,
        raise_=raise_,
        number=raise_ @ lower,
        x1=0.5 * (lower + raise_),
        x2=-0.5j * (lower - raise_),
    )


def fock_ket(n: int, basis: FockBasis) -> Ket:
    """Number state |n>."""
    if not 0 <= n < basis.dim:
        raise DimensionMismatch(f"|{n}> does not fit in {basis.dim} levels")
    amps = np.zeros(basis.dim, dtype=np.complex128)
    amps[n] = 1.0
    return Ket(amps)


def min_dim_for(alpha: complex) -> int:
    """Smallest truncation the adequacy rule accepts for amplitude alpha."""
    a = abs(alpha)
    return int(np.ceil(a * a + 10.0 * a + 10.0))


def coherent_ket(alpha: complex, basis: FockBasis) -> Ket:
    """Truncated coherent state |alpha>, renormalized.

    Amplitudes follow the recursion c_{n+1} = alpha c_n / sqrt(n+1) from
    c_0 = exp(-|alpha|^2 / 2), which avoids factorials entirely.  Requires
    ``basis.dim >= |alpha|^2 + 10 |alpha| + 10`` and a pre-renormalization
    norm deficit below 1e-8; both failures raise TruncationTooSmall.
    """
    if basis.dim < min_dim_for(alpha):
        raise TruncationTooSmall(
            f"dim {basis.dim} < adequacy bound {min_dim_for(alpha)} for |alpha|={abs(alpha):.3g}"
        )
    amps = np.empty(basis.dim, dtype=np.complex128)
    amps[0] = np.exp(-0.5 * abs(alpha) ** 2)
    for n in range(basis.dim - 1):
        amps[n + 1] = alpha * amps[n] / np.sqrt(n + 1.0)
    nrm = np.linalg.norm(amps)
    if 1.0 - nrm * nrm > _RESIDUAL_TOL:
        raise TruncationTooSmall(
            f"truncated norm deficit {1.0 - nrm * nrm:.3e} exceeds {_RESIDUAL_TOL}"
        )
    return Ket(amps / nrm)


def coherent_evolution(
    alpha: complex, omega0: float, t: float, basis: FockBasis
) -> dict[str, Ket]:
    """Free evolution of |alpha>, analytically and numerically.

    analytic: |alpha exp(+i omega0 t)>, the phase convention in which the
    Fock state |n> picks up exp(+i n omega0 t).  numeric: evolution under
    H = -omega0 * number, which realizes the same convention.  H is
    diagonal, so U(t) multiplies each amplitude by exp(-i E_n t), with E_n
    read off the diagonal of the number operator.
    """
    analytic = coherent_ket(alpha * np.exp(1j * omega0 * t), basis)
    energies = -omega0 * np.diag(ladder_suite(basis).number).real
    numeric = Ket(np.exp(-1j * energies * t) * coherent_ket(alpha, basis).amps)
    return {"analytic": analytic, "numeric": numeric}


@functools.lru_cache(maxsize=1)
def _quadratures(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(x1, x1 @ x1, x2, x2 @ x2) on ``dim`` levels, read-only and shared."""
    ops = ladder_suite(FockBasis(dim))
    mats = (ops.x1, ops.x1 @ ops.x1, ops.x2, ops.x2 @ ops.x2)
    for mat in mats:
        mat.flags.writeable = False
    return mats


def quad_stats(psi: Ket, basis: FockBasis) -> dict[str, float]:
    """Means and variances of the two quadratures in state ``psi``.

    The quadratures and their squares for the last dimension asked for are
    cached read-only, so a sweep over many states of one mode builds them
    once.
    """
    if psi.dim != basis.dim:
        raise DimensionMismatch("state dimension does not match basis")
    x1, x1_sq, x2, x2_sq = _quadratures(basis.dim)
    out = {}
    for name, op, op_sq in (("1", x1, x1_sq), ("2", x2, x2_sq)):
        mean = expectation(op, psi).real
        second = expectation(op_sq, psi).real
        out[f"mean{name}"] = mean
        out[f"var{name}"] = second - mean * mean
    return out


def cavity_mode_freq(kind: str, omega0: float, m: int) -> float:
    """Frequency of harmonic ``m`` of a waveguide cavity.

    A half-wave cavity supports omega_m = (m+1) omega0; grounding one end
    (quarter-wave) removes the even harmonics, omega_m = (2m+1) omega0.
    """
    if m < 0:
        raise ValueError("harmonic index must be >= 0")
    if kind == "half-wave":
        return (m + 1) * omega0
    if kind == "quarter-wave":
        return (2 * m + 1) * omega0
    raise ValueError(f"unknown cavity kind {kind!r}")
