"""Truncated harmonic-oscillator (Fock) space.

Coherent states on the lowest ``dim`` levels, their free evolution and the
quadrature statistics of any state, all from the bidiagonal ladder's sqrt(n):
no dense operator matrix is built.  The truncation is a plain level count,
``dim``; `quad_stats` reads it off the state's last axis.
Units: hbar = 1, so omega0 is an energy.

Truncation is the one place where the finite basis shows through: the
commutator [a, a^dag] equals the identity except for its top diagonal
entry, which is -(dim-1) instead of 1, so [a, a^dag] - I has -dim there
(to within the roundoff of squaring sqrt(n)).  Coherent states come from one
batched recursion, each row bit-identical to the scalar one (`_coherent_rows`),
under an adequacy rule that keeps the discarded Poisson tail below 1e-8 in norm.
"""

from __future__ import annotations

import numpy as np

from .errors import TruncationTooSmall
from .linalg import Ket, check_kets

__all__ = [
    "coherent_ket",
    "coherent_evolution",
    "quad_stats",
]

_RESIDUAL_TOL = 1e-8


def _product(a, b) -> np.ndarray:
    """a * b on real and imaginary parts, each element rounded as numpy's scalar product."""
    out = np.empty(np.broadcast(a, b).shape, dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _check_adequate(alpha, dim: int) -> None:
    """Raise TruncationTooSmall if ``dim`` < |alpha|^2 + 10 |alpha| + 10."""
    a = abs(alpha)
    bound = int(np.ceil(a * a + 10.0 * a + 10.0))
    if dim < bound:
        raise TruncationTooSmall(f"dim {dim} < adequacy bound {bound} for |alpha|={a:.3g}")


def _coherent_rows(alphas, dim: int) -> np.ndarray:
    """Renormalized truncated |alpha> for each of ``alphas``, one row each: (len(alphas), dim).

    c_{n+1} = alpha c_n / sqrt(n+1) runs once over the stack, each element equal
    to scalar numpy arithmetic on its one alpha: |alpha| as np.hypot (np.abs on a
    complex array rounds differently), |alpha|^2 in c_0 as np.float_power, products
    on real and imaginary parts (the array complex multiply may fuse them with
    FMA), complex-by-real division (a reciprocal multiply differs in signs of
    zero), and each row's norm from stacked dots of its real and imaginary parts,
    as `np.linalg.norm` does.  The first alpha whose adequacy bound is over
    ``dim``, or not finite, raises through `_check_adequate`, as it always has;
    an alpha whose c_0 is subnormal or 0 (|alpha| over about 37.64) raises
    before the recursion runs, and so does a norm that misses 1 either way.
    """
    values = np.asarray(alphas, dtype=np.complex128)
    with np.errstate(over="ignore"):
        a = np.hypot(values.real, values.imag)
        bound = np.ceil(a * a + 10.0 * a + 10.0)
    # NaN fails every comparison, so this picks it out as well
    bad = np.flatnonzero(~(bound <= dim))
    if bad.size:
        _check_adequate(alphas[bad[0]], dim)
    c0 = np.exp(-0.5 * np.float_power(a, 2.0))
    # A subnormal c_0 keeps too few significant bits for the norm check to mean anything.
    bad = np.flatnonzero(c0 < np.finfo(np.float64).tiny)
    if bad.size:
        k = bad[0]
        if c0[k] == 0.0:
            raise TruncationTooSmall(
                f"c_0 = exp(-|alpha|^2 / 2) underflows to 0 for |alpha|={a[k]:.6g}")
        raise TruncationTooSmall(
            f"c_0 = exp(-|alpha|^2 / 2) = {c0[k]:.3e} is subnormal for |alpha|={a[k]:.6g}")
    amps = np.empty((len(values), dim), dtype=np.complex128)
    amps[:, 0] = c0
    for n in range(dim - 1):
        amps[:, n + 1] = _product(values, amps[:, n]) / np.sqrt(n + 1.0)
    nrm = np.sqrt(np.vecdot(amps.real, amps.real) + np.vecdot(amps.imag, amps.imag))
    deficit = 1.0 - nrm * nrm
    bad = np.flatnonzero(np.abs(deficit) > _RESIDUAL_TOL)
    if bad.size:
        worst = deficit[bad[0]]
        raise TruncationTooSmall(f"truncated norm deficit {worst:.3e} exceeds {_RESIDUAL_TOL}")
    amps /= nrm[:, None]
    return amps


def coherent_ket(alpha: complex, dim: int) -> Ket:
    """Truncated coherent state |alpha>, renormalized.

    Amplitudes follow the recursion c_{n+1} = alpha c_n / sqrt(n+1) from
    c_0 = exp(-|alpha|^2 / 2), which avoids factorials entirely.  Requires
    ``dim >= |alpha|^2 + 10 |alpha| + 10``, a c_0 that is a normal
    float64, at least 2^-1022 (|alpha| up to about 37.64), and a
    pre-renormalization norm within 1e-8 of 1 either way; each failure raises
    TruncationTooSmall.
    """
    return Ket(_coherent_rows([alpha], dim)[0])


def coherent_evolution(
    alpha: complex, omega0: float, times: np.ndarray, dim: int
) -> dict[str, np.ndarray]:
    """Free evolution of |alpha>, analytically and numerically, at each of ``times``.

    analytic: |alpha exp(+i omega0 t)>, the phase convention in which the
    Fock state |n> picks up exp(+i n omega0 t).  numeric: evolution under
    H = -omega0 * number, which realizes the same convention.  H is
    diagonal, so U(t) multiplies each amplitude by exp(-i E_n t), with
    E_n = -omega0 n and n = sqrt(n)^2, bit for bit the diagonal of the dense
    a^dag a.  Returns "alpha" (alpha_t) and the "analytic" and "numeric"
    (len(times), dim) kets, checked as `Ket`.
    """
    energies = -omega0 * np.square(np.sqrt(np.arange(dim)))
    numeric = np.exp(-1j * np.outer(times, energies)) * coherent_ket(alpha, dim).amps
    check_kets(numeric)
    alphas = _product(complex(alpha), np.exp(_product(1j * omega0, np.asarray(times, float))))
    analytic = _coherent_rows(alphas, dim)
    check_kets(analytic)
    return {"alpha": alphas, "analytic": analytic, "numeric": numeric}


def quad_stats(psi: Ket | np.ndarray) -> dict:
    """Means and variances of the two quadratures in state ``psi``.

    ``psi`` is a Ket, or a (k, dim) stack of kets' amplitudes, which gives k
    values per key; the truncation dim is the length of its last axis.
    x1 psi = (a psi + a^dag psi) / 2 and x2 psi = -i (a psi - a^dag psi) / 2
    are shifted products with sqrt(n), formed about 2^13 amplitudes at a time;
    the means are <psi|x psi> and the second moments ||x psi||^2.
    """
    amps = psi.amps if isinstance(psi, Ket) else np.asarray(psi)
    dim = amps.shape[-1]
    root_n = np.sqrt(np.arange(1, dim))
    rows = amps.reshape(-1, dim)
    sums = np.empty((4, len(rows)))
    step = max(1, 2**13 // dim)
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        lower = np.pad(block[:, 1:] * root_n, ((0, 0), (0, 1)))  # a psi
        raised = np.pad(block[:, :-1] * root_n, ((0, 0), (1, 0)))  # a^dag psi
        for k, applied in enumerate((0.5 * (lower + raised), -0.5j * (lower - raised))):
            sums[2 * k, start:start + step] = np.vecdot(block, applied).real
            sums[2 * k + 1, start:start + step] = np.vecdot(applied, applied).real
    mean1, second1, mean2, second2 = sums.reshape(4, *amps.shape[:-1])
    return {"mean1": mean1, "var1": second1 - mean1 * mean1,
            "mean2": mean2, "var2": second2 - mean2 * mean2}
