"""Dense complex linear algebra kernel.

Everything downstream (oscillators, qubits, charge boxes, cavities) runs on
the handful of primitives defined here: a normalized state vector (`Ket`),
Hermitian eigendecomposition via cyclic Jacobi rotations, the lowest
eigenvalues of tridiagonal matrices via Sturm bisection, Kronecker products
and spectral time evolution ``U(t) = exp(-i H t)`` with hbar = 1.

Operators are plain ``numpy.ndarray`` matrices (complex128, row-major); a
dedicated matrix class would add nothing but indirection at these sizes
(everything in this package is well under ~200 dimensions).

The eigensolvers are implemented here rather than delegated to LAPACK so
that their iteration counts, convergence criteria and eigenvector phase
convention are explicit and bit-reproducible across runs.  Both operate on a
whole batch of same-sized matrices at once:

* `hermitian_eigen_batch` - cyclic Jacobi rotations on dense Hermitian
  matrices, with eigenvectors.  Every caller that needs eigenvectors
  (`hermitian_eigen`, `evolve`, the cavity and gate simulations) uses it.
* `tridiagonal_eigvalsh` - Sturm-count bisection (Barth, Martin &
  Wilkinson 1967) for the k lowest eigenvalues of real symmetric
  tridiagonal matrices, never forming the dense matrix.  The charge-box
  spectrum sweeps use it: one sweep over a 201-point gate-charge grid is a
  single batched bisection.

All functions are pure: inputs are never mutated, outputs are fresh arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian

__all__ = [
    "Ket",
    "HermitianEigen",
    "hermitian_eigen",
    "hermitian_eigen_batch",
    "tridiagonal_eigvalsh",
    "kron",
    "evolve",
    "expectation",
    "dagger",
    "fidelity",
]

#: Sweep cap for the Jacobi iteration.  Quadratic convergence means well
#: under 15 sweeps in practice even at dimension 64; hitting the cap is a
#: genuine failure reported as NoConvergence.
MAX_SWEEPS = 100

#: Convergence: off-diagonal Frobenius norm below TOL * ||A||_F.
TOL = 1e-12

_HERMITICITY_TOL = 1e-10
_NORM_TOL = 1e-10
_EPS = float(np.finfo(np.float64).eps)
_SAFMIN = float(np.finfo(np.float64).tiny)


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.swapaxes(a, -1, -2))


@dataclass(frozen=True)
class Ket:
    """Normalized complex state vector over a finite, labelled basis.

    Parameters
    ----------
    amps :
        Complex amplitudes.  Must be finite and have unit Euclidean norm
        within 1e-10 (physical states only; unnormalized intermediates
        should stay as raw arrays inside operations).
    basis :
        Free-form tag naming the basis ("fock", "charge", "qubit", ...).
    """

    amps: np.ndarray
    basis: str = ""

    def __post_init__(self):
        # private contiguous copy: never alias (or freeze) caller memory
        amps = np.array(self.amps, dtype=np.complex128).reshape(-1)
        if not (np.all(np.isfinite(amps.real)) and np.all(np.isfinite(amps.imag))):
            raise ValueError("ket amplitudes must be finite")
        nrm = np.linalg.norm(amps)
        if abs(nrm - 1.0) > _NORM_TOL:
            raise ValueError(f"ket norm {nrm!r} differs from 1 beyond 1e-10")
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return self.amps.shape[0]

    def overlap(self, other: "Ket") -> complex:
        """Inner product <self|other>."""
        if self.dim != other.dim:
            raise DimensionMismatch("kets live in different spaces")
        return complex(np.vdot(self.amps, other.amps))

    def fidelity(self, other: "Ket") -> float:
        """Phase-insensitive overlap |<self|other>|^2."""
        return abs(self.overlap(other)) ** 2

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


def fidelity(a: Ket | np.ndarray, b: Ket | np.ndarray) -> float:
    """|<a|b>|^2 for kets or raw amplitude vectors."""
    va = a.amps if isinstance(a, Ket) else np.asarray(a)
    vb = b.amps if isinstance(b, Ket) else np.asarray(b)
    if va.shape != vb.shape:
        raise DimensionMismatch("state dimensions differ")
    return abs(np.vdot(va, vb)) ** 2


@dataclass(frozen=True)
class HermitianEigen:
    """Eigendecomposition of a Hermitian matrix.

    ``values`` are sorted ascending; column k of ``vectors`` is the
    eigenvector for ``values[k]``.  Columns are orthonormal and carry a
    fixed phase: the largest-magnitude component of each eigenvector is
    real and non-negative, which makes decompositions reproducible.
    """

    values: np.ndarray
    vectors: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "dim", int(self.values.shape[0]))


def _check_hermitian(a: np.ndarray) -> None:
    scale = np.abs(a).max() if a.size else 0.0
    drift = np.abs(a - dagger(a)).max() if a.size else 0.0
    if drift > _HERMITICITY_TOL * max(scale, 1e-300):
        raise NotHermitian(f"max |A - A^H| = {drift:.3e} exceeds tolerance")


def hermitian_eigen_batch(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a stack of Hermitian matrices with cyclic Jacobi rotations.

    Parameters
    ----------
    mats :
        Array of shape (batch, n, n).  Each matrix must be Hermitian within
        ``1e-10 * max|A|``.  Real symmetric input takes a float fast path.

    Returns
    -------
    (values, vectors) :
        values has shape (batch, n), ascending per matrix; vectors has shape
        (batch, n, n) with eigenvectors in columns.

    Raises
    ------
    NotHermitian, NoConvergence
    """
    a = np.asarray(mats)
    if a.ndim != 3 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected (batch, n, n) stack, got {a.shape}")
    _check_hermitian(a)
    real_input = not np.iscomplexobj(a) or np.abs(a.imag).max() == 0.0
    if real_input:
        a = np.array(a.real, dtype=np.float64)
    else:
        a = np.array(a, dtype=np.complex128)
    n = a.shape[-1]
    if n == 1:
        vals = a[:, 0, 0].real.reshape(-1, 1).copy()
        return vals, np.ones_like(a, dtype=np.complex128)

    v = np.zeros_like(a)
    v[:, np.arange(n), np.arange(n)] = 1.0

    norm = np.sqrt((np.abs(a) ** 2).sum(axis=(1, 2)))
    target = TOL * np.maximum(norm, 1e-300)
    # Skipping a pivot whose whole batch is below target/(2n) keeps the total
    # off-diagonal mass below target, so skips cannot mask non-convergence.
    thr = target / (2 * n)
    offmask = ~np.eye(n, dtype=bool)

    for sweep in range(MAX_SWEEPS + 1):
        off = np.sqrt(((np.abs(a) ** 2) * offmask).sum(axis=(1, 2)))
        if np.all(off <= target):
            return _finish(a, v)
        if sweep == MAX_SWEEPS:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[:, p, q].copy()
                babs = np.abs(apq)
                if not np.any(babs > thr):
                    continue
                # Diagonal entries must be detached copies: the row writes
                # below would otherwise mutate them through the view.
                app = a[:, p, p].real.copy()
                aqq = a[:, q, q].real.copy()
                nz = babs > 0.0
                safe = np.where(nz, babs, 1.0)
                phase = np.where(nz, apq / safe, 1.0)
                with np.errstate(over="ignore"):
                    tau = (aqq - app) / (2.0 * safe)
                    t = np.sign(tau) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
                t = np.where(tau == 0.0, 1.0, t)  # degenerate pair: 45 degrees
                t = np.where(nz, t, 0.0)
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # Unitary J is the identity with the (p,q) block replaced by
                # [[phase*c, phase*s], [-s, c]]; A <- J^H A J zeroes A[p,q].
                cjpp = np.conj(phase) * c
                cjps = np.conj(phase) * s
                rp = a[:, p, :].copy()
                rq = a[:, q, :].copy()
                new_p = cjpp[:, None] * rp - s[:, None] * rq
                new_q = cjps[:, None] * rp + c[:, None] * rq
                a[:, p, :] = new_p
                a[:, q, :] = new_q
                a[:, :, p] = np.conj(new_p)
                a[:, :, q] = np.conj(new_q)
                a[:, p, p] = app - t * babs
                a[:, q, q] = aqq + t * babs
                a[:, p, q] = 0.0
                a[:, q, p] = 0.0
                vp = v[:, :, p].copy()
                vq = v[:, :, q].copy()
                v[:, :, p] = np.conj(cjpp)[:, None] * vp - s[:, None] * vq
                v[:, :, q] = np.conj(cjps)[:, None] * vp + c[:, None] * vq
    raise NoConvergence(f"Jacobi iteration did not converge in {MAX_SWEEPS} sweeps")


def _finish(a, v):
    """Sort ascending, fix eigenvector phases, cast vectors to complex."""
    vals = np.diagonal(a, axis1=1, axis2=2).real.copy()
    order = np.argsort(vals, axis=1, kind="stable")
    vals = np.take_along_axis(vals, order, axis=1)
    v = np.take_along_axis(v, order[:, None, :], axis=2)
    idx = np.argmax(np.abs(v), axis=1)
    lead = np.take_along_axis(v, idx[:, None, :], axis=1)[:, 0, :]
    absl = np.abs(lead)
    ph = np.where(absl > 0, lead / np.where(absl > 0, absl, 1.0), 1.0)
    v = (v * np.conj(ph)[:, None, :]).astype(np.complex128)
    return vals, v


def hermitian_eigen(a: np.ndarray) -> HermitianEigen:
    """Eigendecomposition of one square Hermitian matrix.

    Deterministic for fixed input: the cyclic pivot order, the convergence
    threshold (off-diagonal Frobenius norm < 1e-12 * ||A||_F, at most 100
    sweeps) and the eigenvector phase fix are all fixed by construction.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    vals, vecs = hermitian_eigen_batch(a[None, :, :])
    return HermitianEigen(values=vals[0], vectors=vecs[0])


def tridiagonal_eigvalsh(diag: np.ndarray, off, k: int) -> np.ndarray:
    """k lowest eigenvalues of a stack of real symmetric tridiagonal matrices.

    Parameters
    ----------
    diag :
        Diagonals, shape (batch, n).
    off :
        Off-diagonals, broadcastable to (batch, n - 1); a scalar gives every
        matrix the same constant coupling.
    k :
        Number of levels, 1 <= k <= n.

    Returns
    -------
    values :
        Shape (batch, k), ascending per matrix.

    Sturm-count bisection: the number of negative pivots of the LDL^T
    factorization of T - x I is the number of eigenvalues below x.  Every
    (matrix, level) bracket starts at the matrix's Gershgorin interval and is
    halved a fixed number of times, enough to shrink the widest bracket of
    the batch below eps * ||T|| / 16, so the work and the bits of the result
    depend on the input alone.  As in LAPACK's dstebz, a pivot smaller than
    pivmin = tiny * max(1, max e_i^2) is replaced by -pivmin, which keeps
    zero couplings and exact degeneracies finite.  Work and memory per
    halving are O(batch * k * n); no n x n matrix is formed.
    """
    d = np.asarray(diag, dtype=np.float64)
    if d.ndim != 2 or d.shape[1] < 1:
        raise DimensionMismatch(f"expected (batch, n) diagonals, got shape {d.shape}")
    batch, n = d.shape
    if not 1 <= k <= n:
        raise ValueError(f"k must be within [1, {n}]")
    e = np.broadcast_to(np.asarray(off, dtype=np.float64), (batch, n - 1))
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise ValueError("tridiagonal entries must be finite")
    e2 = e * e
    pivmin = _SAFMIN * max(1.0, float(e2.max(initial=0.0)))

    radius = np.zeros((batch, n))
    radius[:, :-1] += np.abs(e)
    radius[:, 1:] += np.abs(e)
    lo = (d - radius).min(axis=1)
    hi = (d + radius).max(axis=1)
    tnorm = np.maximum(np.abs(lo), np.abs(hi))
    # dstebz's widening keeps eigenvalues on the Gershgorin ends bracketed.
    pad = 2.1 * (_EPS * n * tnorm + 2.0 * pivmin)
    lo, hi = lo - pad, hi + pad
    # Sturm counts resolve the low levels of a graded matrix (large diagonal
    # entries far from the levels' support) well below eps * ||T||.
    atol = np.maximum(_EPS * tnorm / 16.0, pivmin)
    halvings = int(np.ceil(np.log2(((hi - lo) / atol).max())))

    lo = np.repeat(lo[:, None], k, axis=1)
    hi = np.repeat(hi[:, None], k, axis=1)
    levels = np.arange(k)
    d_rows = d.T[:, :, None]
    e2_rows = np.repeat(e2.T[:, :, None], k, axis=2)
    q = np.empty((batch, k))
    ratio = np.empty((batch, k))
    negative = np.empty((n, batch, k), dtype=bool)
    for _ in range(halvings):
        mid = 0.5 * (lo + hi)
        shifted = d_rows - mid
        q[...] = shifted[0]
        for i in range(n):
            if i:
                np.divide(e2_rows[i - 1], q, out=ratio)
                np.subtract(shifted[i], ratio, out=q)
            # After the guard, q < 0 exactly where q < pivmin before it.
            np.less(q, pivmin, out=negative[i])
            np.minimum(q, -pivmin, out=ratio)
            np.copyto(q, ratio, where=negative[i])
        below = negative.sum(axis=0) > levels  # level j lies below mid
        hi = np.where(below, mid, hi)
        lo = np.where(below, lo, mid)
    return 0.5 * (lo + hi)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker (tensor) product with the standard block layout."""
    return np.kron(np.asarray(a), np.asarray(b))


def _evolve_amps(eig: HermitianEigen, t: float, amps: np.ndarray) -> np.ndarray:
    phases = np.exp(-1j * eig.values * t)
    return eig.vectors @ (phases * (dagger(eig.vectors) @ amps))


def evolve(h: np.ndarray, t: float, psi0: Ket) -> Ket:
    """Propagate ``psi0`` under ``U(t) = exp(-i H t)`` (hbar = 1).

    Uses the spectral decomposition of H, so the result is exactly unitary
    up to roundoff and ``evolve(h, 0, psi)`` returns ``psi`` unchanged.
    The global phase is kept as produced; compare states with `fidelity`.
    """
    h = np.asarray(h)
    if h.shape[0] != psi0.dim:
        raise DimensionMismatch("Hamiltonian and state dimensions differ")
    if t == 0:
        return psi0
    eig = hermitian_eigen(h)
    return Ket(_evolve_amps(eig, t, psi0.amps), basis=psi0.basis)


def evolve_many(h: np.ndarray, times: np.ndarray, psi0: Ket) -> list[Ket]:
    """`evolve` at several times sharing a single eigendecomposition.

    Element k equals ``evolve(h, times[k], psi0)`` bit for bit, including
    ``psi0`` itself at t = 0.
    """
    h = np.asarray(h)
    if h.shape[0] != psi0.dim:
        raise DimensionMismatch("Hamiltonian and state dimensions differ")
    eig = hermitian_eigen(h)
    return [
        psi0 if t == 0 else Ket(_evolve_amps(eig, float(t), psi0.amps), basis=psi0.basis)
        for t in times
    ]


def expectation(a: np.ndarray, psi: Ket) -> complex:
    """<psi| A |psi>.  Real within roundoff whenever A is Hermitian."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("operator must be square")
    if a.shape[0] != psi.dim:
        raise DimensionMismatch("operator and state dimensions differ")
    return complex(np.vdot(psi.amps, a @ psi.amps))
