"""Linear algebra kernel: states, overlaps and tridiagonal eigensolvers.

Everything downstream (oscillators, qubits, charge boxes, cavities) runs on
the handful of primitives defined here: a normalized state vector (`Ket`),
fidelities, and the eigenpairs of real symmetric tridiagonal matrices.
`Ket` is the one state type: qubit, two-qubit, oscillator-mode and charge
states are all `Ket`s, and the functions that need a particular space check
the dimension.

Operators are plain ``numpy.ndarray`` matrices (complex128, row-major); a
dedicated matrix class would add nothing but indirection.  No command
builds a dense one, and the tridiagonal ones are never formed, so a
`spectrum` sweep's Sturm blocks may run to thousands of rows.

No dense eigensolver is needed: the cavity and qubit propagators are known
in closed form, and the only matrices diagonalized numerically are the
tridiagonal charge-box Hamiltonians.  Their solvers are implemented here
rather than delegated to LAPACK so that their iteration counts are fixed
and their results bit-reproducible across runs.  They operate on whole
batches of matrices at once and never form an n x n matrix:

* `tridiagonal_eigvalsh_groups` - Sturm-count bisection (Barth, Martin &
  Wilkinson 1967) for the k lowest eigenvalues of one or more batches of
  matrices, which may differ in size, coupling and k, on ragged
  ``[row, column]`` arrays; each batch keeps its own brackets, pivot
  guard and halving count, so its values are bit for bit those of a
  separate call.  A `spectrum` sweep over a 201-point gate-charge grid is
  one batch; the charge-dispersion scans of a whole ratio list, and the
  avoided-crossing gaps of a whole coupling list, run as one bisection.
  A narrow bisection is multisected (Lo, Philippe & Sameh 1987): each
  pass counts the 2^m - 1 dyadic points of every bracket in one sweep and
  takes m halvings, with the bits plain bisection gives.  A pass runs its
  pivot guard only if some pivot needs it (LAPACK's dlaneg, Marques et
  al. 2006).
* `tridiagonal_eigh` - every eigenvalue from that bisection plus its
  eigenvector from inverse iteration, as in LAPACK's dstein.  No command
  needs eigenvectors; it serves acceptance criterion 15 and the tests.

All functions are pure: inputs are never mutated, outputs are fresh arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "Ket",
    "check_kets",
    "tridiagonal_eigvalsh_groups",
    "tridiagonal_eigh",
    "fidelity",
]

_NORM_TOL = 1e-10
_EPS = float(np.finfo(np.float64).eps)
_SAFMIN = float(np.finfo(np.float64).tiny)
#: Inverse-iteration sweeps of `tridiagonal_eigh`.
_SWEEPS = 3
#: Eigenvalues closer than this times ||T|| are re-orthogonalized as a cluster.
_CLUSTER = 1e-3
#: Sturm counts one bisection pass may take: a narrow batch is multisected
#: at up to this many points per pass, a wide one bisected.
_COLUMNS = 1024
#: Sturm pivots in one chunk of a pass, which is counted while in cache.
_CHUNK = 2**15


@dataclass(frozen=True)
class Ket:
    """Normalized complex state vector over a finite basis.

    Parameters
    ----------
    amps :
        Complex amplitudes.  Must be finite and have unit Euclidean norm
        within 1e-10 (physical states only; unnormalized intermediates
        should stay as raw arrays inside operations).
    """

    amps: np.ndarray

    def __post_init__(self):
        # private contiguous copy: never alias (or freeze) caller memory
        amps = np.array(self.amps, dtype=np.complex128).reshape(-1)
        check_kets(amps)
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return self.amps.shape[0]


def check_kets(amps: np.ndarray) -> None:
    """`Ket`'s checks on every row of ``amps`` at once: finite, unit norm within 1e-10."""
    if not np.isfinite(amps).all():
        raise ValueError("ket amplitudes must be finite")
    nrm = np.linalg.norm(amps, axis=-1).reshape(-1)
    off = np.flatnonzero(np.abs(nrm - 1.0) > _NORM_TOL)
    if off.size:
        raise ValueError(f"ket norm {nrm[off[0]]!r} differs from 1 beyond 1e-10")


def fidelity(a: Ket | np.ndarray, b: Ket | np.ndarray) -> float | np.ndarray:
    """|<a|b>|^2 for kets or amplitude vectors, row by row for (k, dim) stacks,
    each row with the bits of a one-row call (`vecdot`, `abs`, `square` are row-wise)."""
    va = a.amps if isinstance(a, Ket) else np.asarray(a)
    vb = b.amps if isinstance(b, Ket) else np.asarray(b)
    if va.shape != vb.shape:
        raise DimensionMismatch("state dimensions differ")
    overlap = np.vecdot(va, vb)
    return np.square(np.abs(overlap))


class _Group(NamedTuple):
    """One stack of a bisection, checked and bracketed by `_bracket`."""

    d: np.ndarray  # (batch, n) diagonals
    e: np.ndarray  # (batch, n - 1) couplings
    lo: np.ndarray  # (batch,) padded Gershgorin bracket
    hi: np.ndarray
    pivmin: float
    halvings: int
    k: int


def _bracket(diag, off, k: int) -> _Group:
    """Check one stack and set up its bisection."""
    if np.iscomplexobj(diag) or np.iscomplexobj(off):
        raise ValueError("tridiagonal entries must be real")
    d = np.asarray(diag, dtype=np.float64)
    if d.ndim != 2 or d.shape[1] < 1:
        raise DimensionMismatch(f"expected (batch, n) diagonals, got shape {d.shape}")
    batch, n = d.shape
    if not 1 <= k <= n:
        raise ValueError(f"k must be within [1, {n}]")
    e = np.broadcast_to(np.asarray(off, dtype=np.float64), (batch, n - 1))
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise ValueError("tridiagonal entries must be finite")
    e_abs = np.abs(e)
    # max(e_i * e_i) is emax * emax, as rounding is monotone.
    emax = float(e_abs.max(initial=0.0))
    pivmin = _SAFMIN * max(1.0, emax * emax)

    radius = np.zeros((batch, n))
    radius[:, :-1] += e_abs
    radius[:, 1:] += e_abs
    lo = (d - radius).min(axis=1)
    hi = (d + radius).max(axis=1)
    tnorm = np.maximum(np.abs(lo), np.abs(hi))
    # dstebz's widening keeps eigenvalues on the Gershgorin ends bracketed.
    pad = 2.1 * (_EPS * n * tnorm + 2.0 * pivmin)
    lo, hi = lo - pad, hi + pad
    # Sturm counts resolve the low levels of a graded matrix (large diagonal
    # entries far from the levels' support) well below eps * ||T||.
    atol = np.maximum(_EPS * tnorm / 16.0, pivmin)
    # Every bracket spans more than atol, so only an empty batch takes no halvings.
    halvings = int(np.ceil(np.log2(((hi - lo) / atol).max(initial=1.0))))
    return _Group(d, e, lo, hi, pivmin, halvings, k)


def _depth(brackets: int, halvings: int) -> int:
    """Multisection depth m of a bisection: the largest, at most ``halvings``,
    whose 2^m - 1 points per bracket keep a pass within `_COLUMNS` Sturm
    counts; at least 1."""
    depth = 1
    while depth < halvings and brackets * ((2 << depth) - 1) <= _COLUMNS:
        depth += 1
    return depth


def _sound(magnitude: np.ndarray, pivmin: float) -> bool:
    """Whether every pivot magnitude is finite and at least ``pivmin`` (a NaN is not)."""
    return magnitude.min(initial=np.inf) >= pivmin and magnitude.max(initial=0.0) < np.inf


def tridiagonal_eigvalsh_groups(groups) -> list[np.ndarray]:
    """k lowest eigenvalues of stacks of real symmetric tridiagonal matrices.

    ``groups`` is a sequence of ``(diag, off, k)`` triples, one per stack:
    diagonals of shape (batch, n), off-diagonals broadcastable to (batch,
    n - 1) (a scalar gives every matrix the same coupling), and the number
    of levels, 1 <= k <= n.  The stacks may differ in n, k and coupling.

    Returns one (batch, k) array per stack, ascending per matrix (an empty
    batch gives (0, k)), bit for bit the values that stack gives alone: each
    stack keeps its own Gershgorin brackets, pivot guard pivmin and halving
    count, and its brackets stop moving after its own halvings, even in the
    middle of a pass.

    Sturm-count bisection: the number of negative pivots of the LDL^T
    factorization of T - x I is the number of eigenvalues below x.  Every
    (matrix, level) bracket starts at the matrix's Gershgorin interval and is
    halved a fixed number of times, enough to shrink the widest bracket of
    its stack below eps * ||T|| / 16, so the work and the bits of the result
    depend on the input alone.  As in LAPACK's dstebz, a pivot below pivmin =
    tiny * max(1, max e_i^2) becomes -pivmin, which keeps zero couplings and
    exact degeneracies finite.  No n x n matrix is formed.

    Multisection (Lo, Philippe & Sameh 1987): each pass Sturm-counts the
    2^m - 1 points of a depth-m dyadic tree in every bracket in one sweep,
    then walks each bracket m levels down its tree, taking the m halvings
    that plain bisection would take.  Every tree point is
    ``(lo + hi) * 0.5`` of its parent's ends, so each halving reads the
    count plain bisection computes, at the same point, and the values keep
    their bits for every m without assuming monotone Sturm counts.  The
    depth m comes from `_depth`: a batch of more than `_COLUMNS` / 3
    brackets takes m = 1, which is plain bisection.  So work and memory per
    pass are O(max(brackets, `_COLUMNS`) * n), over ceil(halvings / m) passes.

    The work arrays are ``[row, column]``, one column per (matrix, level,
    tree point), with the columns of a matrix side by side, so every numpy
    call of the LDL^T recurrence runs over one contiguous stretch of
    columns.  The matrices are sorted by n, largest first, so row i touches
    only the prefix of columns whose matrix has n > i.  The rows are stored
    raggedly, one block per distinct n, and hold k x (2^m - 1) x n values
    per matrix, with no padding to the largest n or k.
    A pass runs in chunks of `_CHUNK` values, one ``subtract`` per chunk and
    two calls per row, errors ignored.  If a pivot is not finite or under the
    largest pivmin in magnitude, the pass runs again with the guard's three
    calls per row under the caller's error state; else the guard moves nothing.
    """
    groups = [_bracket(diag, off, k) for diag, off, k in groups]
    # Largest n first; the sort is stable, so stacks of equal n keep their order.
    order = sorted(range(len(groups)), key=lambda g: -groups[g].d.shape[1])
    stack = [groups[g] for g in order]
    counts = [g.d.shape[0] * g.k for g in stack]
    halvings = max((g.halvings for g in stack), default=0)
    depth = _depth(sum(counts), halvings)
    points = (1 << depth) - 1
    # Per bracket: its level, its bracket and its stack's halving count.
    levels = np.concatenate([[], *(np.tile(np.arange(g.k), g.d.shape[0]) for g in stack)])
    lo = np.concatenate([[], *(np.repeat(g.lo, g.k) for g in stack)])
    hi = np.concatenate([[], *(np.repeat(g.hi, g.k) for g in stack)])
    steps = np.repeat([g.halvings for g in stack], counts)
    # Per column: its stack's pivot guard.
    pivmin = np.repeat([g.pivmin for g in stack], [count * points for count in counts])
    floor, pivmax = -pivmin, pivmin.max(initial=0.0)

    # Block b holds rows [previous n, n) of the columns whose matrix has at
    # least n rows; row i holds the coupling e_{i-1} that enters its pivot.
    mid = np.empty(pivmin.shape)
    ratio = np.empty(pivmin.shape)
    chunks, above = [], None
    ends = sorted({g.d.shape[1] for g in stack})
    for start, end in zip([0, *ends], ends):
        width = sum(count for g, count in zip(stack, counts) if g.d.shape[1] >= end) * points
        d_rows = np.empty((end - start, width))
        e2_rows = np.zeros((end - start, width))
        column = 0
        for g in stack:
            if g.d.shape[1] < end:
                break
            batch = g.d.shape[0]
            d = g.d[:, start:end].T
            e = g.e[:, max(start - 1, 0):end - 1].T
            e2 = e * e
            columns = g.k * points
            span = slice(column, column + batch * columns)
            # Each value goes to the k x (2^m - 1) side-by-side columns of its matrix.
            d_rows[:, span].reshape(len(d), batch, columns)[...] = d[:, :, None]
            e2_rows[len(d) - len(e):, span].reshape(len(e), batch, columns)[...] = e2[:, :, None]
            column = span.stop
        prefix = [a[:width] for a in (ratio, pivmin, floor)]
        step = min(end - start, max(1, _CHUNK // max(width, 1)))
        # Chunks take two pivot buffers in turn, keeping the row above each chunk.
        pivots = [np.empty((step, width)) for _ in range(3)]  # and one for |q|
        negative = np.empty((step, width), dtype=bool)
        for r in range(0, end - start, step):
            d_chunk = d_rows[r:r + step]
            q_chunk, magnitude_chunk, negative_chunk = (
                a[:len(d_chunk)] for a in (pivots[len(chunks) % 2], pivots[2], negative))
            # Each row's pivots enter the next row's, in this chunk or the next.
            aboves = [above if above is None else above[:width], *q_chunk[:-1]]
            rows = [(*row, *prefix) for row in zip(e2_rows[r:], q_chunk, negative_chunk, aboves)]
            above = q_chunk[-1]
            chunks.append((d_chunk, q_chunk, negative_chunk, magnitude_chunk, mid[:width], rows))

    count = np.empty(mid.shape, dtype=np.int32)
    # [bracket, tree point], the points in ascending order.  The root, every
    # bracket's first halving of a pass, is read without a gather; at depth
    # 1 it is the whole of mid and count.
    tree, root = mid.reshape(-1, points), points // 2
    root_x, root_count = tree[:, root], count.reshape(-1, points)[:, root]
    roots = np.arange(root, mid.size, points)  # flat index of each bracket's root
    # Below the root, level j has 2^j nodes, 2 s apart, and between each two
    # of them a point of the levels above.
    below_root = [(tree[:, s - 1::2 * s], tree[:, 2 * s - 1::2 * s])
                  for s in (1 << np.arange(depth - 2, -1, -1)).tolist()]
    for h in range(0, halvings, depth):
        np.add(lo, hi, out=root_x)
        root_x *= 0.5
        for node, inner in below_root:
            np.add(lo, inner[:, 0], out=node[:, 0])
            np.add(inner[:, :-1], inner[:, 1:], out=node[:, 1:-1])
            np.add(inner[:, -1], hi, out=node[:, -1])
            node *= 0.5
        for guarded in (False, True):
            with np.errstate(all=None if guarded else "ignore"):
                count[...] = 0
                for d_rows, q_rows, negative, magnitude, mid_b, rows in chunks:
                    np.subtract(d_rows, mid_b, out=q_rows)
                    for e2_i, q_i, negative_i, above_i, ratio_i, pivmin_i, floor_i in rows:
                        if above_i is not None:
                            np.divide(e2_i, above_i, out=ratio_i)
                            np.subtract(q_i, ratio_i, out=q_i)
                        if guarded:
                            # After the guard, q < 0 exactly where q < pivmin before it.
                            np.less(q_i, pivmin_i, out=negative_i)
                            np.minimum(q_i, floor_i, out=ratio_i)
                            np.putmask(q_i, negative_i, ratio_i)
                    np.less(q_rows, 0.0, out=negative)  # summed as int32, twice as fast as int64
                    count[:negative.shape[1]] += negative.sum(axis=0, dtype=np.int32)
                    if not (guarded or _sound(np.abs(q_rows, out=magnitude), pivmax)):
                        break
                else:  # every chunk counted
                    break
        at = roots
        for j in range(depth):
            # below: the bracket's level lies below the point x
            if j:
                x, below = mid.take(at), count.take(at) > levels
            else:
                x, below = root_x, root_count > levels
            moving = steps > h + j
            np.copyto(hi, x, where=below & moving)
            np.copyto(lo, x, where=moving & ~below)
            if j + 1 < depth:  # on to the lower or upper child
                half = 1 << (depth - 2 - j)
                at = at + np.where(below, -half, half)

    values = 0.5 * (lo + hi)
    out = [None] * len(groups)
    for g, count_g, stop in zip(order, counts, np.cumsum(counts, dtype=int)):
        out[g] = values[stop - count_g:stop].reshape(groups[g].d.shape[0], groups[g].k)
    return out


def tridiagonal_eigh(diag: np.ndarray, off) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs of a stack of real symmetric tridiagonal matrices.

    ``diag`` and ``off`` are as for `tridiagonal_eigvalsh_groups`.  Returns
    ``(values, vectors)``: values of shape (batch, n), ascending and bit for
    bit ``tridiagonal_eigvalsh_groups([(diag, off, n)])[0]``; vectors of shape
    (batch, n, n), real and orthonormal, eigenvector j in column j, whose
    largest-magnitude entry (the first, on a tie) is positive.

    Every vector takes three sweeps of inverse iteration at its eigenvalue,
    from the orthogonal start columns sin(pi (i+1) (j+1) / (n+1)).  Each
    sweep solves (T - lambda I) x = b through the LDL^T pivots of the
    Sturm count, with a pivot below eps ||T|| moved to +-eps ||T||, so an
    exact eigenvalue gives a large but finite solution.  Levels closer than
    1e-3 ||T|| to a neighbour form a cluster, whose vectors are
    Gram-Schmidt orthogonalized (twice) after every sweep, as in LAPACK's
    dstein: without that, inverse iteration turns every vector of a
    (near-)degenerate cluster towards the same direction.
    """
    values = tridiagonal_eigvalsh_groups([(diag, off, np.shape(diag)[-1])])[0]
    d = np.asarray(diag, dtype=np.float64)
    batch, n = d.shape
    e = np.broadcast_to(np.asarray(off, dtype=np.float64), (batch, n - 1))
    # Each matrix scaled to ||T|| <= 1, so one pivot guard fits every matrix.
    scale = np.abs(d).max(axis=1) + 2.0 * np.abs(e).max(axis=1, initial=0.0)
    scale = np.where(scale > 0.0, scale, 1.0)[:, None]
    lam = values / scale
    # Row-major internal layout: [row, matrix, level].
    shifted = (d / scale).T[:, :, None] - lam[None]
    e = (e / scale).T[:, :, None]
    piv = np.empty_like(shifted)
    for i in range(n):
        p = shifted[i] - e[i - 1] ** 2 / piv[i - 1] if i else shifted[i]
        piv[i] = np.where(np.abs(p) < _EPS, np.copysign(_EPS, p), p)
    rows = np.arange(1.0, n + 1.0)
    x = np.repeat(np.sin(np.pi / (n + 1) * np.outer(rows, rows))[:, None, :], batch, axis=1)
    cluster = np.cumsum(np.diff(lam, axis=1, prepend=-np.inf) >= _CLUSTER, axis=1)
    earlier = (cluster[:, :, None] == cluster[:, None, :]) & np.tri(n, k=-1, dtype=bool)
    vecs = x.transpose(1, 0, 2)  # [matrix, row, level], a view of x
    for _ in range(_SWEEPS):
        for i in range(1, n):
            x[i] -= e[i - 1] * x[i - 1] / piv[i - 1]
        x[-1] /= piv[-1]
        for i in range(n - 2, -1, -1):
            x[i] = (x[i] - e[i] * x[i + 1]) / piv[i]
        x /= np.linalg.norm(x, axis=0)
        for j in np.flatnonzero(earlier.any(axis=(0, 2))):
            for _ in range(2):
                coef = np.einsum("bik,bi->bk", vecs[:, :, :j], vecs[:, :, j]) * earlier[:, j, :j]
                vecs[:, :, j] -= np.einsum("bik,bk->bi", vecs[:, :, :j], coef)
            vecs[:, :, j] /= np.linalg.norm(vecs[:, :, j], axis=1, keepdims=True)
    lead = np.take_along_axis(vecs, np.abs(vecs).argmax(axis=1)[:, None, :], axis=1)
    return values, vecs * np.copysign(1.0, lead)
