import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqed import linalg
from cqed.errors import DimensionMismatch
from cqed.linalg import (
    Ket,
    _bracket,
    _depth,
    fidelity,
    tridiagonal_eigh,
    tridiagonal_eigvalsh_groups,
)
from oracles import SZ, expectation

EPS = np.finfo(np.float64).eps


def one_stack(diag, off, k):
    """The k lowest eigenvalues of one (batch, n) stack, alone in its bisection."""
    return tridiagonal_eigvalsh_groups([(diag, off, k)])[0]


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


def random_ket(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return Ket(v / np.linalg.norm(v))


def random_tridiagonal(rng, batch, n):
    return rng.normal(size=(batch, n)), rng.normal(size=(batch, n - 1))


def box_diagonals(ng, ncut):
    """Charging energies (N - N_g)^2 of a box with E_C = 1, one row per gate charge."""
    return (np.arange(-ncut, ncut + 1)[None, :] - np.atleast_1d(ng)[:, None]) ** 2


def assert_eigenpairs(diag, off, vals, vecs, resid_tol=1e-13, orth_tol=1e-12):
    """Residual ||T v - lambda v|| <= resid_tol ||T||_F and orthonormal columns."""
    mats = tridiagonal(np.asarray(diag, dtype=float), off)
    n = mats.shape[-1]
    norm = np.linalg.norm(mats, axis=(1, 2))[:, None, None]
    resid = np.abs(mats @ vecs - vecs * vals[:, None, :])
    assert np.all(resid <= resid_tol * np.maximum(norm, 1.0))
    assert np.abs(np.swapaxes(vecs, 1, 2) @ vecs - np.eye(n)).max() < orth_tol


def evolve(diag, off, t, amps):
    """exp(-i T t) amps for one tridiagonal T, from its `tridiagonal_eigh` eigenpairs."""
    vals, vecs = tridiagonal_eigh(np.asarray(diag, dtype=float)[None, :], off)
    return vecs[0] @ (np.exp(-1j * vals[0] * t) * (vecs[0].T @ amps))


class TestHermitianEigen:
    """`tridiagonal_eigh` on real symmetric (Hermitian) tridiagonal matrices."""

    def test_sigma_z_diagonal(self):
        vals, vecs = tridiagonal_eigh(np.array([[1.0, -1.0]]), 0.0)
        assert np.allclose(vals[0], [-1.0, 1.0])
        # ascending order puts the -1 eigenvector |1> first
        assert np.allclose(vecs[0][:, 0], [0, 1])
        assert np.allclose(vecs[0][:, 1], [1, 0])

    def test_sigma_x_eigenvectors(self):
        vals, vecs = tridiagonal_eigh(np.zeros((1, 2)), 1.0)
        assert np.allclose(vals[0], [-1.0, 1.0])
        minus = np.array([1, -1]) / np.sqrt(2)
        plus = np.array([1, 1]) / np.sqrt(2)
        assert np.allclose(vecs[0][:, 0], minus)
        assert np.allclose(vecs[0][:, 1], plus)

    def test_reduced_box_splitting(self):
        # 2x2 charge-qubit block: E_C dg sigma_z - (E_J/2) sigma_x
        ec, ej, dg = 1.0, 0.1, 0.2
        vals, _ = tridiagonal_eigh(np.array([[ec * dg, -ec * dg]]), -0.5 * ej)
        expected = np.sqrt(ec**2 * dg**2 + ej**2 / 4)
        assert np.allclose(vals[0], [-expected, expected], atol=1e-14)

    def test_rejects_non_hermitian(self):
        # a complex diagonal, or a complex coupling on both sides, is not Hermitian
        with pytest.raises(ValueError):
            tridiagonal_eigh(np.array([[0.0, 1j]]), 1.0)
        with pytest.raises(ValueError):
            tridiagonal_eigh(np.zeros((1, 2)), 1j)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            tridiagonal_eigh(np.zeros(3), 1.0)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 33, 64])
    def test_reconstruction_and_orthonormality(self, n):
        rng = np.random.default_rng(100 + n)
        diag, off = random_tridiagonal(rng, 1, n)
        vals, vecs = tridiagonal_eigh(diag, off)
        a = tridiagonal(diag, off)[0]
        norm = np.linalg.norm(a)
        v = vecs[0]
        recon = v @ np.diag(vals[0]) @ v.T
        assert np.abs(recon - a).max() < 1e-9 * norm
        assert np.abs(v.T @ v - np.eye(n)).max() < 1e-10
        for k in range(n):
            resid = a @ v[:, k] - vals[0, k] * v[:, k]
            assert np.abs(resid).max() < 1e-9 * norm

    def test_values_sorted_and_phase_fixed(self):
        rng = np.random.default_rng(5)
        diag, off = random_tridiagonal(rng, 3, 17)
        vals, vecs = tridiagonal_eigh(diag, off)
        assert np.all(np.diff(vals, axis=1) >= 0)
        assert np.array_equal(vals, one_stack(diag, off, 17))
        lead = np.take_along_axis(vecs, np.abs(vecs).argmax(axis=1)[:, None, :], axis=1)
        assert lead.min() > 0

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        diag, off = random_tridiagonal(rng, 4, 12)
        (v1, w1), (v2, w2) = tridiagonal_eigh(diag, off), tridiagonal_eigh(diag, off)
        assert np.array_equal(v1, v2)
        assert np.array_equal(w1, w2)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(7)
        diag, off = random_tridiagonal(rng, 5, 6)
        vals, vecs = tridiagonal_eigh(diag, off)
        for k in range(5):
            single_vals, single_vecs = tridiagonal_eigh(diag[k:k + 1], off[k:k + 1])
            assert np.allclose(vals[k], single_vals[0], atol=1e-12)
            assert np.allclose(vecs[k], single_vecs[0], atol=1e-10)

    def test_real_symmetric_input(self):
        # independent oracle: LAPACK's dense eigh, vectors compared up to sign
        rng = np.random.default_rng(8)
        diag, off = random_tridiagonal(rng, 4, 9)
        vals, vecs = tridiagonal_eigh(diag, off)
        lapack_vals, lapack_vecs = np.linalg.eigh(tridiagonal(diag, off))
        assert np.abs(vals - lapack_vals).max() < 1e-13
        overlaps = np.abs(np.einsum("bik,bik->bk", vecs, lapack_vecs))
        assert np.abs(overlaps - 1.0).max() < 1e-10

    @pytest.mark.parametrize("n", [3, 10, 40])
    def test_eigenvalues_cross_checked_against_lapack(self, n):
        # independent oracle: LAPACK uses a different algorithm entirely
        rng = np.random.default_rng(200 + n)
        diag, off = random_tridiagonal(rng, 1, n)
        mine = tridiagonal_eigh(diag, off)[0]
        lapack = np.linalg.eigvalsh(tridiagonal(diag, off))
        assert np.abs(mine - lapack).max() < 1e-12 * np.linalg.norm(tridiagonal(diag, off))

    def test_one_dimensional_matrix(self):
        vals, vecs = tridiagonal_eigh(np.array([[2.5]]), np.zeros((1, 0)))
        assert vals[0, 0] == 2.5
        assert vecs[0, 0, 0] == 1.0

    def test_degenerate_spectrum(self):
        vals, vecs = tridiagonal_eigh(np.ones((1, 4)), 0.0)
        assert np.allclose(vals, 1.0)
        assert np.abs(vecs[0].T @ vecs[0] - np.eye(4)).max() < 1e-12


def tridiagonal(diag, off):
    n = diag.shape[-1]
    mats = np.zeros(diag.shape + (n,))
    i = np.arange(n)
    mats[:, i, i] = diag
    mats[:, i[:-1], i[1:]] = off
    mats[:, i[1:], i[:-1]] = off
    return mats


class TestTridiagonalEigvalsh:
    @pytest.mark.parametrize("n", [1, 2, 3, 25, 49])
    def test_matches_lapack_on_random_batches(self, n):
        rng = np.random.default_rng(300 + n)
        diag = rng.normal(size=(20, n))
        off = rng.normal(size=(20, n - 1))
        mats = tridiagonal(diag, off)
        lapack = np.linalg.eigvalsh(mats)
        bound = (1e-12 + n * EPS) * np.linalg.norm(mats, axis=(1, 2))
        for k in (1, n):
            vals = one_stack(diag, off, k)
            assert vals.shape == (20, k)
            assert np.all(np.abs(vals - lapack[:, :k]) <= bound[:, None])

    def test_zero_coupling_keeps_exact_degeneracy(self):
        # E_J = 0 at N_g = 1/2: charge states 0 and 1 both sit at 1/4, -1 and 2 at 9/4
        diag = ((np.arange(-5, 6) - 0.5) ** 2)[None, :]
        vals = one_stack(diag, 0.0, 4)[0]
        assert vals[0] == vals[1] and vals[2] == vals[3]
        assert np.abs(vals - [0.25, 0.25, 2.25, 2.25]).max() <= 4 * EPS * 30.25

    def test_exactly_zero_pivot_without_coupling(self):
        # The Gershgorin interval [-1, 1] puts the first midpoint at 0 = d_0:
        # the first pivot is exactly zero and, with e = 0, only the pivmin
        # guard keeps the rest of that Sturm count from turning into NaN.
        diag = np.array([[0.0, -1.0, -0.5, 1.0, 0.5]])
        vals = one_stack(diag, 0.0, 5)[0]
        assert np.abs(vals - np.sort(diag[0])).max() <= 8 * EPS

    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(15)
        diag = rng.normal(size=(7, 13))
        off = rng.normal(size=(7, 12))
        assert np.array_equal(
            one_stack(diag, off, 5), one_stack(diag, off, 5)
        )

    def test_rejects_bad_input(self):
        diag = np.zeros((2, 3))
        with pytest.raises(ValueError):
            one_stack(diag, 1.0, 0)
        with pytest.raises(ValueError):
            one_stack(diag, 1.0, 4)
        with pytest.raises(ValueError):
            one_stack(diag, np.nan, 1)
        with pytest.raises(DimensionMismatch):
            one_stack(np.zeros(3), 1.0, 1)

    def test_empty_batch(self):
        vals = one_stack(np.zeros((0, 5)), 0.3, 2)
        assert vals.shape == (0, 2)


def reference_eigvalsh(diag, off, k):
    """The bisection of one stack on plain ``[row, matrix, level]`` arrays.

    The same operations on every element as `tridiagonal_eigvalsh_groups`, with no
    grouping, no ragged rows and no in-place updates.
    """
    g = _bracket(diag, off, k)
    batch, n = g.d.shape
    e2 = g.e * g.e
    lo = np.repeat(g.lo[:, None], k, axis=1)
    hi = np.repeat(g.hi[:, None], k, axis=1)
    negative = np.empty((n, batch, k), dtype=bool)
    for _ in range(g.halvings):
        mid = 0.5 * (lo + hi)
        shifted = g.d.T[:, :, None] - mid
        q = shifted[0].copy()
        for i in range(n):
            if i:
                q = shifted[i] - e2[:, i - 1, None] / q
            negative[i] = q < g.pivmin
            q = np.where(negative[i], np.minimum(q, -g.pivmin), q)
        below = negative.sum(axis=0) > np.arange(k)
        hi = np.where(below, mid, hi)
        lo = np.where(below, lo, mid)
    return 0.5 * (lo + hi)


@st.composite
def stacks(draw):
    """Up to five stacks of mixed n (1 included), k, batch (0 included) and
    scale: zero, constant or random couplings from 1e-8 to 1e8, on diagonals
    offset by up to 1e8, so that the stacks need different halving counts.
    """
    groups = []
    for _ in range(draw(st.integers(0, 5))):
        n = draw(st.integers(1, 9))
        batch = draw(st.integers(0, 4))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        diag = 10.0 ** draw(st.integers(-8, 8)) * rng.normal(size=(batch, n))
        diag += draw(st.sampled_from([0.0, 1e4, -1e8]))
        scale = 10.0 ** draw(st.integers(-8, 8))
        off = draw(st.sampled_from([
            0.0, scale * rng.normal(), scale * rng.normal(size=(batch, n - 1))]))
        groups.append((diag, off, draw(st.integers(1, n))))
    return groups


def four_halving_counts():
    """Four stacks, 63 brackets, that need four different halving counts."""
    rng = np.random.default_rng(4)
    one_sided = 3.0 + np.arange(4.0) + 0.1 * rng.normal(size=(8, 4))
    one_sided[:, 0] = 0.01 + 0.001 * rng.normal(size=8)
    return [(rng.normal(size=(3, 6)) + 1e6, 1.0, 2),
            (rng.normal(size=(5, 11)), rng.normal(size=(5, 10)), 4),
            (one_sided, 1e-3, 2),
            (box_diagonals(np.linspace(0, 1, 7), 3) + 1e3, 0.0, 3)]


def sound_spy(monkeypatch):
    """The verdicts of every pivot check of the Sturm kernel, as a list it fills."""
    verdicts, sound = [], linalg._sound

    def spy(magnitude, pivmin):
        verdicts.append(sound(magnitude, pivmin))
        return verdicts[-1]

    monkeypatch.setattr(linalg, "_sound", spy)
    return verdicts


class TestTridiagonalEigvalshGroups:
    @settings(max_examples=150, deadline=None)
    @given(stacks())
    def test_each_stack_matches_its_own_call_bit_for_bit(self, groups):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            values = tridiagonal_eigvalsh_groups(groups)
        assert len(values) == len(groups)
        for (diag, off, k), vals in zip(groups, values):
            assert np.array_equal(vals, one_stack(diag, off, k))
            assert np.array_equal(vals, reference_eigvalsh(diag, off, k))

    def test_stacks_with_different_halving_counts(self):
        # A spectrum on one side of zero needs fewer halvings than a centred
        # one, and a graded one (levels far from zero) fewer still; each stack
        # keeps its own count inside the shared loop.  The one-sided stack's
        # lowest level sits near zero, where a further halving would move it.
        groups = four_halving_counts()
        halvings = [_bracket(*g).halvings for g in groups]
        assert len(set(halvings)) == 4
        # 63 brackets: depth 4, and some stack stops in the middle of a pass
        assert _depth(63, max(halvings)) == 4 and any(h % 4 for h in halvings)
        for (diag, off, k), vals in zip(groups, tridiagonal_eigvalsh_groups(groups)):
            assert np.array_equal(vals, reference_eigvalsh(diag, off, k))

    @pytest.mark.parametrize("columns, depth", [(63, 1), (63 * 7, 3), (63 * 63, 6)])
    def test_every_depth_gives_the_same_bits(self, monkeypatch, columns, depth):
        groups = four_halving_counts()
        halvings = [_bracket(*g).halvings for g in groups]
        monkeypatch.setattr(linalg, "_COLUMNS", columns)
        assert _depth(63, max(halvings)) == depth
        assert depth == 1 or any(h % depth for h in halvings)
        for (diag, off, k), vals in zip(groups, tridiagonal_eigvalsh_groups(groups)):
            assert np.array_equal(vals, reference_eigvalsh(diag, off, k))

    def test_depth_fills_the_column_cap(self):
        assert linalg._COLUMNS == 1024
        assert _depth(48, 57) == 4  # 48 x 15 = 720 columns; 48 x 31 would be 1488
        assert _depth(15, 57) == 6  # 945 columns
        assert _depth(341, 57) == 2  # 1023 columns
        assert _depth(342, 57) == 1
        assert _depth(1024, 57) == 1
        assert _depth(1, 57) == 10
        assert _depth(1, 3) == 3  # never deeper than the halvings
        assert _depth(0, 0) == 1

    def test_narrow_stacks_take_deep_passes(self):
        # The two symmetry points of two box cutoffs: 8 brackets, depth 7
        groups = [(box_diagonals([0.0, 0.5], ncut), -0.5 * ej, 2)
                  for ej, ncut in ((50.0, 12), (50.0, 24))]
        assert _depth(8, max(_bracket(*g).halvings for g in groups)) == 7
        for (diag, off, k), vals in zip(groups, tridiagonal_eigvalsh_groups(groups)):
            assert np.array_equal(vals, reference_eigvalsh(diag, off, k))

    @pytest.mark.parametrize("brackets, depth", [(341, 2), (342, 1), (1024, 1), (1025, 1)])
    def test_widths_around_the_cap(self, brackets, depth):
        # 341 x 3 = 1023 columns, the widest depth-2 pass; 1024 brackets fill
        # the cap exactly with plain bisection
        rng = np.random.default_rng(brackets)
        groups = [(rng.normal(size=(brackets - 10, 5)), 0.5, 1),
                  (rng.normal(size=(5, 4)) + 1e3, rng.normal(size=(5, 3)), 2)]
        assert _depth(brackets, max(_bracket(*g).halvings for g in groups)) == depth
        for (diag, off, k), vals in zip(groups, tridiagonal_eigvalsh_groups(groups)):
            assert np.array_equal(vals, reference_eigvalsh(diag, off, k))

    def test_empty_list(self):
        assert tridiagonal_eigvalsh_groups([]) == []

    @pytest.mark.parametrize("diag, off", [
        (np.zeros((3, 7)), 0.0),
        (np.array([[0.0, -1.0, -0.5, 1.0, 0.5]]), 0.0),
        (box_diagonals([0.0, 0.25, 0.5], 4), 0.0),
    ], ids=["zero matrix", "zero first pivot", "box without coupling"])
    def test_zero_couplings_take_the_guarded_rerun(self, monkeypatch, diag, off):
        verdicts = sound_spy(monkeypatch)
        k = diag.shape[1]
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            vals = one_stack(diag, off, k)
        assert False in verdicts
        assert np.array_equal(vals, reference_eigvalsh(diag, off, k))

    @pytest.mark.parametrize("magnitude, sound", [
        ([[1.0, 2.0]], True), ([[1.0, 0.5]], True), ([[0.0, 1.0]], False),
        ([[0.25, 1.0]], False), ([[np.inf, 1.0]], False), ([[1.0, np.nan]], False),
        (np.empty((3, 0)), True)])
    def test_pivot_check(self, magnitude, sound):
        # the guard moves a pivot under pivmin = 0.5; inf and NaN come from overflow
        assert linalg._sound(np.array(magnitude), 0.5) == sound

    @pytest.mark.parametrize("columns, depth", [(63, 1), (63 * 7, 3), (63 * 63, 6)])
    def test_a_guarded_rerun_of_every_pass_gives_the_same_bits(self, monkeypatch, columns, depth):
        groups = four_halving_counts()
        monkeypatch.setattr(linalg, "_COLUMNS", columns)
        assert _depth(63, max(_bracket(*g).halvings for g in groups)) == depth
        unguarded = tridiagonal_eigvalsh_groups(groups)
        monkeypatch.setattr(linalg, "_sound", lambda magnitude, pivmin: False)
        guarded = tridiagonal_eigvalsh_groups(groups)
        for (diag, off, k), a, b in zip(groups, unguarded, guarded):
            assert np.array_equal(a, b)
            assert np.array_equal(b, reference_eigvalsh(diag, off, k))

    @pytest.mark.parametrize("ej, ncut, levels", [
        (0.09, 24, 2), (0.1, 24, 2), (0.11, 24, 2), (0.95, 10, 5), (1.0, 10, 5), (1.05, 10, 5)])
    def test_bench_spectrum_sweeps_take_no_rerun(self, monkeypatch, ej, ncut, levels):
        # the two 401-point `spectrum` sweeps of the spectra bench, E_C = 1
        verdicts = sound_spy(monkeypatch)
        diag = box_diagonals(np.linspace(0.0, 1.0, 401), ncut)
        one_stack(diag, -0.5 * ej, levels)
        assert verdicts and all(verdicts)

    def test_bad_stack_raises(self):
        with pytest.raises(ValueError):
            tridiagonal_eigvalsh_groups([(np.zeros((2, 3)), 1.0, 1), (np.zeros((2, 3)), 1.0, 4)])


class TestEvolve:
    """Propagation exp(-i T t) built from `tridiagonal_eigh` eigenpairs."""

    def test_number_operator_phases(self):
        omega0, t, dim = 1.3, 0.7, 5
        for n in range(dim):
            amps = np.zeros(dim, dtype=complex)
            amps[n] = 1.0
            out = evolve(omega0 * np.arange(dim), 0.0, t, amps)
            assert abs(out[n] - np.exp(-1j * n * omega0 * t)) < 1e-12

    def test_rabi_amplitudes(self):
        omega, t = 2.2, 0.9
        out = evolve([0.0, 0.0], 0.5 * omega, t, np.array([1, 0]))
        assert abs(out[0] - np.cos(omega * t / 2)) < 1e-12
        assert abs(out[1] - (-1j) * np.sin(omega * t / 2)) < 1e-12

    def test_zero_time_is_identity(self):
        amps = np.array([0.6, 0.8j])
        assert np.abs(evolve([0.3, -0.2], 1.0, 0.0, amps) - amps).max() < 1e-15

    def test_unitarity(self):
        rng = np.random.default_rng(10)
        diag, off = random_tridiagonal(rng, 1, 7)
        psi = random_ket(rng, 7)
        for t in rng.uniform(0, 10, size=8):
            assert abs(np.linalg.norm(evolve(diag[0], off, t, psi.amps)) - 1) < 1e-10

    def test_composition(self):
        rng = np.random.default_rng(11)
        diag, off = random_tridiagonal(rng, 1, 6)
        psi = random_ket(rng, 6).amps
        t1, t2 = 0.37, 1.41
        once = evolve(diag[0], off, t1 + t2, psi)
        twice = evolve(diag[0], off, t2, evolve(diag[0], off, t1, psi))
        assert np.abs(once - twice).max() < 1e-9

    def test_evolve_many_matches_evolve(self):
        # one batched decomposition propagates every matrix as a single one does
        rng = np.random.default_rng(12)
        diag, off = random_tridiagonal(rng, 4, 5)
        psi = random_ket(rng, 5).amps
        vals, vecs = tridiagonal_eigh(diag, off)
        for k, t in enumerate([0.0, 0.1, 0.5, 2.0]):
            batched = vecs[k] @ (np.exp(-1j * vals[k] * t) * (vecs[k].T @ psi))
            assert np.abs(batched - evolve(diag[k], off[k:k + 1], t, psi)).max() < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tridiagonal_eigh(np.zeros((1, 3)), np.ones((1, 3)))


class TestTridiagonalEigh:
    """Eigenpairs against the LAPACK oracle on random and charge-box matrices."""

    @pytest.mark.parametrize("n", [1, 2, 3, 21, 64])
    def test_matches_lapack_eigh(self, n):
        rng = np.random.default_rng(400 + n)
        diag, off = random_tridiagonal(rng, 40, n)
        vals, vecs = tridiagonal_eigh(diag, off)
        lapack_vals, lapack_vecs = np.linalg.eigh(tridiagonal(diag, off))
        bound = (1e-12 + n * EPS) * np.linalg.norm(tridiagonal(diag, off), axis=(1, 2))
        assert np.all(np.abs(vals - lapack_vals) <= bound[:, None])
        assert_eigenpairs(diag, off, vals, vecs)
        # vectors agree up to sign where the levels are apart
        edges = np.full((len(vals), 1), np.inf)
        gaps = np.diff(vals, axis=1)
        gap = np.minimum(np.hstack([gaps, edges]), np.hstack([edges, gaps]))
        overlaps = np.abs(np.einsum("bik,bik->bk", vecs, lapack_vecs))
        apart = gap > 1e-3
        assert apart.mean() > 0.9
        assert np.abs(overlaps - 1.0)[apart].max(initial=0.0) < 1e-10

    def test_empty_batch(self):
        vals, vecs = tridiagonal_eigh(np.zeros((0, 5)), 0.3)
        assert vals.shape == (0, 5) and vecs.shape == (0, 5, 5)

    def test_large_batch(self):
        rng = np.random.default_rng(17)
        diag, off = random_tridiagonal(rng, 600, 9)
        vals, vecs = tridiagonal_eigh(diag, off)
        assert vecs.shape == (600, 9, 9)
        assert_eigenpairs(diag, off, vals, vecs)

    def test_zero_couplings(self):
        rng = np.random.default_rng(18)
        diag = rng.normal(size=(6, 7))
        vals, vecs = tridiagonal_eigh(diag, 0.0)
        assert np.abs(vals - np.sort(diag, axis=1)).max() <= 4 * EPS * np.abs(diag).max()
        assert_eigenpairs(diag, np.zeros((6, 6)), vals, vecs)
        # each eigenvector is a unit vector of the charge basis
        assert np.abs(np.abs(vecs).max(axis=1) - 1.0).max() < 1e-15

    def test_exact_degeneracy_at_half_without_coupling(self):
        # E_J = 0 at N_g = 1/2: charge pairs (0, 1), (-1, 2), ... are exactly degenerate
        diag = box_diagonals(0.5, 10)
        vals, vecs = tridiagonal_eigh(diag, 0.0)
        assert vals[0, 0] == vals[0, 1] and vals[0, 2] == vals[0, 3]
        assert np.all(np.isfinite(vecs))
        assert_eigenpairs(diag, np.zeros((1, 20)), vals, vecs)

    @pytest.mark.parametrize("n", [2, 7, 10, 21])
    @pytest.mark.parametrize("coupling", [1.0, -1.0])
    def test_mirror_symmetric_chains(self, n, coupling):
        # every start column sin(pi (i+1)(j+1)/(n+1)) is mirror-even or odd; with a
        # positive coupling and even n, level j's eigenvector has the other parity
        diag = np.zeros((1, n))
        off = np.full((1, n - 1), coupling)
        vals, vecs = tridiagonal_eigh(diag, off)
        assert_eigenpairs(diag, off, vals, vecs)

    @pytest.mark.parametrize("ng", [0.0, 0.5])
    @pytest.mark.parametrize("ej", [0.01, 0.1, 0.3, 1.0])
    def test_near_degenerate_clusters(self, ej, ng):
        # small E_J splits the N and -N (or N and 1 - N) charge pairs by
        # ~ (E_J/2)^(2N), far below eps ||T|| for the higher pairs
        diag = box_diagonals(ng, 10)
        off = np.full((1, 20), -0.5 * ej)
        vals, vecs = tridiagonal_eigh(diag, off)
        assert_eigenpairs(diag, off, vals, vecs)
        lapack = np.linalg.eigvalsh(tridiagonal(diag, off))
        assert np.abs(vals - lapack).max() < 1e-13 * np.linalg.norm(tridiagonal(diag, off))


class TestExpectation:
    def test_number_state(self):
        n_op = np.diag(np.arange(6)).astype(complex)
        amps = np.zeros(6, dtype=complex)
        amps[3] = 1.0
        assert abs(expectation(n_op, Ket(amps)) - 3.0) < 1e-12

    def test_identity_normalization(self):
        rng = np.random.default_rng(13)
        psi = random_ket(rng, 9)
        assert abs(expectation(np.eye(9, dtype=complex), psi) - 1.0) < 1e-12

    def test_sigma_z_on_plus(self):
        plus = Ket(np.array([1, 1]) / np.sqrt(2))
        assert abs(expectation(SZ, plus)) < 1e-12

    def test_real_for_hermitian(self):
        rng = np.random.default_rng(14)
        val = expectation(random_hermitian(rng, 8), random_ket(rng, 8))
        assert abs(val.imag) < 1e-10


class TestKet:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Ket([1.0, 1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Ket([np.inf, 0.0])

    def test_rejects_nan(self):
        # abs(nan - 1) > tol is False, so the finiteness check must catch it
        with pytest.raises(ValueError):
            Ket([np.nan, 1.0])

    def test_overlap_and_fidelity(self):
        a = Ket([1, 0])
        b = Ket(np.array([1, 1j]) / np.sqrt(2))
        assert abs(np.vdot(a.amps, b.amps) - 1 / np.sqrt(2)) < 1e-12
        assert abs(fidelity(a, b) - 0.5) < 1e-12

    def test_fidelity_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fidelity(Ket([1, 0]), Ket([1, 0, 0]))

    def test_amps_immutable(self):
        psi = Ket([1, 0])
        with pytest.raises(ValueError):
            psi.amps[0] = 0.0
