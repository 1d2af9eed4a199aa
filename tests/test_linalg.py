import numpy as np
import pytest

import cqed.linalg as la
from cqed.errors import DimensionMismatch, NoConvergence, NotHermitian
from cqed.linalg import (
    Ket,
    dagger,
    evolve,
    evolve_many,
    expectation,
    fidelity,
    hermitian_eigen,
    hermitian_eigen_batch,
    kron,
    tridiagonal_eigvalsh,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
EPS = np.finfo(np.float64).eps


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


def random_ket(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return Ket(v / np.linalg.norm(v))


class TestHermitianEigen:
    def test_sigma_z_diagonal(self):
        eig = hermitian_eigen(SZ)
        assert np.allclose(eig.values, [-1.0, 1.0])
        # ascending order puts the -1 eigenvector |1> first
        assert np.allclose(eig.vectors[:, 0], [0, 1])
        assert np.allclose(eig.vectors[:, 1], [1, 0])

    def test_sigma_x_eigenvectors(self):
        eig = hermitian_eigen(SX)
        assert np.allclose(eig.values, [-1.0, 1.0])
        minus = np.array([1, -1]) / np.sqrt(2)
        plus = np.array([1, 1]) / np.sqrt(2)
        assert np.allclose(eig.vectors[:, 0], minus)
        assert np.allclose(eig.vectors[:, 1], plus)

    def test_reduced_box_splitting(self):
        # 2x2 charge-qubit block: E_C dg sigma_z - (E_J/2) sigma_x
        ec, ej, dg = 1.0, 0.1, 0.2
        h = ec * dg * SZ - 0.5 * ej * SX
        eig = hermitian_eigen(h)
        expected = np.sqrt(ec**2 * dg**2 + ej**2 / 4)
        assert np.allclose(eig.values, [-expected, expected], atol=1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            hermitian_eigen(np.zeros((2, 3)))

    def test_no_convergence_after_sweep_cap(self, monkeypatch):
        monkeypatch.setattr(la, "MAX_SWEEPS", 0)
        with pytest.raises(NoConvergence):
            hermitian_eigen(SX)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 33, 64])
    def test_reconstruction_and_orthonormality(self, n):
        rng = np.random.default_rng(100 + n)
        a = random_hermitian(rng, n)
        eig = hermitian_eigen(a)
        norm = np.linalg.norm(a)
        recon = eig.vectors @ np.diag(eig.values) @ dagger(eig.vectors)
        assert np.abs(recon - a).max() < 1e-9 * norm
        gram = dagger(eig.vectors) @ eig.vectors
        assert np.abs(gram - np.eye(n)).max() < 1e-10
        for k in range(n):
            resid = a @ eig.vectors[:, k] - eig.values[k] * eig.vectors[:, k]
            assert np.abs(resid).max() < 1e-9 * norm

    def test_values_sorted_and_phase_fixed(self):
        rng = np.random.default_rng(5)
        a = random_hermitian(rng, 17)
        eig = hermitian_eigen(a)
        assert np.all(np.diff(eig.values) >= 0)
        lead = eig.vectors[np.argmax(np.abs(eig.vectors), axis=0), np.arange(17)]
        assert np.abs(lead.imag).max() < 1e-14
        assert lead.real.min() >= 0

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        a = random_hermitian(rng, 12)
        e1, e2 = hermitian_eigen(a), hermitian_eigen(a)
        assert np.array_equal(e1.values, e2.values)
        assert np.array_equal(e1.vectors, e2.vectors)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(7)
        stack = np.array([random_hermitian(rng, 6) for _ in range(5)])
        vals, vecs = hermitian_eigen_batch(stack)
        for k in range(5):
            single = hermitian_eigen(stack[k])
            assert np.allclose(vals[k], single.values, atol=1e-12)
            assert np.allclose(vecs[k], single.vectors, atol=1e-10)

    def test_real_symmetric_input(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(9, 9))
        a = (a + a.T) / 2
        eig = hermitian_eigen(a)
        recon = eig.vectors @ np.diag(eig.values) @ dagger(eig.vectors)
        assert np.abs(recon - a).max() < 1e-9 * np.linalg.norm(a)

    @pytest.mark.parametrize("n", [3, 10, 40])
    def test_eigenvalues_cross_checked_against_lapack(self, n):
        # independent oracle: LAPACK uses a different algorithm entirely
        rng = np.random.default_rng(200 + n)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = (a + a.conj().T) / 2
        mine = hermitian_eigen(a).values
        lapack = np.linalg.eigvalsh(a)
        assert np.abs(mine - lapack).max() < 1e-12 * np.linalg.norm(a)

    def test_one_dimensional_matrix(self):
        eig = hermitian_eigen(np.array([[2.5]], dtype=complex))
        assert eig.values[0] == 2.5
        assert eig.vectors[0, 0] == 1.0

    def test_degenerate_spectrum(self):
        eig = hermitian_eigen(np.eye(4, dtype=complex))
        assert np.allclose(eig.values, 1.0)
        assert np.abs(dagger(eig.vectors) @ eig.vectors - np.eye(4)).max() < 1e-12


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
            vals = tridiagonal_eigvalsh(diag, off, k)
            assert vals.shape == (20, k)
            assert np.all(np.abs(vals - lapack[:, :k]) <= bound[:, None])

    def test_zero_coupling_keeps_exact_degeneracy(self):
        # E_J = 0 at N_g = 1/2: charge states 0 and 1 both sit at 1/4, -1 and 2 at 9/4
        diag = ((np.arange(-5, 6) - 0.5) ** 2)[None, :]
        vals = tridiagonal_eigvalsh(diag, 0.0, 4)[0]
        assert vals[0] == vals[1] and vals[2] == vals[3]
        assert np.abs(vals - [0.25, 0.25, 2.25, 2.25]).max() <= 4 * EPS * 30.25

    def test_exactly_zero_pivot_without_coupling(self):
        # The Gershgorin interval [-1, 1] puts the first midpoint at 0 = d_0:
        # the first pivot is exactly zero and, with e = 0, only the pivmin
        # guard keeps the rest of that Sturm count from turning into NaN.
        diag = np.array([[0.0, -1.0, -0.5, 1.0, 0.5]])
        vals = tridiagonal_eigvalsh(diag, 0.0, 5)[0]
        assert np.abs(vals - np.sort(diag[0])).max() <= 8 * EPS

    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(15)
        diag = rng.normal(size=(7, 13))
        off = rng.normal(size=(7, 12))
        assert np.array_equal(
            tridiagonal_eigvalsh(diag, off, 5), tridiagonal_eigvalsh(diag, off, 5)
        )

    def test_rejects_bad_input(self):
        diag = np.zeros((2, 3))
        with pytest.raises(ValueError):
            tridiagonal_eigvalsh(diag, 1.0, 0)
        with pytest.raises(ValueError):
            tridiagonal_eigvalsh(diag, 1.0, 4)
        with pytest.raises(ValueError):
            tridiagonal_eigvalsh(diag, np.nan, 1)
        with pytest.raises(DimensionMismatch):
            tridiagonal_eigvalsh(np.zeros(3), 1.0, 1)


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_block_action_on_product_state(self):
        zero_zero = np.kron([1, 0], [1, 0]).astype(complex)
        one_zero = np.kron([0, 1], [1, 0]).astype(complex)
        assert np.allclose(kron(SX, np.eye(2)) @ zero_zero, one_zero)

    def test_shapes(self):
        assert kron(np.zeros((2, 3)), np.zeros((4, 5))).shape == (8, 15)

    def test_mixed_product_identity(self):
        rng = np.random.default_rng(9)
        a, b, c, d = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(4))
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        assert np.abs(lhs - rhs).max() < 1e-10


class TestEvolve:
    def test_number_operator_phases(self):
        omega0, t, dim = 1.3, 0.7, 5
        h = omega0 * np.diag(np.arange(dim)).astype(complex)
        for n in range(dim):
            amps = np.zeros(dim, dtype=complex)
            amps[n] = 1.0
            out = evolve(h, t, Ket(amps))
            assert abs(out.amps[n] - np.exp(-1j * n * omega0 * t)) < 1e-12

    def test_rabi_amplitudes(self):
        omega, t = 2.2, 0.9
        out = evolve(0.5 * omega * SX, t, Ket([1, 0]))
        assert abs(out.amps[0] - np.cos(omega * t / 2)) < 1e-12
        assert abs(out.amps[1] - (-1j) * np.sin(omega * t / 2)) < 1e-12

    def test_zero_time_is_identity(self):
        psi = Ket([0.6, 0.8j])
        assert evolve(SX, 0.0, psi) is psi

    def test_unitarity(self):
        rng = np.random.default_rng(10)
        h = random_hermitian(rng, 7)
        psi = random_ket(rng, 7)
        for t in rng.uniform(0, 10, size=8):
            assert abs(np.linalg.norm(evolve(h, t, psi).amps) - 1) < 1e-10

    def test_composition(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(rng, 6)
        psi = random_ket(rng, 6)
        t1, t2 = 0.37, 1.41
        once = evolve(h, t1 + t2, psi)
        twice = evolve(h, t2, evolve(h, t1, psi))
        assert np.abs(once.amps - twice.amps).max() < 1e-9

    def test_evolve_many_matches_evolve(self):
        rng = np.random.default_rng(12)
        h = random_hermitian(rng, 5)
        psi = random_ket(rng, 5)
        times = [0.0, 0.1, 0.5, 2.0]
        for t, out in zip(times, evolve_many(h, times, psi)):
            assert np.array_equal(out.amps, evolve(h, t, psi).amps)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            evolve(SX, 1.0, Ket([1, 0, 0]))


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

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            expectation(np.eye(3, dtype=complex), Ket([1, 0]))


class TestKet:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Ket([1.0, 1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Ket([np.inf, 0.0])

    def test_overlap_and_fidelity(self):
        a = Ket([1, 0])
        b = Ket(np.array([1, 1j]) / np.sqrt(2))
        assert abs(a.overlap(b) - 1 / np.sqrt(2)) < 1e-12
        assert abs(a.fidelity(b) - 0.5) < 1e-12

    def test_amps_immutable(self):
        psi = Ket([1, 0])
        with pytest.raises(ValueError):
            psi.amps[0] = 0.0
