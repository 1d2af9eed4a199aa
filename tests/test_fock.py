import numpy as np
import pytest

from cqed.errors import TruncationTooSmall
from cqed.fock import (
    FockBasis,
    cavity_mode_freq,
    coherent_evolution,
    coherent_ket,
    fock_ket,
    ladder_suite,
    quad_stats,
    _quadratures,
)
from cqed.linalg import expectation, fidelity


@pytest.fixture
def ops12():
    return ladder_suite(FockBasis(12))


class TestLadderSuite:
    def test_lower_on_one_and_vacuum(self, ops12):
        basis = FockBasis(12)
        assert np.allclose(ops12.lower @ fock_ket(1, basis).amps, fock_ket(0, basis).amps)
        assert np.allclose(ops12.lower @ fock_ket(0, basis).amps, 0.0)

    def test_raise_matrix_element(self, ops12):
        basis = FockBasis(12)
        out = ops12.raise_ @ fock_ket(2, basis).amps
        assert np.allclose(out, np.sqrt(3) * fock_ket(3, basis).amps)

    def test_number_expectation(self, ops12):
        assert abs(expectation(ops12.number, fock_ket(5, FockBasis(12))) - 5) < 1e-12

    def test_truncated_commutator_artifact(self):
        dim = 9
        ops = ladder_suite(FockBasis(dim))
        comm = ops.lower @ ops.raise_ - ops.raise_ @ ops.lower
        defect = comm - np.eye(dim)
        # off-diagonal entries vanish exactly (disjoint supports)
        assert np.array_equal(defect - np.diag(np.diag(defect)), np.zeros((dim, dim)))
        # diagonal: zero except the top level, which is exactly -dim up to
        # the roundoff of (sqrt n)^2
        expected = np.zeros(dim)
        expected[dim - 1] = -dim
        assert np.abs(np.diag(defect) - expected).max() < 1e-13

    def test_quadrature_commutator_below_top_level(self):
        dim = 10
        ops = ladder_suite(FockBasis(dim))
        comm = ops.x1 @ ops.x2 - ops.x2 @ ops.x1
        inner = comm[: dim - 1, : dim - 1]
        assert np.abs(inner - 0.5j * np.eye(dim - 1)).max() < 1e-14

    def test_energy_ladder(self):
        dim, omega0 = 14, 0.8
        ops = ladder_suite(FockBasis(dim))
        h = omega0 * (ops.number + 0.5 * np.eye(dim))
        expected = omega0 * (np.arange(dim) + 0.5)
        assert np.abs(np.linalg.eigvalsh(h) - expected).max() < 1e-9

    def test_min_dim(self):
        with pytest.raises(ValueError):
            FockBasis(1)


class TestCoherentStates:
    def test_vacuum(self):
        psi = coherent_ket(0.0, FockBasis(12))
        assert fidelity(psi, fock_ket(0, FockBasis(12))) == 1.0

    def test_mean_and_variance(self):
        basis = FockBasis(48)
        ops = ladder_suite(basis)
        psi = coherent_ket(1.5, basis)
        n_mean = expectation(ops.number, psi).real
        n_sq = expectation(ops.number @ ops.number, psi).real
        assert abs(n_mean - 2.25) < 1e-8
        assert abs((n_sq - n_mean**2) - 2.25) < 1e-7

    def test_annihilation_eigenstate(self):
        basis = FockBasis(48)
        alpha = 1.2 - 0.7j
        psi = coherent_ket(alpha, basis)
        resid = ladder_suite(basis).lower @ psi.amps - alpha * psi.amps
        assert np.linalg.norm(resid) < 1e-6

    def test_truncation_guard(self):
        with pytest.raises(TruncationTooSmall):
            coherent_ket(3.0, FockBasis(12))


class TestCoherentEvolution:
    def test_zero_time(self):
        basis = FockBasis(40)
        out = coherent_evolution(1.1, 2.0, 0.0, basis)
        ref = coherent_ket(1.1, basis)
        assert fidelity(out["analytic"], ref) > 1 - 1e-12
        assert fidelity(out["numeric"], ref) > 1 - 1e-12

    def test_full_period_returns(self):
        basis = FockBasis(40)
        omega0 = 1.7
        out = coherent_evolution(1.3, omega0, 2 * np.pi / omega0, basis)
        ref = coherent_ket(1.3, basis)
        assert fidelity(out["numeric"], ref) > 1 - 1e-8
        assert fidelity(out["analytic"], ref) > 1 - 1e-8

    def test_quarter_period_rotates_alpha(self):
        basis = FockBasis(40)
        out = coherent_evolution(1.0, 1.0, np.pi / 2, basis)
        assert fidelity(out["analytic"], coherent_ket(1j, basis)) > 1 - 1e-10
        assert fidelity(out["numeric"], coherent_ket(1j, basis)) > 1 - 1e-8

    def test_analytic_numeric_agreement(self):
        basis = FockBasis(44)
        out = coherent_evolution(1.4 + 0.3j, 0.9, 2.31, basis)
        assert fidelity(out["analytic"], out["numeric"]) > 1 - 1e-8


class TestQuadratures:
    def test_vacuum(self):
        basis = FockBasis(12)
        stats = quad_stats(fock_ket(0, basis), basis)
        assert abs(stats["mean1"]) < 1e-12 and abs(stats["mean2"]) < 1e-12
        assert abs(stats["var1"] - 0.25) < 1e-12
        assert abs(stats["var2"] - 0.25) < 1e-12

    def test_fock_state(self):
        basis = FockBasis(12)
        stats = quad_stats(fock_ket(3, basis), basis)
        assert abs(stats["var1"] - (1.5 + 0.25)) < 1e-12
        assert abs(stats["var2"] - (1.5 + 0.25)) < 1e-12

    def test_coherent_state(self):
        basis = FockBasis(48)
        theta = np.pi / 3
        alpha = 2.0 * np.exp(1j * theta)
        stats = quad_stats(coherent_ket(alpha, basis), basis)
        assert abs(stats["mean1"] - 2 * np.cos(theta)) < 1e-6
        assert abs(stats["mean2"] - 2 * np.sin(theta)) < 1e-6
        assert abs(stats["var1"] - 0.25) < 1e-6
        assert abs(stats["var2"] - 0.25) < 1e-6

    def test_matches_uncached_operators_bit_for_bit(self):
        basis = FockBasis(40)
        ops = ladder_suite(basis)
        for alpha in (0.0, 1.5, 2.0 - 1.0j):
            psi = coherent_ket(alpha, basis)
            stats = quad_stats(psi, basis)
            for name, op in (("1", ops.x1), ("2", ops.x2)):
                mean = expectation(op, psi).real
                assert stats[f"mean{name}"] == mean
                assert stats[f"var{name}"] == expectation(op @ op, psi).real - mean * mean

    def test_cached_operators_are_read_only(self):
        for mat in _quadratures(12):
            with pytest.raises(ValueError):
                mat[0, 0] = 7.0


class TestCavityModes:
    def test_half_wave_fundamental(self):
        assert cavity_mode_freq("half-wave", 2.0, 0) == 2.0

    def test_half_wave_third_harmonic(self):
        assert cavity_mode_freq("half-wave", 2.0, 2) == 6.0

    def test_quarter_wave_odd_ladder(self):
        assert cavity_mode_freq("quarter-wave", 2.0, 2) == 10.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            cavity_mode_freq("half-wave", 1.0, -1)
        with pytest.raises(ValueError):
            cavity_mode_freq("open", 1.0, 0)
