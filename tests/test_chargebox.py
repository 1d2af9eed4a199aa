import numpy as np
import pytest

from cqed.chargebox import (
    charge_dispersion,
    exact_gap,
    koch_dispersion,
    second_order_gap,
    spectrum_sweep,
)
from cqed.cli import _transmon_ncut
from cqed.errors import TruncationTooSmall
from cqed.fitting import dominant_frequency
from cqed.linalg import Ket, fidelity, tridiagonal_eigvalsh_groups
from cqed.qubit import KET_MINUS, KET_PLUS, rabi_trace

#: The default ``transmon --ratios``.
RATIOS = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0]


def cpb_hamiltonian(ec, ej, ng, ncut):
    """Dense real symmetric tridiagonal box Hamiltonian (dimension 2 ncut + 1)."""
    charges = np.arange(-ncut, ncut + 1)
    h = np.diag(ec * (charges - ng) ** 2).astype(np.float64)
    hop = -0.5 * ej * np.ones(2 * ncut)
    h += np.diag(hop, 1) + np.diag(hop, -1)
    return h


def lowest_gap(ec, ej, ng, ncut=10):
    # independent oracle: LAPACK on the dense Hamiltonian
    vals = np.linalg.eigvalsh(cpb_hamiltonian(ec, ej, ng, ncut))
    return vals[1] - vals[0]


class TestHamiltonian:
    def test_no_coupling_is_diagonal_parabola(self):
        h = cpb_hamiltonian(1.0, 0.0, 0.3, 4)
        assert np.array_equal(h, np.diag(np.diag(h)))
        assert np.allclose(np.diag(h), (np.arange(-4, 5) - 0.3) ** 2)

    def test_crossing_point_energies(self):
        # bare parabola values at the special gate offsets
        for ng, e in [(0.0, 0.0), (0.5, 0.25), (1.0, 1.0), (1.5, 2.25)]:
            assert abs((0.0 - ng) ** 2 - e) < 1e-12

    def test_real_symmetric(self):
        h = cpb_hamiltonian(1.0, 0.3, 0.41, 6)
        assert h.dtype == np.float64
        assert np.array_equal(h, h.T)

    def test_tridiagonal_coupling(self):
        h = cpb_hamiltonian(1.0, 0.4, 0.0, 3)
        off = np.diag(h, 1)
        assert np.allclose(off, -0.2)
        assert np.abs(np.triu(h, 2)).max() == 0.0


class TestSpectrumSweep:
    def test_sweet_spot_gap_near_ej(self):
        # Degenerate perturbation theory gives gap = E_J - E_J^3/16 + O(E_J^5)
        # at the sweet spot (E_C = 1); the printed first-order result E_J is
        # accurate only to that cubic correction, which dominates here.
        gap = lowest_gap(1.0, 0.1, 0.5)
        assert abs(gap - 0.1) < 1e-4
        assert abs(gap - (0.1 - 0.1**3 / 16)) < 1e-7

    @pytest.mark.parametrize("ej", [0.1, 0.05, 0.02])
    def test_sweet_spot_gap_is_third_order_perturbation_theory(self, ej):
        # The companion of acceptance criterion 1's strict xfail: the solver's
        # gap at ncut 10 is E_J - E_J^3/16 to O(E_J^5).  Measured: 4.78e-8,
        # 1.49e-9 and 1.53e-11 off, about 0.0048 E_J^5.
        levels = spectrum_sweep(1.0, ej, np.array([0.5]), ncut=10, k=2)[0]
        assert abs(levels[1] - levels[0] - (ej - ej**3 / 16)) <= ej**5 / 100

    def test_zero_coupling_matches_parabolas(self):
        grid = np.linspace(0.0, 1.0, 21)
        sweep = spectrum_sweep(1.0, 0.0, grid, ncut=6, k=3)
        charges = np.arange(-6, 7)
        for ng, levels in zip(grid, sweep):
            expected = np.sort((charges - ng) ** 2)[:3]
            assert np.abs(levels - expected).max() < 1e-10

    def test_zero_coupling_degeneracy_at_half_is_exact(self):
        sweep = spectrum_sweep(1.0, 0.0, np.array([0.5]), ncut=6, k=4)
        levels = sweep[0]
        assert levels[0] == levels[1] and levels[2] == levels[3]

    def test_matches_lapack(self):
        # bisection error bound: (1e-12 + n eps) ||H||_F, as for LAPACK itself
        grid = np.linspace(0.0, 1.0, 9)
        for ej, ncut in ((0.1, 10), (50.0, 24)):
            sweep = spectrum_sweep(1.0, ej, grid, ncut=ncut, k=4)
            for ng, levels in zip(grid, sweep):
                h = cpb_hamiltonian(1.0, ej, ng, ncut)
                bound = (1e-12 + h.shape[0] * np.finfo(float).eps) * np.linalg.norm(h)
                assert np.abs(levels - np.linalg.eigvalsh(h)[:4]).max() <= bound

    def test_eigenvalue_paths_build_no_dense_matrix(self, monkeypatch):
        import cqed.chargebox as cb
        import cqed.linalg

        def dense(*args, **kwargs):
            raise AssertionError("eigenvector solver on an eigenvalue-only path")

        monkeypatch.setattr(cqed.linalg, "tridiagonal_eigh", dense)
        assert not hasattr(cb, "tridiagonal_eigh") and not hasattr(cb, "cpb_hamiltonian")
        spectrum_sweep(1.0, 0.1, np.linspace(0.0, 1.0, 5), ncut=5, k=3)
        charge_dispersion(1.0, 1.0, ncut=5)
        second_order_gap(1.0, np.array([0.02, 0.04]), ncut=6)

    def test_mirror_symmetry_about_half(self):
        grid = np.linspace(0.0, 1.0, 41)
        sweep = spectrum_sweep(1.0, 0.2, grid, ncut=8, k=4)
        assert np.abs(sweep - sweep[::-1]).max() < 1e-9

    def test_period_one_in_gate_charge(self):
        grid = np.linspace(0.0, 1.0, 11)
        a = spectrum_sweep(1.0, 0.15, grid, ncut=9, k=3)
        b = spectrum_sweep(1.0, 0.15, grid + 1.0, ncut=9, k=3)
        assert np.abs(a - b).max() < 1e-9

    def test_levels_ascending_and_continuous(self):
        grid = np.linspace(0.0, 1.0, 201)
        sweep = spectrum_sweep(1.0, 0.3, grid, ncut=8, k=4)
        assert np.all(np.diff(sweep, axis=1) >= -1e-12)
        # |dE/dNg| <= 2 E_C (ncut + 1) bounds jumps between grid points
        bound = 2.0 * (8 + 1) * (grid[1] - grid[0]) * 1.5
        assert np.abs(np.diff(sweep, axis=0)).max() < bound

    def test_empty_grid(self):
        levels = spectrum_sweep(1.0, 0.1, np.array([]), ncut=10, k=3)
        assert levels.shape == (0, 3)

    def test_k_capped_by_truncation(self):
        with pytest.raises(ValueError):
            spectrum_sweep(1.0, 0.1, np.array([0.5]), ncut=5, k=10)

    def test_truncation_stability(self):
        grid = np.array([0.0, 0.17, 0.5])
        # genuine truncation shift of level 3 at E_J = E_C peaks at 1.34e-10
        # for ncut = 5, so the bound sits just above that floor
        small = spectrum_sweep(1.0, 1.0, grid, ncut=5, k=4)
        large = spectrum_sweep(1.0, 1.0, grid, ncut=10, k=4)
        assert np.abs(small - large).max() < 2e-10
        mild = spectrum_sweep(1.0, 0.1, grid, ncut=5, k=4)
        mild_ref = spectrum_sweep(1.0, 0.1, grid, ncut=10, k=4)
        assert np.abs(mild - mild_ref).max() < 1e-12


class TestExactGap:
    def test_sweet_spot_value(self):
        assert exact_gap(1.0, 0.1, 0.0) == 0.1

    def test_linear_asymptote(self):
        gap = exact_gap(1.0, 0.02, 0.2)
        assert abs(gap - 0.4) / 0.4 < 0.01

    def test_zero_coupling_limit(self):
        assert abs(exact_gap(1.0, 0.0, 0.07) - 0.14) < 1e-15

    def test_crossover_width(self):
        # at dg = (E_J/2)/E_C the two contributions are equal
        ec, ej = 1.0, 0.1
        dg = (ej / 2) / ec
        assert abs(exact_gap(ec, ej, dg) - np.sqrt(2) * ej) < 1e-12

    def test_two_level_matches_full_inside_validity(self):
        for dg in np.linspace(-0.2, 0.2, 9):
            full = lowest_gap(1.0, 0.1, 0.5 + dg)
            assert abs(full - exact_gap(1.0, 0.1, dg)) < 1e-3


class TestTwoLevelReduction:
    """The charge states 0 and 1 alone: the 2 x 2 block of the dense oracle."""

    @staticmethod
    def block(ec, ej, ng):
        return cpb_hamiltonian(ec, ej, ng, 2)[2:4, 2:4]  # charges -2..2: rows of 0 and 1

    @pytest.mark.parametrize("dg", [0.0, 0.05, 0.13, -0.2])
    def test_splitting_is_the_exact_gap(self, dg):
        vals = np.linalg.eigvalsh(self.block(1.0, 0.1, 0.5 + dg))
        assert abs((vals[1] - vals[0]) - exact_gap(1.0, 0.1, dg)) < 1e-13

    def test_sweet_spot_eigenstates_are_plus_and_minus(self):
        # at N_g = 1/2 the charge terms are equal and -E_J/2 sigma_x is all that is left
        _, vecs = np.linalg.eigh(self.block(1.0, 0.1, 0.5))
        assert fidelity(Ket(vecs[:, 0]), KET_PLUS) > 1 - 1e-12
        assert fidelity(Ket(vecs[:, 1]), KET_MINUS) > 1 - 1e-12


def charge_survival(ec, ej, ncut, times):
    """|<0|exp(-i H t)|0>|^2 at N_g = 1/2 after a sudden gate step, from the dense oracle."""
    vals, vecs = np.linalg.eigh(cpb_hamiltonian(ec, ej, 0.5, ncut))
    weights = np.abs(vecs[ncut]) ** 2  # overlaps of charge state 0 with each level
    return np.abs(weights @ np.exp(-1j * np.outer(vals, times))) ** 2


class TestSuddenGate:
    def test_survival_follows_the_two_level_cosine(self):
        ej = 0.1
        times = np.linspace(0.0, 4 * np.pi / ej, 160)
        two_level = rabi_trace(exact_gap(1.0, ej, 0.0), times)[0]
        assert np.abs(charge_survival(1.0, ej, 10, times) - two_level).max() < 2e-2

    def test_half_period_empties_the_charge_state(self):
        # the floor is nonzero at order (E_J / 2 E_C)^2 from charge-state admixture
        ej = 0.1
        times = np.array([np.pi / exact_gap(1.0, ej, 0.0)])
        assert charge_survival(1.0, ej, 10, times)[0] < 2e-2

    def test_oscillation_frequency_is_the_gap(self):
        ej = 0.1
        times = np.linspace(0.0, 20 * 2 * np.pi / ej, 2048)
        freq = dominant_frequency(times, charge_survival(1.0, ej, 10, times))
        assert abs(freq - exact_gap(1.0, ej, 0.0) / (2 * np.pi)) <= 1.0 / times[-1]


class TestSweetSpot:
    def test_flat_at_half(self):
        h = 1e-3
        slope = (lowest_gap(1.0, 0.1, 0.5 + h) - lowest_gap(1.0, 0.1, 0.5 - h)) / (2 * h)
        assert abs(slope) < 1e-6

    def test_steep_away_from_half(self):
        h = 1e-3
        slope = (lowest_gap(1.0, 0.1, 0.3 + h) - lowest_gap(1.0, 0.1, 0.3 - h)) / (2 * h)
        assert abs(slope) > 0.1


class TestChargeDispersion:
    def test_small_coupling_matches_two_level_estimate(self):
        out = charge_dispersion(1.0, 0.1, ncut=6)
        # two-level estimate of the extremes: exact_gap at the period edge
        # (dg = 1/2) minus the sweet-spot minimum E_J
        estimate = exact_gap(1.0, 0.1, 0.5) - exact_gap(1.0, 0.1, 0.0)
        assert abs(out["dispersion"] - estimate) / estimate < 0.05
        # the minimum is the sweet-spot gap, about E_J
        assert abs(out["min_gap"] - exact_gap(1.0, 0.1, 0.0)) / 0.1 < 0.05

    def test_monotone_suppression_with_ratio(self):
        ratios = [1, 2, 5, 10, 20, 50]
        disps = []
        for r in ratios:
            ncut = max(5, int(np.ceil(np.sqrt(r))) + 4)
            disps.append(charge_dispersion(1.0, float(r), ncut)["dispersion"])
        assert all(a > b for a, b in zip(disps, disps[1:]))
        assert disps[-1] < 0.01 * disps[0]

    def test_truncation_guard_raises(self):
        with pytest.raises(TruncationTooSmall):
            charge_dispersion(1.0, 60.0, ncut=3)

    def test_pair_list_matches_scalar_calls(self):
        # unsorted, a repeat, and pairs that share an ncut or a doubled ncut
        pairs = [(20.0, 9), (1.0, 5), (0.5, 10), (1.0, 5), (5.0, 7)]
        out = charge_dispersion(1.0, [ej for ej, _ in pairs], [n for _, n in pairs])
        for i, (ej, ncut) in enumerate(pairs):
            one = charge_dispersion(1.0, ej, ncut)
            assert {key: out[key][i] for key in out} == one

    def test_pair_list_raises_for_the_first_failing_pair(self):
        with pytest.raises(TruncationTooSmall, match="ncut=3"):
            charge_dispersion(1.0, [1.0, 60.0, 60.0], [6, 3, 4])

    @pytest.mark.parametrize("ratio", RATIOS)
    def test_symmetry_points_match_a_dense_grid_scan(self, ratio):
        # LAPACK on the dense doubled-ncut Hamiltonian over 201 gate charges:
        # the gap's extremes over the grid are those at N_g = 0 and 1/2
        ncut = _transmon_ncut(ratio)
        out = charge_dispersion(1.0, ratio, ncut)
        grid = np.linspace(0.0, 1.0, 201)
        gaps = np.array([lowest_gap(1.0, ratio, ng, 2 * ncut) for ng in grid])
        assert grid[0] == 0.0 and grid[100] == 0.5
        floor = out["dispersion_floor"]
        assert abs(out["max_gap"] - gaps.max()) <= floor
        assert abs(out["min_gap"] - gaps.min()) <= floor
        assert abs(out["dispersion"] - (gaps.max() - gaps.min())) <= floor

    def test_roundoff_dispersion_lies_below_its_floor(self):
        ncuts = [_transmon_ncut(r) for r in RATIOS]
        out = charge_dispersion(1.0, RATIOS, ncuts)
        below = out["dispersion"] < out["dispersion_floor"]
        # ratio 50's dispersion (about 1.3e-13) is roundoff, the others are not
        assert below.tolist() == [False] * 5 + [True]
        # floor = eps ||H|| dim of the doubled-ncut Hamiltonian, ||H|| <= max d + E_J
        dim = 4 * ncuts[-1] + 1
        h_norm = (2 * ncuts[-1] + 0.5) ** 2 + RATIOS[-1]
        assert out["dispersion_floor"][-1] == np.finfo(float).eps * h_norm * dim


class TestNcutRule:
    # Every box function refuses ncut 1, before any other check: spectrum_sweep's
    # k = 5 is out of range for it too.
    @pytest.mark.parametrize("call", [
        lambda: spectrum_sweep(1.0, 0.1, [0.0], 1, 5),
        lambda: charge_dispersion(1.0, 1.0, 1),
        lambda: second_order_gap(1.0, np.array([0.02]), ncut=1),
    ], ids=["spectrum_sweep", "charge_dispersion", "second_order_gap"])
    def test_ncut_one_is_refused(self, call):
        with pytest.raises(ValueError, match=r"^ncut must be at least 2$"):
            call()


class TestKochDispersion:
    def test_agrees_with_the_bisection_above_the_floor(self):
        ncuts = [_transmon_ncut(r) for r in RATIOS]
        out = charge_dispersion(1.0, RATIOS, ncuts)
        rel = koch_dispersion(1.0, np.array(RATIOS)) / out["dispersion"] - 1
        above = out["dispersion"] >= out["dispersion_floor"]
        # an asymptote in E_J / E_C: the error falls with the ratio
        assert np.all(np.diff(np.abs(rel[above])) < 0)
        assert 0.20 < rel[3] < 0.26  # ratio 10
        assert 0.12 < rel[4] < 0.18  # ratio 20
        assert np.abs(rel[2:][above[2:]]).max() < 0.4


class TestSecondOrderGap:
    def test_quadratic_scaling_of_zero_two_crossing(self):
        ej = np.array([0.02, 0.04, 0.08])
        out = second_order_gap(1.0, ej, ncut=10)
        assert abs(out["slope"] - 2.0) < 0.1
        # absolute size: degenerate PT gives gap = E_J^2 / (2 E_C)
        assert np.allclose(out["gaps"], ej**2 / 2, rtol=0.05)

    def test_symmetry_point_is_the_minimum(self):
        ej_values = np.array([0.02, 0.04])
        out = second_order_gap(1.0, ej_values, ncut=8)
        for ej, gap in zip(ej_values, out["gaps"]):
            levels = spectrum_sweep(1.0, ej, 1.0 + np.array([-1e-3, 1e-3]), ncut=8, k=3)
            assert np.all(levels[:, 2] - levels[:, 1] > gap)

    def test_gap_vanishes_with_coupling(self):
        out = second_order_gap(1.0, np.array([0.005, 0.01]), ncut=8)
        assert out["gaps"][0] < out["gaps"][1] < 1e-3

    def test_requires_weak_coupling(self):
        with pytest.raises(ValueError):
            second_order_gap(1.0, np.array([0.5]), ncut=8)

    def test_one_bisection_matches_separate_calls_bit_for_bit(self):
        ej_values = np.array([0.02, 0.04, 0.08])
        out = second_order_gap(1.0, ej_values, ncut=10)
        diag = (np.arange(-10, 11)[None, :] - 1.0) ** 2
        for ej, gap in zip(ej_values, out["gaps"]):
            vals = tridiagonal_eigvalsh_groups([(diag, -0.5 * ej, 3)])[0][0]
            assert gap == vals[2] - vals[1]

