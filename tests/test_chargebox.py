import numpy as np
import pytest

from cqed.chargebox import (
    CPBParams,
    ChargeBasis,
    adiabatic_sweep_sim,
    charge_dispersion,
    cpb_hamiltonian,
    exact_gap,
    koch_dispersion,
    reduced_qubit,
    second_order_gap,
    spectrum_sweep,
    sudden_gate_sim,
)
from cqed.cli import _transmon_ncut
from cqed.errors import TruncationTooSmall
from cqed.fitting import dominant_frequency
from cqed.linalg import tridiagonal_eigvalsh

#: The default ``transmon --ratios``.
RATIOS = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0]


def lowest_gap(ec, ej, ng, ncut=10):
    # independent oracle: LAPACK on the dense Hamiltonian
    vals = np.linalg.eigvalsh(cpb_hamiltonian(CPBParams(ec, ej, ng), ChargeBasis(ncut)))
    return vals[1] - vals[0]


class TestHamiltonian:
    def test_no_coupling_is_diagonal_parabola(self):
        basis = ChargeBasis(4)
        h = cpb_hamiltonian(CPBParams(ec=1.0, ej=0.0, ng=0.3), basis)
        assert np.array_equal(h, np.diag(np.diag(h)))
        assert np.allclose(np.diag(h), (basis.charges - 0.3) ** 2)

    def test_crossing_point_energies(self):
        # bare parabola values at the special gate offsets
        for ng, e in [(0.0, 0.0), (0.5, 0.25), (1.0, 1.0), (1.5, 2.25)]:
            assert abs((0.0 - ng) ** 2 - e) < 1e-12

    def test_real_symmetric(self):
        h = cpb_hamiltonian(CPBParams(1.0, 0.3, 0.41), ChargeBasis(6))
        assert h.dtype == np.float64
        assert np.array_equal(h, h.T)

    def test_tridiagonal_coupling(self):
        h = cpb_hamiltonian(CPBParams(1.0, 0.4, 0.0), ChargeBasis(3))
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

    def test_zero_coupling_matches_parabolas(self):
        grid = np.linspace(0.0, 1.0, 21)
        sweep = spectrum_sweep(1.0, 0.0, grid, ncut=6, k=3)
        charges = ChargeBasis(6).charges
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
                h = cpb_hamiltonian(CPBParams(1.0, ej, ng), ChargeBasis(ncut))
                bound = (1e-12 + h.shape[0] * np.finfo(float).eps) * np.linalg.norm(h)
                assert np.abs(levels - np.linalg.eigvalsh(h)[:4]).max() <= bound

    def test_eigenvalue_paths_build_no_dense_matrix(self, monkeypatch):
        import cqed.chargebox as cb

        def dense(*args, **kwargs):
            raise AssertionError("eigenvector solver or dense builder on an eigenvalue-only path")

        monkeypatch.setattr(cb, "tridiagonal_eigh", dense)
        monkeypatch.setattr(cb, "cpb_hamiltonian", dense)
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


class TestReducedQubit:
    def test_sweet_spot_is_pure_sigma_x(self):
        out = reduced_qubit(1.0, 0.1, 0.0)
        assert np.allclose(out["h2"], [[0.0, -0.05], [-0.05, 0.0]])
        assert abs(out["offset"] - 0.25) < 1e-15
        values = np.linalg.eigvalsh(out["h2"])
        assert np.allclose(values, [-0.05, 0.05])
        # eigenstates are |-+>; full energies E_C/4 -+ E_J/2 with the offset
        assert np.allclose(out["offset"] + values, [0.2, 0.3])

    def test_eigenvalues_match_closed_form(self):
        ec, ej, dg = 1.0, 0.1, 0.13
        values = np.linalg.eigvalsh(reduced_qubit(ec, ej, dg)["h2"])
        expected = np.sqrt(ec**2 * dg**2 + ej**2 / 4)
        assert np.allclose(values, [-expected, expected], atol=1e-14)

    def test_requires_small_offset(self):
        with pytest.raises(ValueError):
            reduced_qubit(1.0, 0.1, 0.6)


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
        assert abs(out["first_order_slope"] - 1.0) < 0.05
        # absolute size: degenerate PT gives gap = E_J^2 / (2 E_C)
        assert np.allclose(out["gaps"], ej**2 / 2, rtol=0.05)

    def test_symmetry_points_are_the_minima(self):
        ej_values = np.array([0.02, 0.04])
        out = second_order_gap(1.0, ej_values, ncut=8)
        for k, ej in enumerate(ej_values):
            for (lo, hi), ng, gap in (((1, 2), 1.0, out["gaps"][k]),
                                      ((0, 1), 0.5, out["first_order_gaps"][k])):
                near = ng + np.array([-1e-3, 1e-3])
                levels = spectrum_sweep(1.0, ej, near, ncut=8, k=3)
                assert np.all(levels[:, hi] - levels[:, lo] > gap)

    def test_gap_vanishes_with_coupling(self):
        out = second_order_gap(1.0, np.array([0.005, 0.01]), ncut=8)
        assert out["gaps"][0] < out["gaps"][1] < 1e-3

    def test_requires_weak_coupling(self):
        with pytest.raises(ValueError):
            second_order_gap(1.0, np.array([0.5]), ncut=8)

    def test_one_bisection_matches_separate_calls_bit_for_bit(self):
        ej_values = np.array([0.02, 0.04, 0.08])
        out = second_order_gap(1.0, ej_values, ncut=10)
        for k, ej in enumerate(ej_values):
            for key, (lo, hi), ng in (("gaps", (1, 2), 1.0), ("first_order_gaps", (0, 1), 0.5)):
                diag = (np.arange(-10, 11)[None, :] - ng) ** 2
                vals = tridiagonal_eigvalsh(diag, -0.5 * ej, hi + 1)[0]
                assert out[key][k] == vals[hi] - vals[lo]


class TestSuddenGate:
    def test_survival_starts_at_one(self):
        out = sudden_gate_sim(1.0, 0.1, np.array([0.0, 1.0]), ncut=8)
        assert abs(out["p0"][0] - 1.0) < 1e-12

    def test_matches_two_level_cosine(self):
        times = np.linspace(0.0, 4 * np.pi / 0.1, 160)
        out = sudden_gate_sim(1.0, 0.1, times, ncut=10)
        assert np.abs(out["p0"] - out["two_level"]).max() < 2e-2

    def test_pi_pulse_prepares_excited_state(self):
        # p0 formula (1 + cos(E_J t))/2 reaches its floor at t = pi/E_J; the
        # floor is nonzero at order (E_J / 2 E_C)^2 from charge-state
        # admixture, inside the declared 2e-2 two-level validity band
        ej = 0.1
        times = np.array([np.pi / ej])
        out = sudden_gate_sim(1.0, ej, times, ncut=10)
        assert out["p0"][0] < 2e-2

    def test_oscillation_frequency_is_gap(self):
        ej = 0.1
        times = np.linspace(0.0, 20 * 2 * np.pi / ej, 2048)
        out = sudden_gate_sim(1.0, ej, times, ncut=10)
        freq = dominant_frequency(times, out["p0"])
        resolution = 1.0 / times[-1]
        assert abs(freq - ej / (2 * np.pi)) <= resolution


class TestAdiabaticSweep:
    def test_slow_ramp_reaches_plus(self):
        # E_J * T = 100: diabatic leakage ~ 3e-3, safely past the 0.99 mark
        # (at E_J * T = 50 the converged fidelity is 0.9876)
        out = adiabatic_sweep_sim(1.0, 0.1, ramp_time=1000.0, steps=2000, ncut=8)
        assert out["fidelity_to_plus"] > 0.99

    def test_fidelity_ladder_monotone(self):
        fids = [
            adiabatic_sweep_sim(1.0, 0.1, ramp_time=t, steps=800, ncut=8)["fidelity_to_plus"]
            for t in (62.5, 125.0, 250.0, 500.0)
        ]
        for slow, fast in zip(fids, fids[1:]):
            assert fast >= slow - 1e-3

    def test_sudden_limit_is_half(self):
        out = adiabatic_sweep_sim(1.0, 0.1, ramp_time=1e-6, steps=600, ncut=8)
        assert abs(out["fidelity_to_plus"] - 0.5) < 0.05

    def test_step_resolution_guard(self):
        with pytest.raises(ValueError):
            adiabatic_sweep_sim(1.0, 0.1, ramp_time=1.0, steps=100, ncut=8)
