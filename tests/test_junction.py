import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from cqed import cli, junction
from cqed.errors import NoMinimum, StepUnstable
from cqed.junction import (
    first_minimum,
    flux_qubit_potential,
    squid_effective,
    two_island_dynamics,
    washboard_u,
    _newton,
)
from oracles import first_minimum_numeric, two_island_rk4


EPS = np.finfo(np.float64).eps


def numeric_derivative(f, x, order, h=1e-3):
    """Centered finite-difference derivative, the oracle for Taylor data."""
    if order == 0:
        return f(x)
    if order == 1:
        return (f(x + h) - f(x - h)) / (2 * h)
    if order == 2:
        return (f(x + h) - 2 * f(x) + f(x - h)) / h**2
    if order == 3:
        return (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h) - f(x - 2 * h)) / (2 * h**3)
    raise ValueError(order)


class TestWashboard:
    def test_untilted_extremes(self):
        us = washboard_u(0.0, [0.0, np.pi])
        assert us[0] == -1.0
        assert us[1] == 1.0

    def test_critical_inflection_value(self):
        (u,) = washboard_u(1.0, [np.pi / 2])
        assert abs(u - (-np.pi / 2)) < 1e-12

    def test_first_minimum_examples(self):
        assert first_minimum(0.0) == 0.0
        assert abs(first_minimum(1.0) - np.pi / 2) < 1e-12
        assert abs(first_minimum(0.5) - np.pi / 6) < 1e-12

    @pytest.mark.parametrize(
        "bias", [0.0, 0.1, 0.5, -0.5, 0.9, 0.93936, 0.999999, -0.999999, 1.0, -1.0]
    )
    def test_first_minimum_against_newton_oracle(self, bias):
        # at +-1 the root is an end of [-pi/2, pi/2], where u' is exactly zero
        assert abs(first_minimum(bias) - first_minimum_numeric(bias)) < 1e-13

    def test_no_minimum_beyond_critical(self):
        with pytest.raises(NoMinimum):
            first_minimum(1.01)
        with pytest.raises(NoMinimum):
            first_minimum(-1.2)

    @pytest.mark.parametrize("bias", [0.0, 0.1, 0.5, 0.9])
    def test_minimum_is_stationary_and_stable(self, bias):
        phi = first_minimum(bias)
        u = lambda p: washboard_u(bias, np.array([p]))[0]
        assert abs(numeric_derivative(u, phi, 1, h=1e-5)) < 1e-9
        assert numeric_derivative(u, phi, 2, h=1e-4) > 0

    @pytest.mark.parametrize("bias", [0.0, 0.25, 0.5, 0.99])
    def test_josephson_relation_roundtrip(self, bias):
        # sin(arcsin(bias)) recovers the bias current exactly
        assert abs(math.sin(first_minimum(bias)) - bias) < 1e-12


class TestWashboardTaylor:
    """Taylor coefficients u^(k)(phi)/k!, k = 0..3, against finite differences."""

    @staticmethod
    def coefficients(bias, point):
        u = lambda p: washboard_u(bias, np.array([p]))[0]
        return np.array(
            [numeric_derivative(u, point, k) / math.factorial(k) for k in range(4)]
        )

    @pytest.mark.parametrize("bias", [0.0, 0.05, 0.5, 0.9, -0.5])
    def test_expansion_about_the_minimum(self, bias):
        # sin(phi0) = bias: u = u0 + cos(phi0) x^2/2 - sin(phi0) x^3/6 + ...
        phi0 = first_minimum(bias)
        root = math.sqrt(1.0 - bias**2)
        expected = [-bias * phi0 - root, 0.0, root / 2, -bias / 6]
        assert np.abs(self.coefficients(bias, phi0) - expected).max() < 1e-6

    def test_critical_bias_is_purely_cubic(self):
        # at I = I0 the minimum has merged with the maximum: no linear or quadratic term
        coeffs = self.coefficients(1.0, first_minimum(1.0))
        assert np.abs(coeffs - [-np.pi / 2, 0.0, 0.0, -1.0 / 6]).max() < 1e-6


class TestSquid:
    def test_zero_flux_full_current(self):
        assert squid_effective(1.0, 0.0)["critical"] == 2.0

    def test_half_quantum_switches_off(self):
        assert abs(squid_effective(1.0, 0.5)["critical"]) < 1e-12

    @pytest.mark.parametrize("n", [0, 1, -3])
    def test_array_of_fluxes_equals_scalar_calls_bit_for_bit(self, n):
        fluxes = np.linspace(-2.5, 2.5, 2001)
        out = squid_effective(0.7, fluxes, n)
        for key, values in out.items():
            expected = np.array([squid_effective(0.7, float(f), n)[key] for f in fluxes])
            assert values.tobytes() == expected.tobytes()

    def test_third_quantum_halves_the_critical_current(self):
        # so the loop's Josephson inductance Phi0 / (2 pi I_c) doubles
        assert abs(squid_effective(1.0, 1.0 / 3.0)["magnitude"] - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [-1, 0, 1, 2])
    def test_fluxoid_branch_sets_the_sign(self, n):
        # cos(pi (n - phi)) = (-1)^n cos(pi phi)
        out, base = squid_effective(0.7, 0.2, n=n), squid_effective(0.7, 0.2)
        assert abs(out["critical"] - (-1) ** n * base["critical"]) < 1e-12
        assert abs(out["magnitude"] - base["magnitude"]) < 1e-12

    def test_periodic_and_even(self):
        fluxes = np.linspace(-1, 1, 41)
        mag = lambda f: squid_effective(1.0, f)["magnitude"]
        for f in fluxes:
            assert abs(mag(f) - mag(f + 1.0)) < 1e-12
            assert abs(mag(f) - mag(-f)) < 1e-12


class TestFluxQubitPotential:
    def test_single_well_at_integer_flux(self):
        phis = np.linspace(-1.2, 1.2, 801)
        out = flux_qubit_potential(l=0.5, ej=0.4, phi_ext=0.0, phis=phis)
        depths = sorted(u for _, u in out["minima"])
        assert any(abs(p) < 1e-6 for p, _ in out["minima"])
        if len(depths) > 1:  # side wells, if present, sit well above
            assert depths[1] - depths[0] > 0.1

    def test_degenerate_double_well_at_half_quantum(self):
        phis = np.linspace(-1.2, 1.2, 801)
        out = flux_qubit_potential(l=0.5, ej=0.4, phi_ext=0.5, phis=phis)
        two_lowest = sorted(out["minima"], key=lambda m: m[1])[:2]
        (p1, u1), (p2, u2) = two_lowest
        assert abs(u1 - u2) < 1e-9
        assert abs(p1 + p2) < 1e-8  # symmetric about the midpoint phi = 0

    def test_parity_invariance(self):
        phis = np.linspace(-1.0, 1.0, 201)
        a = flux_qubit_potential(0.5, 0.4, 0.2, phis)["u"]
        b = flux_qubit_potential(0.5, 0.4, -0.2, -phis[::-1])["u"]
        assert np.abs(a - b[::-1]).max() < 1e-12

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            flux_qubit_potential(0.5, 0.4, 0.0, np.array([0.0, -1.0, 1.0]))


def scan_minima(l, ej, phi_ext, phis, newton=_newton):
    """The scalar sign-change loop on the unscaled slope: the reference for the vectorized scan."""

    def u(phi):
        return phi * phi / (2.0 * l) - ej * np.cos(2.0 * np.pi * (phi - phi_ext))

    def slope(phi):
        w = 2.0 * math.pi * (phi - phi_ext)
        return phi / l + 2 * math.pi * ej * math.sin(w), 1 / l + 4 * math.pi**2 * ej * math.cos(w)

    rise = np.diff(u(phis))
    minima = []
    for k in range(len(rise) - 1):
        if rise[k] < 0.0 <= rise[k + 1]:
            p = newton(slope, float(phis[k]), float(phis[k + 2]))
            minima.append((p, float(u(p))))
    return minima


class TestFluxScanMatchesScalarLoop:
    def test_exactly_flat_slope_counts_as_rising(self):
        # u is even at phi_ext = 0, so the two points around 0 give a slope of exactly 0.0
        half = np.linspace(0.05, 1.0, 20)
        phis = np.concatenate([-half[::-1], half])
        out = flux_qubit_potential(0.5, 0.4, 0.0, phis)
        slope = np.diff(out["u"])
        assert slope[len(half) - 1] == 0.0 and slope[len(half) - 2] < 0.0
        assert any(abs(p) < 1e-6 for p, _ in out["minima"])
        assert out["minima"] == scan_minima(0.5, 0.4, 0.0, phis)

    def test_monotone_grid_has_no_minima(self):
        phis = np.linspace(0.5, 2.0, 301)
        out = flux_qubit_potential(0.5, 0.01, 0.0, phis)
        assert np.all(np.diff(out["u"]) > 0)
        assert out["minima"] == scan_minima(0.5, 0.01, 0.0, phis) == []

    def test_three_point_grid(self):
        phis = np.array([-0.1, 0.0, 0.1])
        out = flux_qubit_potential(0.5, 0.4, 0.0, phis)
        assert len(out["minima"]) == 1
        assert out["minima"] == scan_minima(0.5, 0.4, 0.0, phis)

    def test_benchmark_grid(self):
        phis = np.linspace(-1.25, 1.25, 20001)
        out = flux_qubit_potential(0.5, 0.4, 0.517946, phis)
        assert len(out["minima"]) >= 2
        assert out["minima"] == scan_minima(0.5, 0.4, 0.517946, phis)


def fluxwell_argvs():
    """The three golden ``fluxwell`` argv and the benchmark's at seed 2.

    Seed 1's benchmark argv is ``fluxwell-long``.
    """
    from bench.workloads import build
    from test_golden import CASES

    (flux,) = [inv for inv in build("dynamics", 2) if inv.command == "fluxwell"]
    return {"fluxwell": ["fluxwell"], "fluxwell-long": CASES["fluxwell-long"],
            "fluxwell-six": CASES["fluxwell-six"], "bench": flux.argv("unused.csv")}


def fluxwell_minima(argv):
    """(l, ej, phi_ext, minima) of ``argv`` on the grid the CLI builds."""
    args = cli.build_parser().parse_args(argv)
    phis = np.linspace(args.phi_min, args.phi_max, args.steps)
    return args.l, args.ej, args.phi_ext, flux_qubit_potential(args.l, args.ej, args.phi_ext,
                                                               phis)["minima"]


def counting_newton(monkeypatch):
    """Patch `_newton` to record how many slope evaluations each search takes."""
    counts = []

    def counted(slope, lo, hi):
        calls = []

        def tally(x):
            calls.append(x)
            return slope(x)

        root = _newton(tally, lo, hi)
        counts.append(len(calls))
        return root

    monkeypatch.setattr(junction, "_newton", counted)
    return counts


class TestFluxMinimaToRoundoff:
    @pytest.mark.parametrize("name", ["fluxwell", "fluxwell-long", "fluxwell-six", "bench"])
    def test_every_minimum_against_a_40_digit_root(self, name):
        mpmath = pytest.importorskip("mpmath")
        l, ej, phi_ext, minima = fluxwell_minima(fluxwell_argvs()[name])
        assert minima
        with mpmath.workdps(40):
            big_l, big_ej, big_ext = (mpmath.mpf(v) for v in (l, ej, phi_ext))
            two_pi = 2 * mpmath.pi

            def slope(x):
                return x / big_l + two_pi * big_ej * mpmath.sin(two_pi * (x - big_ext))

            for p, _ in minima:
                root = mpmath.findroot(slope, mpmath.mpf(p))
                assert 1 / big_l + two_pi**2 * big_ej * mpmath.cos(two_pi * (root - big_ext)) > 0
                assert abs(float(root - p)) <= 1e-15

    def test_every_bracket_takes_at_most_100_slope_evaluations(self, monkeypatch):
        counts = counting_newton(monkeypatch)
        found = sum(len(fluxwell_minima(argv)[3]) for argv in fluxwell_argvs().values())
        biases = (0.0, 0.5, -0.5, 0.93936, 0.999999, -0.999999, 1.0, -1.0)
        for bias in biases:
            first_minimum_numeric(bias)
        assert len(counts) == found + len(biases)
        assert max(counts) <= 100

    @pytest.mark.parametrize("ej", [1e308, 3e307, 5e-324])
    def test_overflowed_or_vanishing_slope_still_brackets(self, monkeypatch, ej):
        # E_J at the top of the float range, where 2 pi E_J overflows unscaled,
        # or subnormal: the wells lie at phi_ext + n, where the cosine term dominates
        counts = counting_newton(monkeypatch)
        minima = flux_qubit_potential(0.5, ej, 0.5, np.linspace(-1.25, 1.25, 501))["minima"]
        assert max(counts) <= 100
        if ej > 1:
            assert [round(p, 12) for p, _ in minima] == [-0.5, 0.5]
        else:
            assert [p for p, _ in minima] == [0.0]

    @pytest.mark.parametrize("ej, wells", [(1e308, [-1.0, 0.0, 1.0]), (0.0, [0.0])])
    def test_huge_or_zero_ej_lands_on_the_wells(self, monkeypatch, ej, wells):
        # The slope handed to _newton is scaled by a power of two near
        # max(E_J, 1/L), so 2 pi E_J sin(w) stays finite and Newton's steps
        # reach phi = 0 exactly, where u' is 0; unscaled, u' was nan there
        # and the middle search bisected on into the subnormals.
        counts = counting_newton(monkeypatch)
        minima = flux_qubit_potential(0.5, ej, 0.0, np.linspace(-1.25, 1.25, 501))["minima"]
        assert max(counts) <= 100
        assert [p for p, _ in minima] == wells

    @pytest.mark.parametrize("name", ["fluxwell", "fluxwell-long", "fluxwell-six", "bench"])
    def test_scaled_slope_keeps_every_bit_and_step(self, monkeypatch, name):
        # the unscaled closed-form slope of scan_minima: the same minima and
        # the same slope evaluations per bracket
        argv = fluxwell_argvs()[name]
        args = cli.build_parser().parse_args(argv)
        phis = np.linspace(args.phi_min, args.phi_max, args.steps)
        counts = counting_newton(monkeypatch)
        ref = scan_minima(args.l, args.ej, args.phi_ext, phis, newton=junction._newton)
        ref_counts = counts[:]
        assert len(ref_counts) == len(ref) > 0
        counts.clear()
        assert fluxwell_minima(argv)[3] == ref
        assert counts == ref_counts


def amplitudes(n1, n2, theta1, theta2):
    """The condensates sqrt(n_j) exp(i theta_j) as (rows, 2) complex amplitudes."""
    return np.stack([np.sqrt(n1) * np.exp(1j * theta1), np.sqrt(n2) * np.exp(1j * theta2)], 1)


def rotated(state0, e, times):
    """exp(-i (E t / 2) sigma_x) psi(0) at each time, as (rows, 2) amplitudes."""
    psi0 = amplitudes(*np.array(state0)[:, None])[0]
    phi = 0.5 * e * np.asarray(times)[:, None]
    return np.cos(phi) * psi0 - 1j * np.sin(phi) * psi0[::-1]


class TestClosedFormAgainstRK4:
    """The RK4 that once integrated the tunnel equations converges to the closed form."""

    # No shrink phase: an example integrates about 5000 RK4 steps, and
    # shrinking a failure would outlast the 60 s hang limit.
    @settings(max_examples=40, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(
        st.floats(1e-3, 1e6), st.floats(0.2, 5.0),
        st.sampled_from([np.pi / 2, -np.pi / 2, np.pi]), st.floats(0.1, 0.5), st.booleans(),
        st.floats(-3.0, 3.0), st.floats(0.1, 10.0), st.booleans(), st.floats(1.5, 3.5),
    )
    def test_rk4_error_falls_as_dt_to_the_fourth(
        self, n1, ratio, node, offset, below, theta1, e, negative, windings
    ):
        # delta0 within 0.1-0.5 of a node (+-pi/2) or of pi; each of the two rows
        # after t = 0 lies `windings` pi of phi = E t / 2 past the one before.
        # The error is the distance of the amplitudes psi_j: it falls as dt^4
        # even where the error of one phase changes sign between two dt.
        state0 = (n1, ratio * n1, theta1, theta1 + node + (-offset if below else offset))
        e = -e if negative else e
        every = math.ceil(128 * windings)
        dt = 2 * math.pi * windings / (every * abs(e))
        errors = []
        for halvings in range(3):
            k = 2**halvings
            got = two_island_dynamics(state0, e, dt / k, 2 * every * k, every * k)
            ref = two_island_rk4(state0, e, dt / k, 2 * every * k)[::every * k]
            miss = amplitudes(got["n1"], got["n2"], got["theta1"], got["theta2"]) \
                - amplitudes(*ref.T)
            errors.append(np.sqrt((abs(miss) ** 2).sum(axis=1) / (n1 + ratio * n1)).max())
        assert errors[0] >= 12 * errors[1] and errors[1] >= 12 * errors[2], errors

    @pytest.mark.parametrize("n1, n2, theta2, e", [(1e6, 1e6, 0.7, 1e-6), (1e6, 1e6, -1.3, 1e-6),
                                                    (3e5, 2e6, 0.9, -2e-6)])
    def test_agrees_with_rk4_to_roundoff_at_small_steps(self, n1, n2, theta2, e):
        # E dt = 1e-9: the RK4's own error is far below roundoff
        got = two_island_dynamics((n1, n2, 0.0, theta2), e, 1e-3, 2000)
        ref = two_island_rk4((n1, n2, 0.0, theta2), e, 1e-3, 2000)
        assert np.abs(got["n1"] - ref[:, 0]).max() <= 1e-12 * n1
        assert np.abs(got["n2"] - ref[:, 1]).max() <= 1e-12 * n2
        assert np.abs(got["theta1"] - ref[:, 2]).max() <= 1e-13
        assert np.abs(got["theta2"] - ref[:, 3]).max() <= 1e-13


class TestPhasesNearNodes:
    @pytest.mark.parametrize("seed", [7, 8, 9, 10])
    def test_phases_equal_the_unwrapped_rotation_on_a_1000_times_finer_grid(self, seed):
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(100):
            n1 = 10.0 ** rng.uniform(-2, 6)
            n2 = n1 * 10.0 ** rng.uniform(-1, 1)
            theta1 = rng.uniform(-5, 5)
            # delta0 1-3e-2 from +-pi/2: along the way n_j / (n1 + n2) falls to
            # 1e-5 to 2e-4, and theta_j turns up to 350 times as fast as phi
            near = rng.choice([-1, 1]) * rng.uniform(1e-2, 3e-2)
            theta2 = theta1 + rng.choice([-1, 1]) * np.pi / 2 + near
            e = rng.choice([-1, 1]) * 10.0 ** rng.uniform(-1, 1)
            # rows 0.25-1.5 rad of phi apart, 1000 fine steps between rows
            dt = rng.uniform(0.5, 3.0) / abs(e) / 1000
            got = two_island_dynamics((n1, n2, theta1, theta2), e, dt, 5000, 1000)
            times = np.arange(5001) * dt
            psi = rotated((n1, n2, theta1, theta2), e, times)
            turn = np.angle(psi * np.exp(-1j * np.array([theta1, theta2])))
            # the reference is only as good as its grid: each fine step turns well under pi
            assert np.abs(np.diff(np.unwrap(turn, axis=0), axis=0)).max() < 1.0
            ref = np.array([theta1, theta2]) + np.unwrap(turn, axis=0)[::1000]
            assert np.array_equal(got["times"], times[::1000])
            worst = max(worst, np.abs(np.stack([got["theta1"], got["theta2"]], 1) - ref).max())
        assert worst < 1e-12

    @pytest.mark.parametrize("delta0, et, island", [
        (np.pi / 2, 1.5 * np.pi, "n1"), (np.pi / 2, 0.5 * np.pi, "n2"),
        (-np.pi / 2, 0.5 * np.pi, "n1"), (-np.pi / 2, 1.5 * np.pi, "n2"),
    ])
    def test_row_on_a_node_is_unstable(self, delta0, et, island):
        # n1 = n2 and delta0 = fl(+-pi/2): up to a 6e-17 imaginary part,
        # psi_1 = sqrt(2) sin(phi + pi/4) or sqrt(2) cos(phi + pi/4) and psi_2 the
        # other, so one of them vanishes at the row E t = et, to within roundoff
        state0 = (1.0, 1.0, 0.0, delta0)
        with pytest.raises(StepUnstable, match="below eps"):
            two_island_dynamics(state0, 1.0, et, 1)
        # a row 1e-6 of E t later, n_j = 2 (et / 2 * 1e-6)^2 is above the floor of 4.4e-16
        got = two_island_dynamics(state0, 1.0, et * (1 + 1e-6), 1)
        miss = 0.5 * et * 1e-6
        assert abs(got[island][1] - 2 * miss**2) < 1e-6 * miss**2

    @pytest.mark.parametrize("n1, n2", [(1e-17, 1.0), (3.0, 1e-16)])
    def test_floor_counts_the_initial_rows_too(self, n1, n2):
        # a pair number below eps (n1 + n2) already at t = 0
        with pytest.raises(StepUnstable, match="t = 0"):
            two_island_dynamics((n1, n2, 0.0, 0.3), 1.0, 0.1, 10)


class TestKeptRows:
    """``every`` keeps steps 0, every, 2 every, ... of the full trajectory."""

    @pytest.mark.parametrize("steps", [5, 1000, 1003])
    @pytest.mark.parametrize("every", [1, 6, 7, 40])
    def test_rows_equal_the_full_trajectory_strided(self, every, steps):
        state0 = (1e6, 3e5, 0.2, 0.9)
        full = two_island_dynamics(state0, -2e-6, 1e-3, steps)
        kept = two_island_dynamics(state0, -2e-6, 1e-3, steps, every)
        for name in ("times", "n1", "n2", "theta1", "theta2", "delta", "current"):
            got, ref = kept[name], full[name][::every]
            assert got.shape == (steps // every + 1,) and np.array_equal(got, ref), name
        assert kept["i0"] == full["i0"]

    @pytest.mark.parametrize("steps, every", [(1003, 168), (20000, 40), (10**11, 2 * 10**8),
                                              (2**60 + 3, 2**51)])
    def test_times_are_k_every_dt(self, steps, every):
        # np.arange(0, steps + 1, every) has these bits, but sizes itself in
        # floats: at 2^60 + 3 steps it drops the last row
        got = two_island_dynamics((1e6, 1e6, 0.0, 0.7), 1e-6, 1e-3, steps, every)
        ref = np.array([float(k * every) for k in range(steps // every + 1)]) * 1e-3
        assert np.array_equal(got["times"], ref)


class TestFarRows:
    @pytest.mark.parametrize("phi", [1e3, 1e6, 1e9, 1e12, 1e15])
    def test_row_against_a_40_digit_rotation(self, phi):
        # the row at E t / 2 = phi exactly, against the same formulas at 40
        # digits: n_j to roundoff of n1 + n2 and theta_j to roundoff of its size,
        # since cos and sin take phi itself
        mpmath = pytest.importorskip("mpmath")
        state0 = (7.0, 0.2, 0.4, 2.0)
        got = two_island_dynamics(state0, 2.0, phi, 1)
        with mpmath.workdps(40):
            n1, n2, th1, th2 = (mpmath.mpf(v) for v in state0)
            big_phi, d0 = mpmath.mpf(phi), th2 - th1
            c, s = mpmath.cos(big_phi), mpmath.sin(big_phi)
            z1 = mpmath.sqrt(n1) * c - 1j * mpmath.sqrt(n2) * mpmath.expjpi(d0 / mpmath.pi) * s
            z2 = mpmath.sqrt(n2) * c - 1j * mpmath.sqrt(n1) * mpmath.expjpi(-d0 / mpmath.pi) * s
            k = int(mpmath.nint(big_phi / mpmath.pi))
            turns = k * mpmath.pi * (1 if mpmath.cos(d0) > 0 else -1)
            ref = {"n1": abs(z1) ** 2, "n2": abs(z2) ** 2,
                   "theta1": th1 - turns + mpmath.arg((-1) ** k * z1),
                   "theta2": th2 - turns + mpmath.arg((-1) ** k * z2),
                   "delta": d0 + mpmath.arg(z2 * mpmath.conj(z1))}
            for name, value in ref.items():
                scale = n1 + n2 if name in ("n1", "n2") else 1 + abs(value)
                assert abs(float(got[name][1] - value)) <= 4 * EPS * scale, name


class TestTwoIslandDynamics:
    def run(self, delta0=0.7, steps=10_000):
        return two_island_dynamics((1e6, 1e6, 0.0, delta0), e_coupling=1e-6, dt=1e-3, steps=steps)

    def test_phase_difference_constant(self):
        traj = self.run()
        assert np.abs(traj["delta"] - 0.7).max() < 1e-9

    def test_total_pairs_conserved(self):
        traj = self.run()
        total0 = traj["n1"][0] + traj["n2"][0]
        assert np.abs((traj["n1"] + traj["n2"] - total0) / total0).max() < 1e-9

    def test_current_matches_josephson_relation(self):
        traj = self.run()
        expected = traj["i0"] * np.sin(traj["delta"])
        rel = np.abs(traj["current"] - expected) / np.abs(expected).max()
        assert rel.max() < 1e-6

    def test_zero_phase_zero_current(self):
        traj = self.run(delta0=0.0, steps=500)
        assert np.abs(traj["current"]).max() == 0.0

    def test_asymmetric_flow_direction(self):
        # pairs flow into island 1 for 0 < delta < pi
        traj = self.run(steps=200)
        assert traj["n1"][-1] > traj["n1"][0]
        assert traj["n2"][-1] < traj["n2"][0]

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1e-3, 1e9), st.floats(1e-3, 1e9), st.floats(-10.0, 10.0),
           st.floats(-10.0, 10.0), st.floats(-1e2, 1e2), st.floats(1e-4, 1.0))
    def test_rows_keep_the_invariants_of_the_rotation(self, n1, n2, theta1, theta2, e, dt):
        # n1 + n2 and <sigma_x>/2 = sqrt(n1 n2) cos(delta) are conserved, and delta
        # is theta2 - theta1 in the half-turn of delta0
        try:
            traj = two_island_dynamics((n1, n2, theta1, theta2), e, dt, 50)
        except StepUnstable:
            return
        total = n1 + n2
        assert np.abs(traj["n1"] + traj["n2"] - total).max() <= 8 * EPS * total
        x = np.sqrt(traj["n1"] * traj["n2"]) * np.cos(traj["delta"])
        assert np.abs(x - math.sqrt(n1 * n2) * math.cos(theta2 - theta1)).max() <= 8 * EPS * total
        turns = (traj["theta2"] - traj["theta1"] - traj["delta"]) / (2 * np.pi)
        assert np.abs(turns - np.round(turns)).max() < 1e-9 * (1 + np.abs(traj["theta1"]).max())
