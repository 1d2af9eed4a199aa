import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cqed import cli, junction
from cqed.errors import NoMinimum, StepUnstable
from cqed.junction import (
    TwoIslandState,
    first_minimum,
    flux_qubit_potential,
    squid_effective,
    two_island_dynamics,
    washboard_u,
    _newton,
)
from oracles import first_minimum_numeric


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


def scan_minima(l, ej, phi_ext, phis):
    """The scalar sign-change loop: the reference for the vectorized scan."""

    def u(phi):
        return phi * phi / (2.0 * l) - ej * np.cos(2.0 * np.pi * (phi - phi_ext))

    def slope(phi):
        w = 2.0 * math.pi * (phi - phi_ext)
        return phi / l + 2 * math.pi * ej * math.sin(w), 1 / l + 4 * math.pi**2 * ej * math.cos(w)

    rise = np.diff(u(phis))
    minima = []
    for k in range(len(rise) - 1):
        if rise[k] < 0.0 <= rise[k + 1]:
            p = _newton(slope, float(phis[k]), float(phis[k + 2]))
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
        # 2 pi E_J or 4 pi^2 E_J overflows to inf in the slope: bisection finds
        # the well at phi_ext + n, where the cosine term dominates
        counts = counting_newton(monkeypatch)
        minima = flux_qubit_potential(0.5, ej, 0.5, np.linspace(-1.25, 1.25, 501))["minima"]
        assert max(counts) <= 100
        if ej > 1:
            assert [round(p, 12) for p, _ in minima] == [-0.5, 0.5]
        else:
            assert [p for p, _ in minima] == [0.0]


def array_rk4(state0, e, dt, steps):
    """The same RK4 on length-4 numpy arrays: the reference for the float stepper."""

    def rhs(y):
        n1, n2, th1, th2 = y
        delta = th2 - th1
        s = e * np.sqrt(n1 * n2) * np.sin(delta)
        cos_d = np.cos(delta)
        return np.array([s, -s, -0.5 * e * np.sqrt(n2 / n1) * cos_d,
                         -0.5 * e * np.sqrt(n1 / n2) * cos_d])

    y = np.array([state0.n1, state0.n2, state0.theta1, state0.theta2])
    out = [y]
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y)
    return np.array(out)


def nested_rk4(state0, e_coupling, dt, steps):
    """The float stepper with its right-hand side as a nested function, called
    four times a step: the reference for the written-out stages.

    Returns the (steps + 1, 4) trajectory.  A StepUnstable it raises carries
    ``where`` = (step, stage), with stage None for the checks after a step.
    """
    e = float(e_coupling)
    h = -0.5 * e
    half = 0.5 * dt
    sixth = dt / 6.0
    inf = math.inf
    sin, cos, sqrt = math.sin, math.cos, math.sqrt

    def rhs(n1, n2, th1, th2):
        if n1 <= 0.0 or n2 <= 0.0:
            raise StepUnstable("pair number reached zero during integration")
        delta = th2 - th1
        if not -inf < delta < inf:
            raise StepUnstable("phase difference became non-finite during integration")
        s = e * sqrt(n1 * n2) * sin(delta)
        cos_d = cos(delta)
        return s, -s, h * sqrt(n2 / n1) * cos_d, h * sqrt(n1 / n2) * cos_d

    n1, n2, th1, th2 = y = (
        float(state0.n1), float(state0.n2), float(state0.theta1), float(state0.theta2)
    )
    out = [y]
    where = [None, None]
    try:
        for k in range(1, steps + 1):
            where[:] = k, 1
            a1, a2, a3, a4 = rhs(n1, n2, th1, th2)
            where[1] = 2
            b1, b2, b3, b4 = rhs(n1 + half * a1, n2 + half * a2, th1 + half * a3, th2 + half * a4)
            where[1] = 3
            c1, c2, c3, c4 = rhs(n1 + half * b1, n2 + half * b2, th1 + half * b3, th2 + half * b4)
            where[1] = 4
            d1, d2, d3, d4 = rhs(n1 + dt * c1, n2 + dt * c2, th1 + dt * c3, th2 + dt * c4)
            where[1] = None
            n1, n2, th1, th2 = y = (
                n1 + sixth * (((a1 + 2.0 * b1) + 2.0 * c1) + d1),
                n2 + sixth * (((a2 + 2.0 * b2) + 2.0 * c2) + d2),
                th1 + sixth * (((a3 + 2.0 * b3) + 2.0 * c3) + d3),
                th2 + sixth * (((a4 + 2.0 * b4) + 2.0 * c4) + d4),
            )
            out.append(y)
            if not (n1 < inf and n2 < inf and -inf < th1 < inf and -inf < th2 < inf):
                raise StepUnstable(f"state became non-finite at step {k}")
            if n1 <= 0.0 or n2 <= 0.0:
                raise StepUnstable(f"pair number went non-positive at step {k}")
    except StepUnstable as exc:
        exc.where = tuple(where)
        raise
    return np.array(out)


def trajectory(traj):
    return np.stack([traj["n1"], traj["n2"], traj["theta1"], traj["theta2"]], axis=1)


class TestInlineStagesMatchNestedStepper:
    """Every StepUnstable branch: the same exception, message and step as the
    nested right-hand side, and the same trajectory up to the failing step."""

    @pytest.mark.parametrize(
        "n1, n2, theta1, theta2, e, dt, where",
        [
            (7.9, 0.72, 0.0, -3.1, -3.7, 0.4, (3, 2)),  # pair number <= 0 in stage 2
            (0.13, 7.9, 0.0, 1.8, 4.5, 0.86, (3, 3)),  # ... in stage 3
            (19.0, 380.0, 0.0, -1.2, -1.8, 0.45, (3, 4)),  # ... in stage 4
            (1.0, 1.0, -1e308, 1e308, 1.0, 1.0, (1, 1)),  # delta overflows in stage 1
            (1.4e-179, 4.7e230, -2.4e209, -2.4e209, 8.4e-57, 0.06, (1, 2)),  # ... stage 2
            (1.0, 1.0, 0.0, 0.0, 1e307, 1.0, (36, 4)),  # the phases run off in stage 4
            # n1 n2 overflows, inf * sin(0) is NaN: stage 2's pair numbers are NaN,
            # which passes the pair test, and stage 3's phase difference is NaN
            (1e200, 1e200, 0.0, 0.0, 1.0, 1e-3, (1, 3)),
            (6.3e-238, 7.8e-104, 0.0, 2.4, 9.3e240, 0.011, (5, None)),  # state non-finite
            (0.29, 25.0, 0.0, 0.55, 26.0, 0.12, (3, None)),  # pair number < 0 after a step
        ],
    )
    def test_error_paths(self, n1, n2, theta1, theta2, e, dt, where):
        state0 = TwoIslandState(n1, n2, theta1, theta2)
        with pytest.raises(StepUnstable) as ref:
            nested_rk4(state0, e, dt, 100)
        assert ref.value.where == where
        step = where[0]
        with pytest.raises(StepUnstable) as got:
            two_island_dynamics(state0, e, dt, step)
        assert str(got.value) == str(ref.value)
        if step > 1:  # and not a step earlier
            traj = two_island_dynamics(state0, e, dt, step - 1)
            assert np.array_equal(trajectory(traj), nested_rk4(state0, e, dt, step - 1))

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(1e-3, 1e9), st.floats(1e-3, 1e9), st.floats(-10.0, 10.0),
        st.floats(-10.0, 10.0), st.floats(1e-9, 1e2), st.booleans(), st.floats(1e-4, 1.0),
        st.integers(1, 200),
    )
    def test_trajectories_equal(self, n1, n2, theta1, theta2, e, negative, dt, steps):
        assume(n1 != n2)
        state0 = TwoIslandState(n1, n2, theta1, theta2)
        e = -e if negative else e
        try:
            ref = nested_rk4(state0, e, dt, steps)
        except StepUnstable as exc:
            with pytest.raises(StepUnstable, match=f"^{exc}$"):
                two_island_dynamics(state0, e, dt, steps)
        else:
            traj = two_island_dynamics(state0, e, dt, steps)
            assert np.array_equal(trajectory(traj), ref)


class TestKeptRows:
    """``every`` keeps steps 0, every, 2 every, ... and integrates the rest."""

    @pytest.mark.parametrize("steps", [5, 1000, 1003])
    @pytest.mark.parametrize("every", [1, 6, 7, 40])
    def test_rows_equal_the_full_trajectory_strided(self, every, steps):
        state0 = TwoIslandState(1e6, 3e5, 0.2, 0.9)
        full = two_island_dynamics(state0, -2e-6, 1e-3, steps)
        kept = two_island_dynamics(state0, -2e-6, 1e-3, steps, every)
        for name in ("times", "n1", "n2", "theta1", "theta2", "delta", "current"):
            got, ref = kept[name], full[name][::every]
            assert got.shape == (steps // every + 1,) and np.array_equal(got, ref), name
        assert kept["i0"] == full["i0"]

    @pytest.mark.parametrize("every", [7, 40])
    @pytest.mark.parametrize(
        "n1, n2, theta1, theta2, e, dt, step",
        [
            (1.0, 1.0, 0.0, 0.0, 1e307, 1.0, 36),  # the phases run off in stage 4
            (6.3e-238, 7.8e-104, 0.0, 2.4, 9.3e240, 0.011, 5),  # state non-finite
            (0.29, 25.0, 0.0, 0.55, 26.0, 0.12, 3),  # pair number < 0 after a step
        ],
    )
    def test_failure_after_the_last_kept_row_keeps_message_and_step(
        self, n1, n2, theta1, theta2, e, dt, step, every
    ):
        assert step % every  # the failing step is integrated but never kept
        state0 = TwoIslandState(n1, n2, theta1, theta2)
        with pytest.raises(StepUnstable) as ref:
            nested_rk4(state0, e, dt, step)
        assert ref.value.where[0] == step
        with pytest.raises(StepUnstable) as got:
            two_island_dynamics(state0, e, dt, step, every)
        assert str(got.value) == str(ref.value)


class TestTwoIslandDynamics:
    def run(self, delta0=0.7, steps=10_000):
        state0 = TwoIslandState(1e6, 1e6, 0.0, delta0)
        return two_island_dynamics(state0, e_coupling=1e-6, dt=1e-3, steps=steps)

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

    def test_step_unstable(self):
        state0 = TwoIslandState(1.0, 100.0, 0.0, -np.pi / 2)
        with pytest.raises(StepUnstable):
            two_island_dynamics(state0, e_coupling=10.0, dt=1.0, steps=10)

    @pytest.mark.parametrize("steps", [1, 2, 1000])
    @pytest.mark.parametrize("theta2", [0.6, 0.7, 0.8, 2.0, -1.3])
    def test_matches_array_rk4_bit_for_bit(self, theta2, steps):
        state0 = TwoIslandState(1e6, 1e6, 0.0, theta2)
        traj = two_island_dynamics(state0, e_coupling=1e-6, dt=1e-3, steps=steps)
        got = np.stack([traj["n1"], traj["n2"], traj["theta1"], traj["theta2"]], axis=1)
        assert np.array_equal(got, array_rk4(state0, 1e-6, 1e-3, steps))

    def test_non_finite_state_mid_integration_is_unstable(self):
        # both phases run off at -e/2 per unit time and overflow after ~36 steps
        state0 = TwoIslandState(1.0, 1.0, 0.0, 0.0)
        with pytest.raises(StepUnstable, match="non-finite"):
            two_island_dynamics(state0, e_coupling=1e307, dt=1.0, steps=100)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            TwoIslandState(0.0, 1.0, 0.0, 0.0)

    @pytest.mark.parametrize("n1, n2", [(np.inf, 1.0), (1.0, np.inf), (np.nan, 1.0),
                                        (1.0, np.nan)])
    def test_non_finite_pair_number_rejected(self, n1, n2):
        # an infinite one used to pass, and the integrator then blamed a pair
        # number reaching zero
        with pytest.raises(ValueError, match="finite"):
            TwoIslandState(n1, n2, 0.0, 0.3)
