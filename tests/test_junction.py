import math

import numpy as np
import pytest

from cqed.errors import InductanceSingular, NoMinimum, StepUnstable
from cqed.junction import (
    JunctionSpec,
    TwoIslandState,
    dc_current,
    first_minimum,
    first_minimum_numeric,
    flux_qubit_potential,
    fluxoid_residual,
    inductances,
    squid_effective,
    taylor_regime,
    two_island_dynamics,
    washboard_u,
)

SPEC = JunctionSpec(ej=1.0, cj=1.0)


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


class TestDCCurrent:
    def test_zero_phase(self):
        assert dc_current(SPEC, 0.0) == 0.0

    def test_critical_phase(self):
        assert abs(dc_current(SPEC, np.pi / 2) - SPEC.i0) < 1e-12

    def test_half_critical(self):
        assert abs(dc_current(SPEC, np.pi / 6) - SPEC.i0 / 2) < 1e-12


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

    def test_first_minimum_against_golden_section(self):
        for bias in (0.1, 0.5, 0.9):
            assert abs(first_minimum(bias) - first_minimum_numeric(bias)) < 1e-8

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
        assert abs(dc_current(SPEC, first_minimum(bias)) - bias * SPEC.i0) < 1e-12


class TestInductances:
    def test_linear_value_and_zero_flux(self):
        out = inductances(SPEC, 0.0)
        assert abs(out["linear"] - 1.0 / (4 * np.pi**2 * SPEC.ej)) < 1e-15
        assert out["nonlinear"] == out["linear"]

    def test_sixth_flux_doubles(self):
        out = inductances(SPEC, 1.0 / 6.0)
        assert abs(out["nonlinear"] - 2 * out["linear"]) < 1e-12

    def test_quarter_flux_singular(self):
        with pytest.raises(InductanceSingular):
            inductances(SPEC, 0.25)


class TestTaylorRegimes:
    def test_small_bias_zero_current(self):
        out = taylor_regime("small-bias", 0.0)
        assert out["point"] == 0.0
        assert out["coeffs"] == [-1.0, 0.0, 0.5, 0.0]

    def test_critical_quadratic_vanishes(self):
        out = taylor_regime("critical-bias", 0.9)
        assert out["coeffs"][2] == 0.0
        assert out["coeffs"][3] == -1.0 / 6.0

    @pytest.mark.parametrize(
        "regime,bias", [("small-bias", 0.0), ("small-bias", 0.05), ("critical-bias", 0.9)]
    )
    def test_coefficients_match_finite_differences(self, regime, bias):
        out = taylor_regime(regime, bias)
        point = out["point"]
        u = lambda p: washboard_u(bias, np.array([p]))[0]
        for order, coeff in enumerate(out["coeffs"]):
            fd = numeric_derivative(u, point, order) / math.factorial(order)
            assert abs(fd - coeff) < 1e-6, (regime, order)

    def test_regime_validation(self):
        with pytest.raises(ValueError):
            taylor_regime("small-bias", 0.9)
        with pytest.raises(ValueError):
            taylor_regime("critical-bias", 1.5)


class TestSquid:
    def test_zero_flux_full_current(self):
        assert squid_effective(1.0, 0.0)["critical"] == 2.0

    def test_half_quantum_switches_off(self):
        assert abs(squid_effective(1.0, 0.5)["critical"]) < 1e-12

    def test_balanced_phase(self):
        out = squid_effective(1.0, 0.3, n=1)
        assert abs(out["balanced_phase"] - np.pi * (1 - 0.3)) < 1e-12

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


class TestFluxoid:
    def test_integer(self):
        assert fluxoid_residual(3.0) == {"n": 3.0, "residual": 0.0}

    def test_half_tie_rounds_even(self):
        out = fluxoid_residual(2.5)
        assert out["n"] == 2.0
        assert out["residual"] == 0.5

    def test_near_integer(self):
        out = fluxoid_residual(1.98)
        assert out["n"] == 2.0
        assert abs(out["residual"] + 0.02) < 1e-12


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


class TestTwoIslandDynamics:
    def run(self, delta0=0.7, steps=10_000):
        state0 = TwoIslandState(1e6, 1e6, 0.0, delta0)
        return two_island_dynamics(state0, e_coupling=1e-6, dt=1e-3, steps=steps)

    def test_phase_difference_constant(self):
        traj = self.run()
        assert np.abs(traj.delta - 0.7).max() < 1e-9

    def test_total_pairs_conserved(self):
        traj = self.run()
        total0 = traj.n1[0] + traj.n2[0]
        assert np.abs((traj.n1 + traj.n2 - total0) / total0).max() < 1e-9

    def test_current_matches_josephson_relation(self):
        traj = self.run()
        expected = traj.i0 * np.sin(traj.delta)
        rel = np.abs(traj.current - expected) / np.abs(expected).max()
        assert rel.max() < 1e-6

    def test_zero_phase_zero_current(self):
        traj = self.run(delta0=0.0, steps=500)
        assert np.abs(traj.current).max() == 0.0

    def test_asymmetric_flow_direction(self):
        # pairs flow into island 1 for 0 < delta < pi
        traj = self.run(steps=200)
        assert traj.n1[-1] > traj.n1[0]
        assert traj.n2[-1] < traj.n2[0]

    def test_step_unstable(self):
        state0 = TwoIslandState(1.0, 100.0, 0.0, -np.pi / 2)
        with pytest.raises(StepUnstable):
            two_island_dynamics(state0, e_coupling=10.0, dt=1.0, steps=10)

    @pytest.mark.parametrize("steps", [1, 2, 1000])
    @pytest.mark.parametrize("theta2", [0.6, 0.7, 0.8, 2.0, -1.3])
    def test_matches_array_rk4_bit_for_bit(self, theta2, steps):
        state0 = TwoIslandState(1e6, 1e6, 0.0, theta2)
        traj = two_island_dynamics(state0, e_coupling=1e-6, dt=1e-3, steps=steps)
        got = np.stack([traj.n1, traj.n2, traj.theta1, traj.theta2], axis=1)
        assert np.array_equal(got, array_rk4(state0, 1e-6, 1e-3, steps))

    def test_non_finite_state_mid_integration_is_unstable(self):
        # both phases run off at -e/2 per unit time and overflow after ~36 steps
        state0 = TwoIslandState(1.0, 1.0, 0.0, 0.0)
        with pytest.raises(StepUnstable, match="non-finite"):
            two_island_dynamics(state0, e_coupling=1e307, dt=1.0, steps=100)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            TwoIslandState(0.0, 1.0, 0.0, 0.0)
