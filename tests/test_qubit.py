import numpy as np
import pytest

from cqed.linalg import Ket, fidelity
from cqed.qubit import (
    KET_0,
    KET_1,
    KET_MINUS,
    KET_MINUS_I,
    KET_PLUS,
    KET_PLUS_I,
    rabi_trace,
    ramsey_trace,
)
from oracles import (
    HADAMARD,
    SIGMAS,
    SX,
    SY,
    SZ,
    axis_angle_unitary,
    expectation,
    free_evolution,
    rabi_numeric,
    ramsey_numeric,
    rotate,
)


def bloch(psi):
    """Bloch vector <psi|sigma_j|psi>, j = x, y, z."""
    return np.array([expectation(sigma, psi).real for sigma in SIGMAS])


def random_qubit(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return Ket(v)


def rodrigues(vec, axis, theta):
    axis = np.asarray(axis, dtype=float)
    return (
        vec * np.cos(theta)
        + np.cross(axis, vec) * np.sin(theta)
        + axis * np.dot(axis, vec) * (1 - np.cos(theta))
    )


class TestPauli:
    def test_sigma_x_actions(self):
        assert np.allclose(SX @ KET_0.amps, KET_1.amps)
        assert np.allclose(SX @ KET_PLUS.amps, KET_PLUS.amps)
        assert np.allclose(SX @ KET_MINUS.amps, -KET_MINUS.amps)
        # |+i> -> |-i> up to a global phase (i, as it happens)
        out = SX @ KET_PLUS_I.amps
        assert abs(np.vdot(KET_MINUS_I.amps, out)) ** 2 > 1 - 1e-12

    def test_sigma_z_flips_plus(self):
        assert np.allclose(SZ @ KET_PLUS.amps, KET_MINUS.amps)


class TestHadamard:
    def test_creates_plus(self):
        assert np.allclose(HADAMARD @ KET_0.amps, KET_PLUS.amps)

    def test_involution(self):
        assert np.abs(HADAMARD @ HADAMARD - np.eye(2)).max() < 1e-15

    def test_maps_minus_to_one(self):
        assert np.allclose(HADAMARD @ KET_MINUS.amps, KET_1.amps)


class TestRotate:
    def test_pi_about_x_flips(self):
        out = rotate([1, 0, 0], np.pi, KET_0)
        assert fidelity(out, KET_1) > 1 - 1e-12

    def test_zero_angle_identity(self):
        rng = np.random.default_rng(23)
        psi = random_qubit(rng)
        assert fidelity(rotate([0, 0, 1], 0.0, psi), psi) > 1 - 1e-12

    def test_bloch_image_is_rodrigues_rotation(self):
        rng = np.random.default_rng(24)
        for _ in range(15):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            theta = rng.uniform(-2 * np.pi, 2 * np.pi)
            psi = random_qubit(rng)
            rotated = bloch(rotate(axis, theta, psi))
            expected = rodrigues(bloch(psi), axis, theta)
            assert np.abs(rotated - expected).max() < 1e-9

    def test_composition_up_to_phase(self):
        rng = np.random.default_rng(25)
        axis = np.array([0.0, 1.0, 0.0])
        psi = random_qubit(rng)
        once = rotate(axis, 1.1 + 0.7, psi)
        twice = rotate(axis, 0.7, rotate(axis, 1.1, psi))
        assert fidelity(once, twice) > 1 - 1e-9

    def test_n_dot_sigma_unitary_hermitian(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            ndots = n[0] * SX + n[1] * SY + n[2] * SZ
            # U_n(pi) = -i n.sigma
            assert np.abs(1j * axis_angle_unitary(n, np.pi) - ndots).max() < 1e-12
            assert np.abs(ndots @ ndots.conj().T - np.eye(2)).max() < 1e-12
            assert np.abs(ndots - ndots.conj().T).max() < 1e-12

    def test_axis_angle_unitary_form(self):
        u = axis_angle_unitary([0, 0, 1], np.pi / 2)
        expected = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
        assert np.abs(u - expected).max() < 1e-12


class TestFreeEvolution:
    def test_quarter_turn_mapping_table(self):
        # H0 = -delta/2 sigma_z for time pi/(2 delta): the 90-degree turn
        delta, t = 1.7, np.pi / (2 * 1.7)
        mapping = [
            (KET_PLUS, KET_MINUS_I),
            (KET_MINUS_I, KET_MINUS),
            (KET_MINUS, KET_PLUS_I),
            (KET_PLUS_I, KET_PLUS),
            (KET_0, KET_0),
            (KET_1, KET_1),
        ]
        for src, dst in mapping:
            assert fidelity(free_evolution(delta, t, src), dst) > 1 - 1e-12


def random_axis(rng):
    n = rng.normal(size=3)
    return n / np.linalg.norm(n)


def density(psi):
    """Pure-state density matrix |psi><psi|."""
    return np.outer(psi.amps, psi.amps.conj())


def p_plus(psi):
    """Population of |+>."""
    return abs(np.vdot(KET_PLUS.amps, psi.amps)) ** 2


class TestBlochVector:
    @pytest.mark.parametrize(
        "ket,expected",
        [
            (KET_0, (0, 0, 1)),
            (KET_1, (0, 0, -1)),
            (KET_PLUS, (1, 0, 0)),
            (KET_MINUS, (-1, 0, 0)),
            (KET_PLUS_I, (0, 1, 0)),
            (KET_MINUS_I, (0, -1, 0)),
        ],
        ids=["0", "1", "plus", "minus", "plus_i", "minus_i"],
    )
    def test_named_states_sit_on_the_axes(self, ket, expected):
        assert np.allclose(bloch(ket), expected, atol=1e-12)

    def test_rotation_keeps_pure_states_on_the_sphere(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            out = rotate(random_axis(rng), rng.uniform(0, 2 * np.pi), random_qubit(rng))
            assert abs(np.linalg.norm(bloch(out)) - 1) < 1e-9

    def test_orthogonal_states_stay_antipodal_under_rotation(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            psi = random_qubit(rng)
            a0, a1 = psi.amps
            perp = Ket([-np.conj(a1), np.conj(a0)])
            assert abs(np.vdot(psi.amps, perp.amps)) < 1e-12
            n, theta = random_axis(rng), rng.uniform(0, 2 * np.pi)
            image, perp_image = bloch(rotate(n, theta, psi)), bloch(rotate(n, theta, perp))
            assert np.allclose(image, -perp_image, atol=1e-9)

    def test_free_evolution_precesses_about_z(self):
        # H0 = -delta/2 sigma_z turns the Bloch vector by -delta t about z
        rng = np.random.default_rng(32)
        for _ in range(10):
            psi = random_qubit(rng)
            delta, t = rng.uniform(0.1, 3.0), rng.uniform(0.0, 10.0)
            expected = rodrigues(bloch(psi), [0, 0, 1], -delta * t)
            assert np.abs(bloch(free_evolution(delta, t, psi)) - expected).max() < 1e-9

    def test_hadamard_swaps_x_and_z(self):
        # H = (sigma_x + sigma_z)/sqrt2 sends (x, y, z) to (z, -y, x)
        rng = np.random.default_rng(34)
        for _ in range(10):
            psi = random_qubit(rng)
            x, y, z = bloch(psi)
            assert np.allclose(bloch(Ket(HADAMARD @ psi.amps)), [z, -y, x], atol=1e-12)


class TestDensityMatrix:
    def test_pure_state_has_the_bloch_form(self):
        # rho = (I + r.sigma)/2, of unit trace and idempotent
        rng = np.random.default_rng(29)
        for _ in range(10):
            psi = random_qubit(rng)
            r = bloch(psi)
            rho = density(psi)
            expected = 0.5 * (np.eye(2) + r[0] * SX + r[1] * SY + r[2] * SZ)
            assert np.abs(rho - expected).max() < 1e-12
            assert abs(np.trace(rho) - 1) < 1e-12
            assert np.abs(rho @ rho - rho).max() < 1e-9

    def test_rotation_conjugates_the_density(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            psi, n, theta = random_qubit(rng), random_axis(rng), rng.uniform(0, 2 * np.pi)
            u = axis_angle_unitary(n, theta)
            conjugated = u @ density(psi) @ u.conj().T
            assert np.abs(density(rotate(n, theta, psi)) - conjugated).max() < 1e-12

    @pytest.mark.parametrize("ket", [KET_0, KET_1], ids=["0", "1"])
    def test_poles_are_invariant_under_z_rotation_and_free_evolution(self, ket):
        rho = density(ket)
        for theta in (0.3, np.pi / 2, 2.5):
            assert np.abs(density(rotate([0, 0, 1], theta, ket)) - rho).max() < 1e-14
            assert np.abs(density(free_evolution(1.7, theta, ket)) - rho).max() < 1e-14


class TestFreeEvolutionFringe:
    """|+> population after free evolution of cos(theta)|0> + exp(i phi) sin(theta)|1>.

    Closed form: p_+(t) = 1/2 + sin(2 theta)/2 cos(delta t - phi).
    """

    def test_equal_superposition_full_contrast(self):
        delta = 2.0
        times = [0.0, np.pi / delta, 2 * np.pi / delta]  # exact extrema
        out = [p_plus(free_evolution(delta, t, KET_PLUS)) for t in times]
        assert np.allclose(out, [1.0, 0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("ket", [KET_0, KET_1], ids=["0", "1"])
    def test_poles_give_a_flat_fringe(self, ket):
        for t in np.linspace(0.0, 5.0, 20):
            assert abs(p_plus(free_evolution(2.0, t, ket)) - 0.5) < 1e-12

    def test_small_angle_scalings(self):
        # the fringe contrast grows as theta, the excited population as theta^2
        times = np.linspace(0.0, 10.0, 300)

        def evolved(theta):
            return [free_evolution(1.0, t, Ket([np.cos(theta), np.sin(theta)])) for t in times]

        def contrast(states):
            fringe = [p_plus(psi) for psi in states]
            return (max(fringe) - min(fringe)) / 2

        a, b = evolved(0.01), evolved(0.02)
        assert abs(contrast(b) / contrast(a) - 2.0) < 0.01
        excited = lambda states: abs(states[-1].amps[1]) ** 2
        assert abs(excited(b) / excited(a) - 4.0) < 0.01

    def test_matches_closed_form(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            theta = rng.uniform(0, np.pi / 2)
            phi = rng.uniform(0, 2 * np.pi)
            delta = rng.uniform(0.5, 3.0)
            t = rng.uniform(0, 10)
            psi0 = Ket([np.cos(theta), np.exp(1j * phi) * np.sin(theta)])
            closed = 0.5 + 0.5 * np.sin(2 * theta) * np.cos(delta * t - phi)
            assert abs(p_plus(free_evolution(delta, t, psi0)) - closed) < 1e-10

    def test_two_phase_average_has_cos_half_contrast(self):
        # the even mixture of phases 0 and `offset` fringes with contrast
        # cos(offset/2), shifted by offset/2
        delta, offset = 3.0, 1.1
        shifted = Ket(np.array([1.0, np.exp(1j * offset)]) / np.sqrt(2))
        for t in np.linspace(0.0, 8.0, 400):
            averaged = 0.5 * (
                p_plus(free_evolution(delta, t, KET_PLUS))
                + p_plus(free_evolution(delta, t, shifted))
            )
            closed = 0.5 + 0.5 * np.cos(offset / 2) * np.cos(delta * t - offset / 2)
            assert abs(averaged - closed) < 1e-12


class TestRabiRamsey:
    def test_rabi_closed_form_points(self):
        omega = 2.0
        times = np.array([0.0, np.pi / omega, np.pi / (2 * omega)])
        p0, p1 = rabi_trace(omega, times)
        assert np.allclose(p0, [1.0, 0.0, 0.5], atol=1e-12)
        assert np.allclose(p1, [0.0, 1.0, 0.5], atol=1e-12)

    def test_ramsey_closed_form_points(self):
        delta = 1.5
        times = np.array([0.0, np.pi / delta, 2 * np.pi / delta])
        p0 = ramsey_trace(delta, times)
        assert np.allclose(p0, [1.0, 0.0, 1.0], atol=1e-12)

    def test_rabi_matches_circuit_at_random_times(self):
        rng = np.random.default_rng(27)
        omega = 1.3
        times = rng.uniform(0, 20, size=100)
        closed = rabi_trace(omega, times)[0]
        numeric = np.array([rabi_numeric(omega, t) for t in times])
        assert np.abs(closed - numeric).max() < 1e-10

    def test_ramsey_matches_circuit_at_random_times(self):
        rng = np.random.default_rng(28)
        delta = 0.9
        times = rng.uniform(0, 20, size=100)
        closed = ramsey_trace(delta, times)
        numeric = np.array([ramsey_numeric(delta, t) for t in times])
        assert np.abs(closed - numeric).max() < 1e-10

    def test_rejects_non_finite_times(self):
        with pytest.raises(ValueError):
            rabi_trace(1.0, np.array([0.0, np.nan]))


class TestQubitKet:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Ket([1.0, 1.0])
