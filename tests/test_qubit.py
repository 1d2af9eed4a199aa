import numpy as np
import pytest

from cqed.errors import DimensionMismatch, NotUnitAxis
from cqed.linalg import Ket, fidelity
from cqed.qubit import (
    KET_0,
    KET_1,
    KET_MINUS,
    KET_MINUS_I,
    KET_PLUS,
    KET_PLUS_I,
    axis_angle_unitary,
    bloch,
    bloch_of_density,
    density_ops,
    free_evolution,
    hadamard,
    pauli,
    rabi_numeric,
    rabi_trace,
    ramsey_numeric,
    ramsey_trace,
    rotate,
)


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
    def test_matrices_exact(self):
        assert np.array_equal(pauli("x"), [[0, 1], [1, 0]])
        assert np.array_equal(pauli("y"), [[0, -1j], [1j, 0]])
        assert np.array_equal(pauli("z"), [[1, 0], [0, -1]])

    def test_sigma_x_actions(self):
        sx = pauli("x")
        assert np.allclose(sx @ KET_0.amps, KET_1.amps)
        assert np.allclose(sx @ KET_PLUS.amps, KET_PLUS.amps)
        assert np.allclose(sx @ KET_MINUS.amps, -KET_MINUS.amps)
        # |+i> -> |-i> up to a global phase (i, as it happens)
        out = sx @ KET_PLUS_I.amps
        assert abs(np.vdot(KET_MINUS_I.amps, out)) ** 2 > 1 - 1e-12

    def test_sigma_z_flips_plus(self):
        assert np.allclose(pauli("z") @ KET_PLUS.amps, KET_MINUS.amps)

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            pauli("w")


class TestHadamard:
    def test_creates_plus(self):
        assert np.allclose(hadamard() @ KET_0.amps, KET_PLUS.amps)

    def test_involution(self):
        h = hadamard()
        assert np.abs(h @ h - np.eye(2)).max() < 1e-15

    def test_maps_minus_to_one(self):
        assert np.allclose(hadamard() @ KET_MINUS.amps, KET_1.amps)


class TestBloch:
    @pytest.mark.parametrize(
        "ket,expected",
        [
            (KET_0, (0, 0, 1)),
            (KET_1, (0, 0, -1)),
            (KET_PLUS, (1, 0, 0)),
            (KET_MINUS_I, (0, -1, 0)),
        ],
    )
    def test_named_states(self, ket, expected):
        v = bloch(ket)
        assert np.allclose(v, expected, atol=1e-12)

    def test_pure_states_on_sphere(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            assert abs(np.linalg.norm(bloch(random_qubit(rng))) - 1) < 1e-9

    def test_antipodal_orthogonal_states(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            psi = random_qubit(rng)
            a0, a1 = psi.amps
            perp = Ket([-np.conj(a1), np.conj(a0)])
            assert abs(np.vdot(psi.amps, perp.amps)) < 1e-12
            assert np.allclose(bloch(psi), -bloch(perp), atol=1e-9)

    def test_mixed_state_inside_sphere(self):
        v = bloch_of_density(0.5 * np.eye(2))
        assert np.linalg.norm(v) < 1e-12


class TestRotate:
    def test_pi_about_x_flips(self):
        out = rotate([1, 0, 0], np.pi, KET_0)
        assert fidelity(out, KET_1) > 1 - 1e-12

    def test_zero_angle_identity(self):
        rng = np.random.default_rng(23)
        psi = random_qubit(rng)
        assert fidelity(rotate([0, 0, 1], 0.0, psi), psi) > 1 - 1e-12

    def test_rejects_non_unit_axis(self):
        with pytest.raises(NotUnitAxis):
            rotate([1, 1, 0], 0.3, KET_0)

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
            ndots = n[0] * pauli("x") + n[1] * pauli("y") + n[2] * pauli("z")
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


class TestDensity:
    def test_matrix_form(self):
        rng = np.random.default_rng(29)
        psi = random_qubit(rng)
        rho = density_ops(psi, np.eye(2))["rho"]
        a, b = psi.amps
        expected = np.array([[abs(a) ** 2, a * np.conj(b)], [np.conj(a) * b, abs(b) ** 2]])
        assert np.abs(rho - expected).max() < 1e-14
        assert abs(np.trace(rho) - 1) < 1e-12
        assert np.abs(rho @ rho - rho).max() < 1e-9

    def test_identity_leaves_rho(self):
        rng = np.random.default_rng(30)
        res = density_ops(random_qubit(rng), np.eye(2))
        assert np.abs(res["rho"] - res["rho_evolved"]).max() < 1e-14

    def test_pole_state_invariant_under_z_conjugation(self):
        # rho = (I + n.sigma)/2 with n = +z is |0><0|, an eigenstate of n.sigma
        rho1 = density_ops(KET_0, np.eye(2))["rho"]
        sz = pauli("z")
        assert np.abs(sz @ rho1 @ sz.conj().T - rho1).max() < 1e-14

    def test_bloch_roundtrip(self):
        rng = np.random.default_rng(31)
        psi = random_qubit(rng)
        rho = density_ops(psi, np.eye(2))["rho"]
        assert np.allclose(bloch_of_density(rho), bloch(psi), atol=1e-12)


class TestQubitKet:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Ket([1.0, 1.0])

    @pytest.mark.parametrize(
        "op",
        [
            bloch,
            lambda psi: rotate([1, 0, 0], 0.3, psi),
            lambda psi: free_evolution(1.0, 0.3, psi),
            lambda psi: density_ops(psi, np.eye(2)),
        ],
        ids=["bloch", "rotate", "free_evolution", "density_ops"],
    )
    def test_rejects_non_qubit_dimension(self, op):
        with pytest.raises(DimensionMismatch):
            op(Ket([0.5, 0.5, 0.5, 0.5]))
