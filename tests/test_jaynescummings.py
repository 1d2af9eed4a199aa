import numpy as np
import pytest

from cqed.jaynescummings import transfer_time, vacuum_rabi
from cqed.linalg import fidelity
from oracles import (
    JCSpace,
    _orbit,
    index_of,
    ladder_suite,
    product_ket,
    vacuum_rabi_closed_form,
)

SIGMA_PLUS = np.array([[0, 0], [1, 0]], dtype=np.complex128)   # |1><0|
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=np.complex128)  # |0><1|


def jc_hamiltonian(g, space):
    """Dense g (a (x) sigma_+ + a^dag (x) sigma_-) on the truncated product space."""
    ops = ladder_suite(space.nmax)
    return g * (np.kron(ops.lower, SIGMA_PLUS) + np.kron(ops.raise_, SIGMA_MINUS))


SPACE = JCSpace(nmax=5)
G = 1.3
H = jc_hamiltonian(G, SPACE)


class TestHamiltonian:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lowers_photon_raises_qubit(self, n):
        out = H @ product_ket(n, 0, SPACE).amps
        expected = G * np.sqrt(n) * product_ket(n - 1, 1, SPACE).amps
        assert np.abs(out - expected).max() < 1e-12

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_raises_photon_lowers_qubit(self, n):
        out = H @ product_ket(n, 1, SPACE).amps
        expected = G * np.sqrt(n + 1) * product_ket(n + 1, 0, SPACE).amps
        assert np.abs(out - expected).max() < 1e-12

    def test_annihilates_joint_ground(self):
        assert np.abs(H @ product_ket(0, 0, SPACE).amps).max() == 0.0

    def test_h_squared_on_single_excitation(self):
        psi = product_ket(0, 1, SPACE).amps
        assert np.abs(H @ (H @ psi) - G**2 * psi).max() < 1e-12

    def test_excitation_number_conserved(self):
        n_exc = np.diag([n + q for n in range(SPACE.nmax) for q in (0, 1)]).astype(complex)
        comm = H @ n_exc - n_exc @ H
        assert np.abs(comm).max() < 1e-12


class TestVacuumRabi:
    def test_matches_closed_form(self):
        times = np.linspace(0.0, 3 * np.pi / G, 40)
        out = vacuum_rabi(G, times)
        states = _orbit(G, times, SPACE)
        assert states.shape == (len(times), SPACE.dim)
        assert np.abs(np.linalg.norm(states, axis=1) - 1.0).max() < 1e-10
        for t, amps, p_excited, p_photon in zip(times, states, out["p_qubit_excited"],
                                                out["p_photon"]):
            ref = vacuum_rabi_closed_form(G, t, SPACE)
            assert 1 - fidelity(amps, ref.amps) < 1e-9
            assert abs(p_excited - abs(ref.amps[index_of(0, 1, SPACE)]) ** 2) < 1e-12
            assert abs(p_photon - abs(ref.amps[index_of(1, 0, SPACE)]) ** 2) < 1e-12

    @pytest.mark.parametrize("nmax", [2, 4, 6])
    @pytest.mark.parametrize("g", [0.37, 1.0, 2.5])
    def test_matches_dense_eigh_evolution(self, g, nmax):
        # independent oracle: LAPACK diagonalization of the dense Hamiltonian
        space = JCSpace(nmax)
        vals, vecs = np.linalg.eigh(jc_hamiltonian(g, space))
        times = np.linspace(0.0, 7.0, 50)
        psi0 = product_ket(0, 1, space).amps
        ref = (vecs @ (np.exp(-1j * np.outer(vals, times)) * (vecs.conj().T @ psi0)[:, None])).T
        assert np.abs(_orbit(g, times, space) - ref).max() < 1e-12
        out = vacuum_rabi(g, times)
        probs = np.abs(ref) ** 2
        photons = np.repeat(np.arange(nmax), 2)
        assert np.abs(out["p_qubit_excited"] - probs[:, 1::2].sum(axis=1)).max() < 1e-12
        assert np.abs(out["p_photon"] - probs @ photons).max() < 1e-12

    def test_initial_population(self):
        out = vacuum_rabi(G, np.array([0.0]))
        assert abs(out["p_qubit_excited"][0] - 1.0) < 1e-12
        assert abs(out["p_photon"][0]) < 1e-12

    def test_probability_conservation(self):
        times = np.linspace(0.0, 10.0, 60)
        out = vacuum_rabi(G, times)
        total = out["p_qubit_excited"] + out["p_photon"]
        assert np.abs(total - 1.0).max() < 1e-10

    def test_excitation_expectation_constant(self):
        times = np.linspace(0.0, 8.0, 30)
        n_exc = np.diag([n + q for n in range(SPACE.nmax) for q in (0, 1)])
        for amps in _orbit(G, times, SPACE):
            val = np.vdot(amps, n_exc @ amps).real
            assert abs(val - 1.0) < 1e-10

    def test_complete_transfer(self):
        t = transfer_time(G)
        out = vacuum_rabi(G, np.array([t]))
        assert abs(out["p_photon"][0] - 1.0) < 1e-10
        assert abs(out["p_qubit_excited"][0]) < 1e-10

    def test_period(self):
        t = 2 * np.pi / G
        psi = vacuum_rabi_closed_form(G, t, SPACE)
        assert fidelity(psi, product_ket(0, 1, SPACE)) > 1 - 1e-9

    def test_midpoint_is_maximally_entangled(self):
        t = np.pi / (4 * G)
        amps = vacuum_rabi_closed_form(G, t, SPACE).amps
        a01 = amps[index_of(0, 1, SPACE)]
        a10 = amps[index_of(1, 0, SPACE)]
        assert abs(abs(a01) - 1 / np.sqrt(2)) < 1e-12
        assert abs(abs(a10) - 1 / np.sqrt(2)) < 1e-12
        # Schmidt rank 2 across the cavity/qubit split: not factorizable
        singular = np.linalg.svd(amps.reshape(SPACE.nmax, 2), compute_uv=False)
        assert np.abs(singular[:2] - 1 / np.sqrt(2)).max() < 1e-12


class TestTransferTime:
    def test_value(self):
        assert abs(transfer_time(1.0) - np.pi / 2) < 1e-15

    def test_two_pi_coupling(self):
        assert abs(transfer_time(2 * np.pi) - 0.25) < 1e-15

    def test_scaling(self):
        assert abs(transfer_time(2.0) - transfer_time(1.0) / 2) < 1e-15
