import math
import warnings

import numpy as np
import pytest

from cqed.errors import TruncationTooSmall
from cqed.fock import (
    coherent_evolution,
    coherent_ket,
    quad_stats,
    _coherent_rows,
)
from cqed.linalg import Ket, fidelity
from oracles import expectation, fock_ket, ladder_suite


@pytest.fixture
def ops12():
    return ladder_suite(12)


class TestLadderSuite:
    def test_lower_on_one_and_vacuum(self, ops12):
        dim = 12
        assert np.allclose(ops12.lower @ fock_ket(1, dim).amps, fock_ket(0, dim).amps)
        assert np.allclose(ops12.lower @ fock_ket(0, dim).amps, 0.0)

    def test_raise_matrix_element(self, ops12):
        dim = 12
        out = ops12.raise_ @ fock_ket(2, dim).amps
        assert np.allclose(out, np.sqrt(3) * fock_ket(3, dim).amps)

    def test_number_expectation(self, ops12):
        assert abs(expectation(ops12.number, fock_ket(5, 12)) - 5) < 1e-12

    def test_truncated_commutator_artifact(self):
        dim = 9
        ops = ladder_suite(dim)
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
        ops = ladder_suite(dim)
        comm = ops.x1 @ ops.x2 - ops.x2 @ ops.x1
        inner = comm[: dim - 1, : dim - 1]
        assert np.abs(inner - 0.5j * np.eye(dim - 1)).max() < 1e-14

    def test_energy_ladder(self):
        dim, omega0 = 14, 0.8
        ops = ladder_suite(dim)
        h = omega0 * (ops.number + 0.5 * np.eye(dim))
        expected = omega0 * (np.arange(dim) + 0.5)
        assert np.abs(np.linalg.eigvalsh(h) - expected).max() < 1e-9


class TestFockKet:
    @pytest.mark.parametrize("n", [0, 1, 4, 11])
    def test_number_eigenstate(self, ops12, n):
        psi = fock_ket(n, 12)
        assert np.abs(ops12.number @ psi.amps - n * psi.amps).max() < 1e-12


class TestCoherentStates:
    def test_vacuum(self):
        psi = coherent_ket(0.0, 12)
        assert fidelity(psi, fock_ket(0, 12)) == 1.0

    def test_mean_and_variance(self):
        dim = 48
        ops = ladder_suite(dim)
        psi = coherent_ket(1.5, dim)
        n_mean = expectation(ops.number, psi).real
        n_sq = expectation(ops.number @ ops.number, psi).real
        assert abs(n_mean - 2.25) < 1e-8
        assert abs((n_sq - n_mean**2) - 2.25) < 1e-7

    def test_annihilation_eigenstate(self):
        dim = 48
        alpha = 1.2 - 0.7j
        psi = coherent_ket(alpha, dim)
        resid = ladder_suite(dim).lower @ psi.amps - alpha * psi.amps
        assert np.linalg.norm(resid) < 1e-6

    def test_truncation_guard(self):
        with pytest.raises(TruncationTooSmall):
            coherent_ket(3.0, 12)

    @pytest.mark.parametrize("alpha", [0.5, 1 + 1j, 2.5j, -3.0])
    def test_poisson_photon_statistics(self, alpha):
        # |<n|alpha>|^2 = exp(-|alpha|^2) |alpha|^(2n) / n!
        dim = 60
        probs = np.abs(coherent_ket(alpha, dim).amps) ** 2
        mean = abs(alpha) ** 2
        poisson = [math.exp(n * math.log(mean) - mean - math.lgamma(n + 1)) for n in range(dim)]
        assert np.abs(probs - poisson).max() < 1e-12


def one_row(alpha: complex, dim: int) -> np.ndarray:
    """The coherent recursion run on a stack of one alpha."""
    return _coherent_rows([alpha], dim)[0]


def one_element_recursion(alpha: complex, dim: int) -> np.ndarray:
    """c_{n+1} = alpha c_n / sqrt(n+1) on one-element arrays, divided by np.linalg.norm."""
    value = np.array([alpha], dtype=np.complex128)
    a = np.abs(value)
    amps = np.empty(dim, dtype=np.complex128)
    amps[0] = np.exp(-0.5 * (a * a))[0]
    for n in range(dim - 1):
        amps[n + 1] = (value * amps[n:n + 1] / np.sqrt(n + 1.0))[0]
    return amps / np.linalg.norm(amps)


def bits(amps: np.ndarray) -> np.ndarray:
    return amps.view(np.uint64)


#: Stack heights of the position-invariance tests: numpy's SIMD kernels run
#: a stack in vector steps plus a tail, so lengths below, at and past
#: several vector widths, the benchmark's 601 and the 1500 of the wide range.
STACK_LENGTHS = (1, 2, 7, 37, 601, 1500)


def wide_alphas(size: int, seed: int = 7) -> np.ndarray:
    """Alphas over eight decades of |alpha| up to 2.4, every seventh real."""
    rng = np.random.default_rng(seed)
    alphas = 10.0 ** rng.uniform(-8.0, np.log10(2.4), size) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, size))
    alphas[::7] = alphas[::7].real
    return alphas


#: Error allowed in each part of a renormalized coherent amplitude c_n
#: against its 40-digit value, in units of the spacing of float64 at |c_n|:
#: the 39 recursion steps of a 40-level row measure at most 12.0.
COHERENT_ULPS = 16


class TestCoherentEvolution:
    @pytest.mark.parametrize("size", STACK_LENGTHS)
    def test_batched_amplitudes_match_one_row_calls_bit_for_bit(self, size):
        # The stack must equal a one-alpha call in every bit, signs of zero
        # included, at every position of numpy's vector loops.
        rng = np.random.default_rng(20 + size)
        alphas = rng.normal(scale=1.2, size=size) + 1j * rng.normal(scale=1.2, size=size)
        alphas[-5:] = [0.0, -1.5, 1.5j, -2.0j, complex(-3.0, -0.0)][-size:]
        dim = 100
        stack = _coherent_rows(alphas, dim)
        ref = np.array([one_row(alpha, dim) for alpha in alphas])
        assert stack.shape == (len(alphas), dim)
        assert np.array_equal(bits(stack), bits(ref))
        for alpha, row in zip(alphas[:5], stack):
            assert np.array_equal(bits(coherent_ket(alpha, dim).amps), bits(row))

    @pytest.mark.parametrize("size", STACK_LENGTHS)
    def test_alpha_and_analytic_rows_match_one_time_calls_bit_for_bit(self, size):
        dim = 64
        alpha, omega0 = 2.1 - 1.7j, -1.3
        times = np.linspace(0.0, 9.0, size)
        out = coherent_evolution(alpha, omega0, times, dim)
        alpha_t = np.array([coherent_evolution(alpha, omega0, [t], dim)["alpha"][0]
                            for t in times])
        assert np.array_equal(bits(out["alpha"]), bits(alpha_t))
        for a, row in zip(alpha_t, out["analytic"]):
            assert np.array_equal(bits(coherent_ket(a, dim).amps), bits(row))

    @pytest.mark.parametrize("dim", [12, 96, 130, 400])
    def test_numeric_rows_match_the_dense_number_diagonal_bit_for_bit(self, dim):
        # the energies square sqrt(n) as the dense a^dag a does: sqrt(2)^2 is not 2
        times = np.linspace(0.0, 9.0, 17)
        out = coherent_evolution(0.1 - 0.05j, -1.3, times, dim)
        energies = 1.3 * np.diag(ladder_suite(dim).number).real
        ref = np.exp(-1j * np.outer(times, energies)) * coherent_ket(0.1 - 0.05j, dim).amps
        assert np.array_equal(bits(out["numeric"]), bits(ref))

    def test_large_coherent_state_keeps_minimum_uncertainty(self):
        dim = 1300
        out = coherent_evolution(30.0, 1.0, np.linspace(0.0, 1.0, 3), dim)
        stats = quad_stats(out["numeric"])
        assert np.allclose(stats["var1"], 0.25) and np.allclose(stats["var2"], 0.25)

    def test_every_alpha_is_checked_for_adequacy(self):
        # |alpha| = 3 puts the adequacy bound at exactly 49; |alpha_t| rounds
        # above 3 at some of these samples (with numpy 2.4 on x86-64, first at
        # the 7th, then at the 10th to 12th), and the first of them fails the rule.
        times = np.linspace(0.0, 2 * np.pi, 61)
        coherent_ket(3.0, 49)
        alpha_t = coherent_evolution(3.0, 1.0, times, 50)["alpha"]
        over = np.flatnonzero(np.abs(alpha_t) > 3.0)
        assert 0 < over.size < len(times) and over[0] > 0
        coherent_evolution(3.0, 1.0, times[:over[0]], 49)
        with pytest.raises(TruncationTooSmall, match=r"adequacy bound 50 for \|alpha\|=3$"):
            coherent_evolution(3.0, 1.0, times, 49)

    @pytest.mark.parametrize("as_python", [False, True])
    def test_every_flagged_alpha_raises(self, as_python):
        # The re-check that names a failing alpha judges the stack's |alpha|:
        # builtin abs() may round a flagged |alpha_t| to 3 (with numpy 2.4 on
        # x86-64 it does at some of these samples), and those must raise all the same.
        alpha_t = coherent_evolution(3.0, 1.0, np.linspace(0.0, 2 * np.pi, 61), 50)["alpha"]
        a = np.abs(alpha_t)
        flagged = np.ceil(a * a + 10.0 * a + 10.0) > 49
        assert flagged.any() and not flagged.all()
        for x, bad in zip(alpha_t, flagged):
            alphas = [complex(x)] if as_python else x[None]
            if bad:
                with pytest.raises(TruncationTooSmall, match="adequacy bound 50"):
                    _coherent_rows(alphas, 49)
            else:
                _coherent_rows(alphas, 49)

    def test_every_alpha_is_checked_for_underflow(self):
        # |alpha| = 39 passes the adequacy rule at dim 1921, but c_0 =
        # exp(-760.5) underflows to 0 and would leave an all-zero row
        with pytest.raises(TruncationTooSmall, match=r"underflows to 0 for \|alpha\|=39$"):
            _coherent_rows([1.0, 39.0], 1921)

    def test_wide_alpha_range_matches_one_row_calls_bit_for_bit(self):
        # |alpha| and c_0 for the whole stack at once, over eight decades of |alpha|
        alphas = wide_alphas(1500)
        ref = np.array([one_row(alpha, 40) for alpha in alphas])
        assert np.array_equal(bits(_coherent_rows(alphas, 40)), bits(ref))

    def test_wide_alpha_range_matches_40_digit_amplitudes(self):
        # the truncated |alpha> renormalized on its 40 levels, from the same
        # recursion in 40-digit arithmetic
        mpmath = pytest.importorskip("mpmath")
        alphas, dim = wide_alphas(1500), 40
        got = _coherent_rows(alphas, dim)
        exact = np.empty((len(alphas), dim), dtype=np.complex128)
        err = np.empty((len(alphas), dim))
        with mpmath.workdps(40):
            for k, alpha in enumerate(alphas):
                c = [mpmath.mpc(1)]
                for n in range(dim - 1):
                    c.append(c[-1] * mpmath.mpc(alpha.real, alpha.imag) / mpmath.sqrt(n + 1))
                nrm = mpmath.sqrt(mpmath.fsum(abs(x) ** 2 for x in c))
                for n, x in enumerate(c):
                    x /= nrm
                    exact[k, n] = complex(x)
                    err[k, n] = max(abs(x.real - got[k, n].real), abs(x.imag - got[k, n].imag))
        ulp = np.maximum(np.spacing(np.abs(exact)), np.finfo(np.float64).smallest_subnormal)
        assert (err / ulp).max() <= COHERENT_ULPS

    @pytest.mark.parametrize(
        "alphas, dim",
        [
            ([1.0, 2.0, 4.0, 30.0], 50),  # the first inadequate alpha is named
            ([1.0, np.nan, 30.0], 50),  # NaN, then an inadequate alpha
            ([1.0, 30.0, np.nan], 50),
            ([1.0, 1e200, np.nan], 10**6),  # |alpha|^2 overflows
            ([1.0, complex(1.7e308, 1.7e308)], 50),  # |alpha| overflows
            ([complex(np.inf, 0.0)], 50),
            ([complex(np.nan, 1.0)], 50),
        ],
    )
    @pytest.mark.parametrize("as_array", [False, True])
    @pytest.mark.parametrize("faults", [{}, {"over": "raise", "invalid": "raise"}])
    def test_failing_alpha_raises_as_the_per_alpha_loop(self, alphas, dim, as_array, faults):
        def loop(alphas):
            # the adequacy rule, one alpha at a time: the first that breaks it
            # raises ValueError if it is not finite, else TruncationTooSmall
            for alpha in alphas:
                with np.errstate(all="ignore"):
                    a = np.abs(np.complex128(alpha))
                    bound = np.ceil(a * a + 10.0 * a + 10.0)
                if not bound <= dim:
                    if not np.isfinite(alpha):
                        raise ValueError(f"alpha must be finite, got {complex(alpha)}")
                    raise TruncationTooSmall(
                        f"dim {dim} < adequacy bound {bound:.12g} for |alpha|={a:.3g}")

        alphas = np.array(alphas, dtype=np.complex128) if as_array else [complex(a) for a in alphas]
        with np.errstate(**faults), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(Exception) as ref:
                loop(alphas)
            with pytest.raises(type(ref.value)) as got:
                _coherent_rows(alphas, dim)
        assert type(got.value) is type(ref.value) and str(got.value) == str(ref.value)

    def test_zero_time(self):
        dim = 40
        out = coherent_evolution(1.1, 2.0, np.array([0.0]), dim)
        ref = coherent_ket(1.1, dim)
        assert fidelity(out["analytic"][0], ref.amps) > 1 - 1e-12
        assert fidelity(out["numeric"][0], ref.amps) > 1 - 1e-12

    def test_full_period_returns(self):
        dim = 40
        omega0 = 1.7
        out = coherent_evolution(1.3, omega0, np.array([2 * np.pi / omega0]), dim)
        ref = coherent_ket(1.3, dim)
        assert fidelity(out["numeric"][0], ref.amps) > 1 - 1e-8
        assert fidelity(out["analytic"][0], ref.amps) > 1 - 1e-8

    def test_quarter_period_rotates_alpha(self):
        dim = 40
        out = coherent_evolution(1.0, 1.0, np.array([np.pi / 2]), dim)
        assert fidelity(out["analytic"][0], coherent_ket(1j, dim).amps) > 1 - 1e-10
        assert fidelity(out["numeric"][0], coherent_ket(1j, dim).amps) > 1 - 1e-8

    def test_analytic_numeric_agreement(self):
        dim = 44
        times = np.linspace(0.0, 2.31, 12)
        out = coherent_evolution(1.4 + 0.3j, 0.9, times, dim)
        assert out["analytic"].shape == out["numeric"].shape == (len(times), dim)
        for analytic, numeric in zip(out["analytic"], out["numeric"]):
            assert fidelity(analytic, numeric) > 1 - 1e-8


def dense_quad_stats(amps: np.ndarray, dim: int) -> dict[str, np.ndarray]:
    """Per-row <x>, <x^2> - <x>^2 from `ladder_suite`'s dense matrices, one gemv each."""
    ops = ladder_suite(dim)
    dense = (ops.x1, ops.x1 @ ops.x1, ops.x2, ops.x2 @ ops.x2)
    mean1, second1, mean2, second2 = np.array(
        [[np.vdot(row, op @ row).real for op in dense] for row in amps]).T
    return {"mean1": mean1, "var1": second1 - mean1 * mean1,
            "mean2": mean2, "var2": second2 - mean2 * mean2}


#: Largest |banded - dense| quad_stats value allowed; the parity stacks
#: measure at most 1.5e-14 (dim 96 and 130), from the dense gemv's order of sums.
DENSE_ATOL = 1e-13


class TestQuadratures:
    def test_vacuum(self):
        dim = 12
        stats = quad_stats(fock_ket(0, dim))
        assert abs(stats["mean1"]) < 1e-12 and abs(stats["mean2"]) < 1e-12
        assert abs(stats["var1"] - 0.25) < 1e-12
        assert abs(stats["var2"] - 0.25) < 1e-12

    def test_fock_state(self):
        dim = 12
        stats = quad_stats(fock_ket(3, dim))
        assert abs(stats["var1"] - (1.5 + 0.25)) < 1e-12
        assert abs(stats["var2"] - (1.5 + 0.25)) < 1e-12

    def test_coherent_state(self):
        dim = 48
        theta = np.pi / 3
        alpha = 2.0 * np.exp(1j * theta)
        stats = quad_stats(coherent_ket(alpha, dim))
        assert abs(stats["mean1"] - 2 * np.cos(theta)) < 1e-6
        assert abs(stats["mean2"] - 2 * np.sin(theta)) < 1e-6
        assert abs(stats["var1"] - 0.25) < 1e-6
        assert abs(stats["var2"] - 0.25) < 1e-6

    def test_matches_dense_operators(self):
        dim = 40
        for alpha in (0.0, 1.5, 2.0 - 1.0j):
            psi = coherent_ket(alpha, dim)
            stats = quad_stats(psi)
            dense = dense_quad_stats(psi.amps[None], dim)
            for key in dense:
                assert abs(stats[key] - dense[key][0]) <= DENSE_ATOL

    def test_stack_matches_one_ket_at_a_time_bit_for_bit(self):
        dim = 40
        out = coherent_evolution(2.0 - 1.0j, 0.7, np.linspace(0.0, 5.0, 9), dim)
        stats = quad_stats(out["numeric"])
        for k, amps in enumerate(out["numeric"]):
            one = quad_stats(Ket(amps))
            assert all(stats[key][k] == one[key] for key in one)


#: Dimensions of the bit-parity tests: tiny, odd, the benchmark's 96 and one
#: above it; `quad_stats`' stack heights: one row, two rows, the benchmark's
#: 601 (the fidelity and row-norm tests take STACK_LENGTHS).
PARITY_DIMS = (1, 2, 3, 12, 48, 96, 130)
PARITY_ROWS = (1, 2, 601)


def random_stack(rows: int, dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(rows, dim)) + 1j * rng.normal(size=(rows, dim))
    return amps / np.linalg.norm(amps, axis=1)[:, None]


def coherent_stack(rows: int, dim: int) -> dict[str, np.ndarray]:
    """Evolved coherent states with a complex alpha and a negative omega0 that fit ``dim``."""
    scale = {12: 0.18, 48: 2.7}.get(dim, 4.5)
    times = np.linspace(0.0, 7.0, rows)
    return coherent_evolution(scale * (0.6 + 0.8j), -1.3, times, dim)


class TestStackedProductsMatchPerRowCalls:
    """The stacked products equal the per-row numpy calls in every bit."""

    @pytest.mark.parametrize("rows", PARITY_ROWS)
    @pytest.mark.parametrize("dim", PARITY_DIMS[1:])  # `coherent --dim` is at least 2
    def test_quad_stats(self, dim, rows):
        stacks = [random_stack(rows, dim, seed=dim + rows)]
        if dim >= 12:
            stacks.append(coherent_stack(rows, dim)["numeric"])
        for amps in stacks:
            stats = quad_stats(amps)
            ones = [quad_stats(Ket(row)) for row in amps]
            dense = dense_quad_stats(amps, dim)
            for key in dense:
                assert np.array_equal(stats[key], [one[key] for one in ones])
                np.testing.assert_allclose(stats[key], dense[key], rtol=0, atol=DENSE_ATOL)

    @pytest.mark.parametrize("rows", STACK_LENGTHS)
    @pytest.mark.parametrize("dim", PARITY_DIMS)
    def test_fidelity(self, dim, rows):
        pairs = [(random_stack(rows, dim, seed=dim), random_stack(rows, dim, seed=dim + 1))]
        if dim >= 12:
            out = coherent_stack(rows, dim)
            pairs.append((out["analytic"], out["numeric"]))
        for a, b in pairs:
            # each row's zdotc, then |.|^2 on one-element arrays
            ref = np.array([(np.abs(np.vdot(x, y)[None]) ** 2)[0] for x, y in zip(a, b)])
            assert np.array_equal(fidelity(a, b), ref)
            assert np.array_equal([fidelity(x, y) for x, y in zip(a, b)], ref)
            assert np.array_equal([fidelity(Ket(x), Ket(y)) for x, y in zip(a, b)], ref)

    @pytest.mark.parametrize("rows", STACK_LENGTHS)
    @pytest.mark.parametrize("dim", PARITY_DIMS[3:])  # the adequacy rule needs 10 levels
    def test_coherent_row_norms(self, dim, rows):
        # the reference divides each one-element recursion by its np.linalg.norm
        alphas = coherent_stack(rows, dim)["alpha"]
        stack = bits(_coherent_rows(alphas, dim))
        assert np.array_equal(stack, bits(np.array([one_element_recursion(a, dim) for a in alphas])))
        assert np.array_equal(stack, bits(np.array([one_row(a, dim) for a in alphas])))

