"""Decay, dephasing and two-qubit correlation experiments.

Monte-Carlo experiments here are stochastic but exactly reproducible: each
draws from one PCG64 stream seeded by a 64-bit master seed (`RngSpec`), so
fixed (seed, trials) gives bit-identical output.  The decay ensembles draw
their per-step first-jump counts as one multinomial sample, so fewer trials
read no prefix of it.  In `ramsey_ensemble` trajectory i reads the i-th run
of nsteps normals, so fewer trials read a prefix, about 1 MB at a time from
two alternating buffers: a helper thread fills each requested block with one
numpy call while the caller reduces the one before, in trajectory order, and
a block stays valid until the next is requested.

Mixed states never appear as density matrices in this module: ensembles are
weighted lists of pure states, which is all the experiments below need.
Two-qubit states are `cqed.linalg.Ket`s over (|00>, |01>, |10>, |11>),
the first qubit Alice's; the joint table rejects any other dimension.

Conventions: hbar = 1; a qubit with gap ``delta`` accumulates relative phase
delta * t between |0> and |1> during free evolution; Ramsey fringes are
read out as p_plus, the probability of finding |+>.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .fitting import dominant_frequency, fit_exponential_envelope
from .linalg import Ket
from .qubit import (
    KET_0,
    KET_1,
    KET_MINUS,
    KET_MINUS_I,
    KET_PLUS,
    KET_PLUS_I,
    ramsey_trace,
)

__all__ = [
    "RngSpec",
    "NoiseModel",
    "OUTCOME_LABELS",
    "t1_curves",
    "ramsey_ensemble",
    "decay_limited_ramsey",
    "bell_state",
    "joint_table",
]


def _block_rows(nsteps):
    """Trajectories per block of `RngSpec._blocks`: max(1, 2^17 // nsteps), about 1 MB."""
    return max(1, 2**17 // nsteps)


@dataclass(frozen=True)
class RngSpec:
    """Master seed of a Monte-Carlo ensemble's one pseudo-random stream.

    Every ensemble draws from one ``Generator(PCG64(seed))``, so identical
    seeds and arguments always yield the identical ensemble.
    """

    seed: int

    def __post_init__(self):
        seed = int(self.seed)
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed {seed} is outside [0, 2^64)")
        object.__setattr__(self, "seed", seed)

    def stream(self, trajectory: int, nsteps: int) -> np.random.Generator:
        """The seed's stream advanced past ``trajectory * nsteps`` outputs.

        ``random`` takes one output per value, so ``stream(i, nsteps).random(nsteps)``
        is row i of ``Generator(PCG64(seed)).random(trials * nsteps)`` reshaped
        to (trials, nsteps).
        """
        if not (0 <= trajectory < 2**64 and 0 <= nsteps < 2**64):
            raise ValueError(f"trajectory {trajectory} or nsteps {nsteps} is outside [0, 2^64)")
        return np.random.Generator(np.random.PCG64(self.seed).advance(trajectory * nsteps))

    def _blocks(self, trials: int, nsteps: int):
        """Yield ``(start, block)`` of standard normals covering trajectories 0 .. trials-1.

        Row r of ``block`` is trajectory start + r.  Stacked in order, the
        blocks equal one ``Generator(PCG64(seed)).standard_normal(trials * nsteps)``
        reshaped to (trials, nsteps); each is one ``standard_normal(out=block)``
        call.  Blocks hold `_block_rows` rows and alternate between two buffers
        (one when there is one block): a yielded block is valid until the next
        one is requested.  A helper thread makes every fill, in order, on a
        request from here, and answers it with None or the fill's exception,
        raised here.  Block k+1, in block k-1's buffer, is requested as the
        caller asks for block k and drawn while it works on block k.  The helper
        is stopped and joined before this generator returns, is closed or
        raises.  With no trials there is no block and no helper.
        """
        if trials < 1:
            return
        fill = np.random.Generator(np.random.PCG64(self.seed)).standard_normal
        height = _block_rows(nsteps)
        starts = range(0, trials, height)
        bufs = [np.empty((min(height, trials - start), nsteps)) for start in starts[:2]]

        def block(k):
            return bufs[k % 2][: min(height, trials - starts[k])]

        # requests: the next block to fill, or None to stop; outcomes: None or
        # that fill's exception, one per request, in order.
        requests, outcomes = queue.SimpleQueue(), queue.SimpleQueue()

        def fill_ahead():
            for k in iter(requests.get, None):
                try:
                    fill(out=block(k))
                    outcomes.put(None)
                except BaseException as exc:  # handed over: the caller raises it
                    outcomes.put(exc)

        # A daemon, so a generator never closed does not hold up interpreter exit.
        helper = threading.Thread(target=fill_ahead, name="cqed-fill", daemon=True)
        helper.start()
        try:
            requests.put(0)
            for k, start in enumerate(starts):
                if k + 1 < len(starts):
                    requests.put(k + 1)
                failure = outcomes.get()
                if failure is not None:
                    raise failure
                yield start, block(k)
        finally:
            requests.put(None)
            helper.join()


@dataclass(frozen=True)
class NoiseModel:
    """White Gaussian frequency noise on a qubit gap.

    ``sigma`` is scaled so the accumulated random phase over [0, t] is
    Gaussian with variance sigma^2 * t (rad^2), i.e. each step of length dt
    adds a kick sigma * sqrt(dt) * xi with xi standard normal.  This is a
    modelling choice (the gap noise is not otherwise specified); it is the
    one distribution with the closed-form fringe envelope
    exp(-sigma^2 t / 2), hence a dephasing time T2 = 2 / sigma^2.
    """

    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")


def _first_jumps(rng: RngSpec, trials: int, nsteps: int, hazard) -> np.ndarray:
    """Per step, how many of ``trials`` trajectories first jump there (int64).

    A trajectory jumps at step k, if not before, with probability ``hazard``, a
    scalar or one value per step; one that never jumps is counted nowhere.  The
    counts are one multinomial draw from ``Generator(PCG64(rng.seed))`` over
    the first-jump probabilities and that of no jump.
    """
    # The survival to each step, [1, s_0, .., s_n-1], then s_k-1 - s_k in place
    pvals = np.cumprod(np.append(1.0, np.broadcast_to(1.0 - hazard, nsteps)))
    pvals[:-1] -= pvals[1:]
    return np.random.Generator(np.random.PCG64(rng.seed)).multinomial(trials, pvals)[:-1]


def t1_curves(
    t1: float,
    times: np.ndarray,
    mc: dict | None = None,
) -> dict[str, np.ndarray | None]:
    """Excited-state decay p_e(t) = exp(-t / t1), optionally Monte-Carlo.

    The protocol behind the estimator: prepare |1>, wait t, measure, repeat.
    With ``mc = {"dt": ..., "trials": ..., "rng": RngSpec(...)}`` each
    trajectory decays at its first jump, step k meaning time (k + 1) dt, with
    per-step probability 1 - exp(-dt / t1), and the estimate at each requested
    time is the surviving fraction, from one `_first_jumps` draw: O(times.max() / dt)
    work for any trials < 2^63.  ``dt`` must resolve the decay (dt <= t1 / 100).
    """
    if not t1 > 0:
        raise ValueError("t1 must be positive")
    times = np.asarray(times, dtype=np.float64)
    analytic = np.exp(-times / t1)
    if mc is None:
        return {"analytic": analytic, "monte_carlo": None}

    dt, trials, rng = mc["dt"], int(mc["trials"]), mc["rng"]
    if not 1 <= trials < 2**63:
        raise ValueError("need at least one trajectory and fewer than 2^63")
    if dt > t1 / 100.0:
        raise ValueError("Monte-Carlo step must satisfy dt <= t1 / 100")
    # At least one step: with times.max() == 0 every estimate is 1 anyway.
    nsteps = max(1, int(np.ceil(times.max() / dt)))
    # Decayed by each time: every first jump in a step ended by then.  An exact
    # count, so equal to the mean of the (times x trials) survival matrix.  The
    # grid is dropped before the draw, so the two are never held at once.
    over = np.searchsorted(np.arange(1, nsteps + 1) * dt, times, side="right")
    decayed = np.cumsum(_first_jumps(rng, trials, nsteps, 1.0 - np.exp(-dt / t1)))
    estimate = (trials - np.where(over > 0, decayed[over - 1], 0)) / trials
    return {"analytic": analytic, "monte_carlo": estimate}


def ramsey_ensemble(
    delta0: float,
    noise: NoiseModel,
    dt: float,
    horizon: float,
    trials: int,
    rng: RngSpec,
) -> dict[str, object]:
    """Ramsey fringes averaged over stochastic frequency-noise trajectories.

    Trajectory i accumulates phase phi_i(t_k) = delta0 t_k + sum_j xi_j
    sigma sqrt(dt) and contributes cos(phi_i); the ensemble mean gives
    p_plus(t) = (1 + <cos phi>) / 2.  The fringe envelope is fitted as
    A exp(-t / T2) by log-linear regression on the oscillation extrema;
    white Gaussian noise has the exact envelope exp(-sigma^2 t / 2).

    ``times`` is the grid t_k = k dt, k = 1..round(horizon / dt), that
    ``p_plus`` is sampled on.  With sigma = 0 no stochastic path is taken
    at all: ``p_plus`` is the closed-form fringe and ``fitted_t2`` is None
    (infinite lifetime).
    ``fitted_freq`` is angular, from the FFT peak of the averaged fringe.
    """
    if dt * delta0 > 0.1 + 1e-12:
        raise ValueError("need dt * delta0 <= 0.1 to resolve the fringe phase")
    nsteps = int(np.round(horizon / dt))
    if nsteps < 2:
        raise ValueError("horizon too short")
    times = np.arange(1, nsteps + 1) * dt

    if noise.sigma == 0.0:
        p_plus, fitted_t2 = ramsey_trace(delta0, times), None
    else:
        if trials < 1000:
            raise ValueError("ensemble averaging needs at least 1e3 trajectories")
        kick_scale = noise.sigma * np.sqrt(dt)
        acc = np.zeros(nsteps)
        base_phase = delta0 * times
        for _, kicks in rng._blocks(trials, nsteps):
            kicks *= kick_scale
            np.cumsum(kicks, axis=1, out=kicks)
            kicks += base_phase
            np.cos(kicks, out=kicks)
            # An axis-0 reduce adds the rows in trajectory order, as a row loop does.
            kicks[0] += acc
            np.add.reduce(kicks, axis=0, out=acc)
        p_plus = 0.5 * (1.0 + acc / trials)
        fitted_t2 = fit_exponential_envelope(times, p_plus, delta0)
    return {
        "times": times,
        "p_plus": p_plus,
        "fitted_t2": fitted_t2,
        "fitted_freq": 2.0 * np.pi * dominant_frequency(times, p_plus),
    }


def decay_limited_ramsey(
    t1: float,
    delta: float,
    dt: float,
    horizon: float,
    trials: int,
    rng: RngSpec,
) -> dict[str, object]:
    """Ramsey experiment limited purely by decay; fringes decay with T2 = 2 T1.

    Quantum-jump trajectories from |+>: between jumps the excited amplitude
    is deterministically damped by exp(-dt / 2 t1) (and the state
    renormalized), and each step jumps to |0> with probability
    p_e(t) dt / t1 weighted by the instantaneous excited population.  A
    jumped trajectory contributes p_plus = 1/2 and no excitation.  The
    ensemble reproduces p_e(t) = exp(-t/t1)/2 and fringe amplitude
    exp(-t / 2 t1), the T2 = 2 T1 limit.

    Returns the time grid, the averaged fringe on it and the fitted T2.
    """
    if not 1 <= trials < 2**63:
        raise ValueError("need at least one trajectory and fewer than 2^63")
    if delta * t1 < 20.0:
        raise ValueError("need delta * t1 >= 20 so fringes fit inside the decay")
    if dt * delta > 0.1 + 1e-12:
        raise ValueError("need dt * delta <= 0.1 to resolve the fringe phase")
    nsteps = int(np.round(horizon / dt))
    if nsteps < 1:
        raise ValueError("horizon shorter than one step")
    times = np.arange(1, nsteps + 1) * dt

    # No-jump history is common to every trajectory: amplitudes (a_k, b_k)
    # with b damped then renormalized, and per-step jump hazard h_k.
    a = np.empty(nsteps)
    b = np.empty(nsteps)
    hazard = np.empty(nsteps)
    ak, bk = 1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)
    damp = np.exp(-dt / (2.0 * t1))
    for k in range(nsteps):
        hazard[k] = (bk * bk) * dt / t1
        bk *= damp
        nrm = np.hypot(ak, bk)
        ak, bk = ak / nrm, bk / nrm
        a[k], b[k] = ak, bk

    # Each trajectory is summarized by its first jump step (or none).
    alive = trials - np.cumsum(_first_jumps(rng, trials, nsteps, hazard))

    frac_alive = alive / trials
    p_plus = frac_alive * (0.5 + a * b * np.cos(delta * times)) + (1 - frac_alive) * 0.5
    return {
        "times": times,
        "p_plus": p_plus,
        "fitted_t2": fit_exponential_envelope(times, p_plus, delta),
    }


# ---------------------------------------------------------------------------
# Two-qubit states and correlation tables
# ---------------------------------------------------------------------------

#: Measurement outcomes in table order: computational, real, circular bases.
OUTCOME_LABELS = ("0", "1", "plus", "minus", "plus_i", "minus_i")

_OUTCOME_KETS = (
    KET_0.amps,
    KET_1.amps,
    KET_PLUS.amps,
    KET_MINUS.amps,
    KET_PLUS_I.amps,
    KET_MINUS_I.amps,
)

_BELL_AMPS = {
    "phi+": np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2),
    "phi-": np.array([1, 0, 0, -1], dtype=np.complex128) / np.sqrt(2),
    "psi+": np.array([0, 1, 1, 0], dtype=np.complex128) / np.sqrt(2),
    "psi-": np.array([0, 1, -1, 0], dtype=np.complex128) / np.sqrt(2),
}


def bell_state(kind: str) -> Ket:
    """One of the four maximally entangled Bell states.

    phi+- = (|00> +- |11>)/sqrt2, psi+- = (|01> +- |10>)/sqrt2.
    """
    try:
        return Ket(_BELL_AMPS[kind])
    except KeyError:
        raise ValueError(f"kind must be one of {sorted(_BELL_AMPS)}, got {kind!r}") from None


def joint_table(state: Ket) -> np.ndarray:
    """6x6 grid of joint outcome probabilities p(a, b) = |(<a| (x) <b|) psi|^2.

    Rows are Alice's outcome, columns Bob's, both ordered as OUTCOME_LABELS.
    Each 2x2 same- or cross-basis cell describes one choice of measurement
    bases and sums to 1.
    """
    if state.dim != 4:
        raise DimensionMismatch(f"a two-qubit state has 4 amplitudes, not {state.dim}")
    psi = state.amps.reshape(2, 2)
    probs = np.empty((6, 6))
    for i, alice in enumerate(_OUTCOME_KETS):
        for j, bob in enumerate(_OUTCOME_KETS):
            amp = alice.conj() @ psi @ bob.conj()
            probs[i, j] = abs(amp) ** 2
    return probs
