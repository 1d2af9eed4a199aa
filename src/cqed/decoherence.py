"""Decay, dephasing and two-qubit correlation experiments.

Monte-Carlo experiments here are stochastic but exactly reproducible: every
trajectory draws from its own pseudo-random stream derived from a 64-bit
master seed and the trajectory index through `RngSpec`.  Trajectory i uses
PCG64(splitmix64(seed XOR i * GOLDEN64)), and trajectories are reduced in
index order, so fixed (seed, trials) gives bit-identical output.  The
ensemble loops derive the PCG64 states of a block of trajectories at once,
replaying numpy's own seeding on whole arrays, as four 64-bit words each.
They write each trajectory's words straight into one reused bit
generator, in the word order found by setting a known state through
numpy's own setter, and draw it into one row of a reused block of about
1 MB; the draws are the ones ``RngSpec.stream(i)`` returns.

Mixed states never appear as density matrices in this module: ensembles are
weighted lists of pure states, which is all the experiments below need.
Two-qubit states are `cqed.linalg.Ket`s over (|00>, |01>, |10>, |11>),
the first qubit Alice's; the correlation tables reject any other dimension.

Conventions: hbar = 1; a qubit with gap ``delta`` accumulates relative phase
delta * t between |0> and |1> during free evolution; Ramsey fringes are
read out as p_plus, the probability of finding |+>.
"""

from __future__ import annotations

import ctypes
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
    "JointProbabilityTable",
    "OUTCOME_LABELS",
    "t1_curves",
    "ramsey_ensemble",
    "decay_limited_ramsey",
    "bell_state",
    "joint_table",
    "marginal_table",
]

_GOLDEN64 = 0x9E3779B97F4A7C15

# Constants of numpy.random.SeedSequence (pool of 4 uint32 words) and of
# PCG64's 128-bit LCG, as in numpy/random/bit_generator.pyx and pcg64.h.
_SEEDSEQ_INIT_A, _SEEDSEQ_MULT_A = 0x43B0D7E5, 0x931E8875
_SEEDSEQ_INIT_B, _SEEDSEQ_MULT_B = 0x8B51F9DD, 0x58F38DED
_SEEDSEQ_MIX_L, _SEEDSEQ_MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = (np.uint64(0x4385DF649FCCF645), np.uint64(0x2360ED051FC65DA4))  # (lo, hi)
_LO32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)
#: Four distinct words (state_lo, state_hi, inc_lo, inc_hi) that locate each
#: word of a PCG64 state in memory.
_PROBE = [0x0123456789ABCDEF, 0x1032547698BADCFE, 0x2301674589EFCDAB, 0x3210765498FEDCBB]


def _hash_steps(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor, multiplier) columns of n successive SeedSequence hash steps.

    SeedSequence's hash constant evolves independently of the data, so the
    whole sequence is known in advance: step k xors the word with xor[k]
    and multiplies it by mult[k].
    """
    consts = [init]
    for _ in range(n):
        consts.append((consts[-1] * mult) & 0xFFFFFFFF)
    consts = np.array(consts, dtype=np.uint32)[:, None]
    return consts[:-1], consts[1:]


# One hash per pool word entered, then one per ordered pair of pool words.
_POOL_XOR, _POOL_MULT = _hash_steps(_SEEDSEQ_INIT_A, _SEEDSEQ_MULT_A, 4 + 4 * 3)
_STATE_XOR, _STATE_MULT = _hash_steps(_SEEDSEQ_INIT_B, _SEEDSEQ_MULT_B, 8)


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """One splitmix64 output step on uint64 words; the documented mixing function."""
    x = x + np.uint64(_GOLDEN64)
    z = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _add128(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) limbs of a + b mod 2^128, both given as (lo, hi) uint64 limbs."""
    lo = a[0] + b[0]
    return lo, a[1] + b[1] + (lo < a[0])


def _muladd128(x: tuple, m: tuple, c: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) limbs of x * m + c mod 2^128, all given as (lo, hi) uint64 limbs.

    uint64 products wrap mod 2^64, so only the high half of x_lo * m_lo
    needs 32-bit partial products; x_hi * m_hi falls off the top.
    """
    x0, x1 = x[0] & _LO32, x[0] >> _32
    m0, m1 = m[0] & _LO32, m[0] >> _32
    cross_x, cross_m = x1 * m0, x0 * m1
    mid = ((x0 * m0) >> _32) + (cross_x & _LO32) + (cross_m & _LO32)
    carry = x1 * m1 + (cross_x >> _32) + (cross_m >> _32) + (mid >> _32)
    return _add128((x[0] * m[0], carry + x[0] * m[1] + x[1] * m[0]), c)


def _pcg64_states(seed: int, trajectories: np.ndarray) -> np.ndarray:
    """``PCG64(splitmix64(seed ^ i * GOLDEN64))``'s state for each index i.

    Row i holds the four 64-bit words (state_lo, state_hi, inc_lo, inc_hi)
    of the 128-bit state and increment.  Replays numpy's seeding on whole
    arrays instead of building one SeedSequence per key: the key enters a
    pool of four 32-bit words as its low and high halves (for keys below
    2^32 numpy enters one word, and hashing the missing word as 0 is what
    it does anyway), the pool is mixed, and ``generate_state(4, uint64)``
    gives PCG64's seed and stream words, which the srandom step turns into
    (state, inc) on 64-bit limbs.
    """
    i = np.asarray(trajectories, dtype=np.uint64)
    keys = _splitmix64(np.uint64(seed) ^ (i * np.uint64(_GOLDEN64)))
    words = np.zeros((4, keys.size), dtype=np.uint32)
    words[0] = keys & _LO32
    words[1] = keys >> _32
    pool = _hashmix(words, _POOL_XOR[:4], _POOL_MULT[:4])
    for src in range(4):
        # Mixing pool[src] into the other three words: independent updates.
        dst = [d for d in range(4) if d != src]
        steps = slice(4 + 3 * src, 7 + 3 * src)
        hashed = _hashmix(pool[src], _POOL_XOR[steps], _POOL_MULT[steps])
        mixed = _SEEDSEQ_MIX_L * pool[dst] - _SEEDSEQ_MIX_R * hashed
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
    out = _hashmix(np.concatenate([pool, pool]), _STATE_XOR, _STATE_MULT).astype(np.uint64)
    seed_hi, seed_lo, stream_hi, stream_lo = out[0::2] | (out[1::2] << _32)
    # PCG64 srandom: inc = 2 initseq + 1, state = (inc + initstate) MULT + inc.
    inc = ((stream_lo << np.uint64(1)) | np.uint64(1),
           (stream_hi << np.uint64(1)) | (stream_lo >> np.uint64(63)))
    state = _muladd128(_add128(inc, (seed_lo, seed_hi)), _PCG64_MULT, inc)
    return np.column_stack([*state, *inc])


def _state_dict(words) -> dict:
    """The ``bit_generator.state`` dict of one row of `_pcg64_states`."""
    state_lo, state_hi, inc_lo, inc_hi = (int(w) for w in words)
    return {"bit_generator": "PCG64",
            "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
            "has_uint32": 0, "uinteger": 0}


def _state_view(bitgen: np.random.PCG64) -> tuple[np.ndarray, list[int]]:
    """A uint64 view of ``bitgen``'s 128-bit state and inc, and its word order.

    numpy's PCG64 keeps a pointer to its (state, inc) pair at
    ``ctypes.state_address``.  A known state is set through numpy's own
    setter and its four words located in the view; ``order[j]`` is the
    `_pcg64_states` column that view word j holds.  Any other layout raises
    rather than draws.
    """
    address = ctypes.c_void_p.from_address(bitgen.ctypes.state_address).value
    # The pair lives inside the bit generator object; never follow a
    # pointer that leads elsewhere.
    if not id(bitgen) <= address <= id(bitgen) + type(bitgen).__basicsize__ - 32:
        raise RuntimeError(f"numpy {np.__version__}: PCG64 state is not where expected")
    view = np.ctypeslib.as_array((ctypes.c_uint64 * 4).from_address(address))
    bitgen.state = _state_dict(_PROBE)
    found = view.tolist()
    if sorted(found) != sorted(_PROBE):
        raise RuntimeError(f"numpy {np.__version__}: PCG64 state words not found")
    return view, [_PROBE.index(word) for word in found]


def _block_rows(nsteps):
    """Trajectories per block of `RngSpec._blocks`: max(1, 2^17 // nsteps), about 1 MB."""
    return max(1, 2**17 // nsteps)


@dataclass(frozen=True)
class RngSpec:
    """Master seed plus the per-trajectory stream derivation rule.

    Trajectory ``i`` uses ``PCG64(splitmix64(seed XOR (i * GOLDEN64)))``
    where GOLDEN64 = 0x9E3779B97F4A7C15.  Identical (seed, i) always yields
    the identical stream.  The states are derived in bulk as four 64-bit
    words each (`_pcg64_states`).  ``stream`` is the one-trajectory case and
    sets them through numpy's ``state`` setter; the ensemble loops draw
    block by block through ``_blocks``, which writes the words straight
    into one bit generator in the order `_state_view` probes.
    """

    seed: int

    def __post_init__(self):
        seed = int(self.seed)
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed {seed} is outside [0, 2^64)")
        object.__setattr__(self, "seed", seed)

    def stream(self, trajectory: int) -> np.random.Generator:
        if not 0 <= trajectory < 2**64:
            raise ValueError(f"trajectory index {trajectory} is outside [0, 2^64)")
        bitgen = np.random.PCG64(0)
        index = np.array([trajectory], dtype=np.uint64)
        bitgen.state = _state_dict(_pcg64_states(self.seed, index)[0])
        return np.random.Generator(bitgen)

    def _blocks(self, trials: int, nsteps: int, draw: str):
        """Yield ``(start, block)`` covering trajectories 0 .. trials-1.

        Row r of ``block`` holds the first ``nsteps`` values of
        ``stream(start + r).<draw>()``.  Blocks hold `_block_rows` rows and
        share one buffer, so each is overwritten by the next.  ``draw`` is
        ``random`` or ``standard_normal``: both take whole 64-bit outputs, so
        the buffered 32-bit half that the state words leave alone is never read.
        """
        if draw not in ("random", "standard_normal"):
            raise ValueError(f"unsupported draw {draw!r}")
        bitgen = np.random.PCG64(0)  # every row writes its own state
        view, order = _state_view(bitgen)
        fill = getattr(np.random.Generator(bitgen), draw)
        height = _block_rows(nsteps)
        buf = np.empty((min(height, trials), nsteps))
        for start in range(0, trials, height):
            block = buf[: min(height, trials - start)]
            indices = np.arange(start, start + len(block), dtype=np.uint64)
            for row, words in zip(block, _pcg64_states(self.seed, indices)[:, order]):
                view[:] = words
                fill(out=row)
            yield start, block


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

    Trajectory i jumps at step k if ``rng.stream(i).random(nsteps)[k] < hazard``,
    a scalar or one value per step; one that never jumps is counted nowhere.
    """
    counts = np.zeros(nsteps, dtype=np.int64)
    for _, u in rng._blocks(trials, nsteps, "random"):
        hits = u < hazard
        counts += np.bincount(np.argmax(hits, axis=1)[hits.any(axis=1)], minlength=nsteps)
    return counts


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
    time is the surviving fraction.  ``dt`` must resolve the decay (dt <= t1 / 100).
    """
    if not t1 > 0:
        raise ValueError("t1 must be positive")
    times = np.asarray(times, dtype=np.float64)
    analytic = np.exp(-times / t1)
    if mc is None:
        return {"analytic": analytic, "monte_carlo": None}

    dt, trials, rng = mc["dt"], int(mc["trials"]), mc["rng"]
    if dt > t1 / 100.0:
        raise ValueError("Monte-Carlo step must satisfy dt <= t1 / 100")
    # At least one step: with times.max() == 0 every estimate is 1 anyway.
    nsteps = max(1, int(np.ceil(times.max() / dt)))
    decayed = np.cumsum(_first_jumps(rng, trials, nsteps, 1.0 - np.exp(-dt / t1)))
    # Decayed by each time: every first jump in a step ended by then.  An exact
    # count, so equal to the mean of the (times x trials) survival matrix.
    over = np.searchsorted(np.arange(1, nsteps + 1) * dt, times, side="right")
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
        for _, kicks in rng._blocks(trials, nsteps, "standard_normal"):
            kicks *= kick_scale
            np.cumsum(kicks, axis=1, out=kicks)
            kicks += base_phase
            # Row by row in trajectory order: a summed block would round differently.
            for row in np.cos(kicks, out=kicks):
                acc += row
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

    Returns the time grid, the averaged fringe and excitation arrays on it,
    and the fitted T2.
    """
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
        "p_excited": frac_alive * (b * b),
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

#: The three standard bases as index pairs into OUTCOME_LABELS.
_BASIS_PAIRS = ((0, 1), (2, 3), (4, 5))


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


@dataclass(frozen=True)
class JointProbabilityTable:
    """6x6 grid of joint outcome probabilities p(a, b) = |(<a| (x) <b|) psi|^2.

    Rows are Alice's outcome, columns Bob's, both ordered as OUTCOME_LABELS.
    Each 2x2 same- or cross-basis cell describes one choice of measurement
    bases and sums to 1.
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.shape != (6, 6):
            raise DimensionMismatch("joint table must be 6x6")
        if probs.min() < -1e-12 or probs.max() > 1.0 + 1e-12:
            raise ValueError("probabilities out of [0, 1]")
        for ra, rb in _BASIS_PAIRS:
            for ca, cb in _BASIS_PAIRS:
                cell = probs[ra : rb + 1, ca : cb + 1].sum()
                if abs(cell - 1.0) > 1e-12:
                    raise ValueError(f"basis-pair cell sums to {cell!r}, not 1")
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)


def joint_table(state: Ket) -> JointProbabilityTable:
    """Joint probabilities of all 36 outcome pairs over the standard bases."""
    if state.dim != 4:
        raise DimensionMismatch(f"a two-qubit state has 4 amplitudes, not {state.dim}")
    psi = state.amps.reshape(2, 2)
    probs = np.empty((6, 6))
    for i, alice in enumerate(_OUTCOME_KETS):
        for j, bob in enumerate(_OUTCOME_KETS):
            amp = alice.conj() @ psi @ bob.conj()
            probs[i, j] = abs(amp) ** 2
    return JointProbabilityTable(probs)


def marginal_table(state: Ket) -> dict[str, float]:
    """Bob's outcome probabilities ignoring Alice entirely.

    The joint table summed over Alice's computational-basis outcomes.  No
    signalling makes her other two bases give the same sums: her remote
    choice of basis cannot steer Bob's marginals.
    """
    return dict(zip(OUTCOME_LABELS, joint_table(state).probs[0:2].sum(axis=0)))
