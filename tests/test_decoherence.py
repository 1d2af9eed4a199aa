import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cqed import decoherence
from cqed.decoherence import (
    NoiseModel,
    OUTCOME_LABELS,
    RngSpec,
    bell_state,
    decay_limited_ramsey,
    joint_table,
    ramsey_ensemble,
    t1_curves,
)
from cqed.errors import DimensionMismatch, FitFailed
from cqed.linalg import Ket
from cqed.qubit import KET_0, KET_1, KET_MINUS, KET_MINUS_I, KET_PLUS, KET_PLUS_I, ramsey_trace
from oracles import marginal_table


SEEDS = (0, 1, 2**63 + 7, 2**64 - 1)


def one_call(seed, draw, trials, nsteps):
    """The whole ensemble as one draw from the seed's stream, one trajectory per row."""
    gen = np.random.Generator(np.random.PCG64(seed))
    return getattr(gen, draw)(trials * nsteps).reshape(trials, nsteps)


class TestRngSpec:
    def test_streams_reproducible(self):
        a = RngSpec(42).stream(7, 16).random(16)
        b = RngSpec(42).stream(7, 16).random(16)
        assert np.array_equal(a, b)

    def test_streams_independent(self):
        a = RngSpec(42).stream(0, 16).random(16)
        b = RngSpec(42).stream(1, 16).random(16)
        c = RngSpec(43).stream(0, 16).random(16)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("value", [-1, 2**64])
    def test_seed_index_or_steps_outside_64_bits_raises(self, value):
        # masked to 64 bits, 2^64 would seed as 0 and -1 as 2^64 - 1; a
        # negative advance would step the stream backwards
        with pytest.raises(ValueError, match="outside"):
            RngSpec(value)
        with pytest.raises(ValueError, match="outside"):
            RngSpec(5).stream(value, 8)
        with pytest.raises(ValueError, match="outside"):
            RngSpec(5).stream(0, value)

    def test_largest_seed_and_index_draw(self):
        top = 2**64 - 1
        assert RngSpec(top).seed == top
        first = RngSpec(top).stream(0, 4).random(4)
        assert np.array_equal(first, one_call(top, "random", 1, 4)[0])
        # the advance top * top wraps past 2^64 and stays exact modulo 2^128
        far = RngSpec(top).stream(top, top).bit_generator
        near = np.random.PCG64(top).advance(top).advance(top * (top - 1))
        assert far.state == near.state


def trial_counts(nsteps):
    """1, a block less one, a block, a block and one, and 20 001 trials, as far
    as the whole ensemble fits in 2^23 values (64 MB)."""
    height = decoherence._block_rows(nsteps)
    counts = {1, height - 1, height, height + 1, 20_001}
    return sorted(n for n in counts if n * nsteps <= 2**23)


class TestEnsembleStream:
    @pytest.mark.parametrize("nsteps", [1, 2, 400, 2**17 + 1])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_blocks_are_one_draw_of_the_whole_ensemble(self, seed, nsteps):
        height = decoherence._block_rows(nsteps)
        for trials in trial_counts(nsteps):
            expected = one_call(seed, "standard_normal", trials, nsteps)
            seen = 0
            for start, rows in RngSpec(seed)._blocks(trials, nsteps):
                assert start == seen and rows.shape == (min(height, trials - start), nsteps)
                assert np.array_equal(rows, expected[start:start + len(rows)])
                seen += len(rows)
            assert seen == trials

    @pytest.mark.parametrize("seed", SEEDS[::3])
    def test_fewer_trials_read_a_prefix(self, seed):
        def stacked(trials):
            blocks = RngSpec(seed)._blocks(trials, 300)
            return np.concatenate([rows.copy() for _, rows in blocks])

        full = stacked(1000)
        for trials in (1, 436, 437, 999):
            assert np.array_equal(stacked(trials), full[:trials])

    @pytest.mark.parametrize("nsteps", [1, 400, 2**17 + 1])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_stream_is_its_row_of_one_random_draw(self, seed, nsteps):
        trials = 2**18 // nsteps + 3  # about 2 MB of draws
        rows = one_call(seed, "random", trials, nsteps)
        for i in sorted({0, 1, trials // 2, trials - 1}):
            assert np.array_equal(RngSpec(seed).stream(i, nsteps).random(nsteps), rows[i])


class FailingGenerator:
    """Stands in for ``np.random.Generator``: ``fail_at`` fills of zeros, then
    one that sleeps ``delay`` s and raises; ``started`` lists the fills begun."""

    fail_at = 1
    delay = 0.0
    started = []  # a fresh list per test: see `stub_generator`

    def __init__(self, bit_generator):
        self.calls = 0

    def standard_normal(self, out):
        self.calls += 1
        self.started.append(self.calls)
        if self.calls > self.fail_at:
            time.sleep(self.delay)
            raise FloatingPointError(f"fill {self.calls} failed")
        out[...] = 0.0


@pytest.fixture
def stub_generator(monkeypatch):
    """`FailingGenerator` in place of numpy's, with a fresh list of fills begun."""
    monkeypatch.setattr(np.random, "Generator", FailingGenerator)
    monkeypatch.setattr(FailingGenerator, "started", [])
    return FailingGenerator


#: Seconds a test waits for a worker before failing, well under the suite's
#: per-test limit, so a hung handoff fails its own test.
WORKER_TIMEOUT = 30


def on_a_worker(work):
    """``work()``'s result, run on a daemon thread joined with a timeout, so that a
    deadlock in it fails the test instead of hanging the suite; its exception is
    raised here."""
    outcome = {}

    def run():
        try:
            outcome["value"] = work()
        except BaseException as exc:
            outcome["error"] = exc

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=WORKER_TIMEOUT)
    assert not worker.is_alive(), f"still running after {WORKER_TIMEOUT} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome.get("value")


def drain(blocks):
    for _ in blocks:
        pass


class TestFillAhead:
    """`_blocks` fills the next block on a helper thread while the caller holds
    one.  Each test runs its blocks on a thread joined with a timeout, or in a
    subprocess with one, so a hung handoff fails the test."""

    def test_helper_is_joined_after_a_full_pass(self):
        before = threading.active_count()
        on_a_worker(lambda: drain(RngSpec(3)._blocks(2000, 400)))
        assert threading.active_count() == before

    def test_helper_is_joined_when_the_caller_closes_after_one_block(self):
        def close_after_one():
            blocks = RngSpec(3)._blocks(2000, 400)
            next(blocks)
            blocks.close()

        before = threading.active_count()
        on_a_worker(close_after_one)
        assert threading.active_count() == before

    def test_helper_is_joined_when_the_caller_raises_mid_loop(self):
        def raise_at_the_second_block():
            for start, _ in RngSpec(3)._blocks(2000, 400):
                if start:
                    raise KeyError(start)

        before = threading.active_count()
        with pytest.raises(KeyError):
            on_a_worker(raise_at_the_second_block)
        assert threading.active_count() == before

    def test_a_generator_left_open_does_not_hold_up_interpreter_exit(self):
        # the helper waits for a request that never comes
        code = ("from cqed.decoherence import RngSpec\n"
                "blocks = RngSpec(1)._blocks(2000, 400)\n"
                "next(blocks)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(decoherence.__file__).parent.parent))
        proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
        assert proc.returncode == 0

    @pytest.mark.parametrize("fail_at", [0, 1, 3])
    def test_a_failing_fill_raises_its_own_type_in_the_caller(
        self, stub_generator, monkeypatch, fail_at
    ):
        monkeypatch.setattr(stub_generator, "fail_at", fail_at)
        before = threading.active_count()
        seen = []

        def record_starts():
            for start, _ in RngSpec(3)._blocks(2000, 400):
                seen.append(start)

        with pytest.raises(FloatingPointError, match=f"fill {fail_at + 1} failed"):
            on_a_worker(record_starts)
        # every block filled before the failure reaches the caller, in order
        assert seen == [327 * k for k in range(fail_at)]
        assert threading.active_count() == before

    def test_the_fill_exception_is_the_object_the_caller_gets(self, monkeypatch):
        failure = FloatingPointError("the one fill failure")

        class Failing:
            def __init__(self, bit_generator):
                pass

            def standard_normal(self, out):
                raise failure

        monkeypatch.setattr(np.random, "Generator", Failing)
        with pytest.raises(FloatingPointError) as caught:
            on_a_worker(lambda: drain(RngSpec(3)._blocks(2000, 400)))
        assert caught.value is failure

    def test_the_helper_is_never_more_than_one_block_ahead(self, stub_generator, monkeypatch):
        monkeypatch.setattr(stub_generator, "fail_at", 10**9)
        ahead = []

        def hold_each_block():
            for k, _ in enumerate(RngSpec(3)._blocks(6 * 327, 400)):
                time.sleep(0.02)  # time enough for a free helper to fill several blocks
                ahead.append(len(stub_generator.started) - k)

        on_a_worker(hold_each_block)
        # block k and at most the one requested after it
        assert max(ahead) == 2 and len(stub_generator.started) == 6

    def test_closing_during_a_slow_fill_joins_the_helper_and_drops_its_failure(
        self, stub_generator, monkeypatch
    ):
        monkeypatch.setattr(stub_generator, "fail_at", 1)
        monkeypatch.setattr(stub_generator, "delay", 0.2)

        def close_while_block_1_is_filled():
            blocks = RngSpec(3)._blocks(3 * 327, 400)
            next(blocks)  # block 1 is requested: its fill sleeps, then raises
            while len(stub_generator.started) < 2:
                time.sleep(0.001)
            blocks.close()  # waits for that fill and raises nothing

        before = threading.active_count()
        on_a_worker(close_while_block_1_is_filled)
        assert threading.active_count() == before
        assert stub_generator.started == [1, 2]

    def test_a_held_block_stays_put_while_the_helper_runs_ahead(self):
        trials, nsteps = 3 * 327 + 5, 400  # three full blocks and a partial one
        expected = one_call(5, "standard_normal", trials, nsteps)

        def hold_each_block():
            for start, rows in RngSpec(5)._blocks(trials, nsteps):
                held = rows.copy()
                time.sleep(0.03)  # long enough for the helper to fill the next block
                assert np.array_equal(rows, held)
                assert np.array_equal(rows, expected[start:start + len(rows)])

        on_a_worker(hold_each_block)

    def test_ensembles_on_more_threads_than_cores_each_read_their_own_draws(self):
        # eight callers and their eight helpers, switching as often as they can
        trials, seeds = 5 * 327 + 5, range(8)
        seen = {}

        def stack(seed):
            blocks = RngSpec(seed)._blocks(trials, 400)
            seen[seed] = np.concatenate([rows.copy() for _, rows in blocks])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=stack, args=(seed,), daemon=True)
                       for seed in seeds]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=WORKER_TIMEOUT)
            assert not any(caller.is_alive() for caller in callers)
        finally:
            sys.setswitchinterval(interval)
        for seed in seeds:
            assert np.array_equal(seen[seed], one_call(seed, "standard_normal", trials, 400))

    def test_no_trials_make_no_block_and_no_helper(self, stub_generator, monkeypatch):
        # block 0 does not exist: a helper asked for it would fail before any fill
        monkeypatch.setattr(decoherence.threading, "Thread", None)
        assert list(RngSpec(1)._blocks(0, 5)) == []
        assert stub_generator.started == []

    @pytest.mark.parametrize("trials, buffers", [(327, 1), (328, 2), (3 * 327, 2)])
    def test_a_second_buffer_only_for_a_second_block(self, trials, buffers):
        # 327 rows of 400 steps make one block; the buffers are the run's only
        # arrays (the helper and worker threads add a few kB), and the second
        # holds as many rows as its first block
        tracemalloc.start()
        try:
            on_a_worker(lambda: drain(RngSpec(3)._blocks(trials, 400)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = 8 * 400 * (327 + min(327, trials - 327) * (buffers - 1))
        assert size <= peak < size + 2**16


def reference_t1_estimate(t1, times, dt, trials, seed):
    """The per-trajectory T1 estimate: each trajectory's decay time, from the
    first-jump counts, against each requested time."""
    nsteps = int(np.ceil(times.max() / dt))
    counts = decoherence._first_jumps(RngSpec(seed), trials, nsteps, 1.0 - np.exp(-dt / t1))
    decay_times = np.full(trials, np.inf)
    decay_times[:counts.sum()] = np.repeat([(k + 1) * dt for k in range(nsteps)], counts)
    return (decay_times[None, :] > times[:, None]).mean(axis=1)


def reference_decay_limited(t1, delta, dt, horizon, trials, seed):
    """Per-step no-jump loop of decay_limited_ramsey on its first-jump counts: p_plus."""
    nsteps = int(np.round(horizon / dt))
    times = np.arange(1, nsteps + 1) * dt
    a, b, hazard = np.empty(nsteps), np.empty(nsteps), np.empty(nsteps)
    ak = bk = 1.0 / np.sqrt(2.0)
    for k in range(nsteps):
        hazard[k] = (bk * bk) * dt / t1
        bk *= np.exp(-dt / (2.0 * t1))
        nrm = np.hypot(ak, bk)
        ak, bk = ak / nrm, bk / nrm
        a[k], b[k] = ak, bk
    jump_counts = decoherence._first_jumps(RngSpec(seed), trials, nsteps, hazard)
    frac_alive = (trials - np.cumsum(jump_counts)) / trials
    return frac_alive * (0.5 + a * b * np.cos(delta * times)) + (1 - frac_alive) * 0.5


def reference_ramsey(delta0, sigma, dt, horizon, trials, seed):
    """Per-trajectory noisy-fringe loop of ramsey_ensemble over one draw of all kicks: p_plus."""
    nsteps = int(np.round(horizon / dt))
    times = np.arange(1, nsteps + 1) * dt
    acc = np.zeros(nsteps)
    for normals in one_call(seed, "standard_normal", trials, nsteps):
        kicks = normals * (sigma * np.sqrt(dt))
        acc += np.cos(delta0 * times + np.cumsum(kicks))
    return 0.5 * (1.0 + acc / trials)


class TestEnsemblesMatchPerTrajectoryLoops:
    """The ensembles equal the per-trajectory loops bit for bit."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_t1_curves(self, seed):
        times = np.array([0.0, 0.013, 0.5, 1.0, 2.5, 2.0, 3.0])  # unsorted on purpose
        trials = 437
        out = t1_curves(1.0, times, {"dt": 0.01, "trials": trials, "rng": RngSpec(seed)})
        expected = reference_t1_estimate(1.0, times, 0.01, trials, seed)
        assert np.array_equal(out["monte_carlo"], expected)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_decay_limited_ramsey(self, seed):
        out = decay_limited_ramsey(1.0, 20.0, 0.004, 3.0, trials=300, rng=RngSpec(seed))
        p_plus = reference_decay_limited(1.0, 20.0, 0.004, 3.0, 300, seed)
        assert np.array_equal(out["p_plus"], p_plus)

    @pytest.mark.parametrize("dt, horizon", [(0.02, 8.0), (0.013, 3.37)])
    def test_ramsey_ensemble(self, dt, horizon):
        sigma, trials = np.sqrt(0.5), 1001
        out = ramsey_ensemble(5.0, NoiseModel(sigma), dt, horizon, trials, RngSpec(2**63 + 7))
        expected = reference_ramsey(5.0, sigma, dt, horizon, trials, 2**63 + 7)
        assert np.array_equal(out["p_plus"], expected)

    @pytest.mark.parametrize(
        "rows, cols",
        [(1, 1), (1, 400), (2, 3), (3, 1), (7, 5), (327, 400), (1000, 131), (4, 2**17 + 1)],
    )
    def test_block_reduce_adds_rows_as_the_row_loop_does(self, rows, cols):
        # the reduce ramsey_ensemble runs per block, against adding row by row
        gen = np.random.default_rng(rows * cols)
        acc = gen.standard_normal(cols) * 100.0
        block = np.cos(gen.standard_normal((rows, cols)) * 50.0)
        expected = acc.copy()
        for row in block:
            expected += row
        block[0] += acc
        np.add.reduce(block, axis=0, out=acc)
        assert np.array_equal(acc.view(np.uint64), expected.view(np.uint64))


class TestFirstJumps:
    """`_first_jumps` counts first jumps with one multinomial draw."""

    @pytest.mark.parametrize(
        "hazard",
        [2e-3, 4e-3 * np.exp(-np.arange(400) / 200.0), 1e-5 * np.arange(400)],
        ids=["scalar", "per-step", "rising"],
    )
    def test_survivors_are_binomial_with_the_survival_covariance(self, hazard):
        # survivors after step k: Binomial(trials, s_k), and for j < k
        # cov(N_j, N_k) = trials s_k (1 - s_j)
        trials, nsteps, seeds = 200, 400, 3000
        survival = np.exp(np.cumsum(np.log1p(-np.broadcast_to(hazard, nsteps))))
        steps = [49, 149, 249, 399]
        alive = np.array([
            trials - np.cumsum(decoherence._first_jumps(RngSpec(seed), trials, nsteps, hazard))
            for seed in range(seeds)
        ])[:, steps]
        p = survival[steps]
        variance = trials * p * (1 - p)
        assert np.all(np.abs(alive.mean(axis=0) - trials * p) < 4 * np.sqrt(variance / seeds))
        assert np.all(np.abs(alive.var(axis=0, ddof=1) / variance - 1) < 0.1)
        covariance = np.cov(alive[:, 0], alive[:, 2])[0, 1]
        assert abs(covariance / (trials * p[2] * (1 - p[0])) - 1) < 0.1

    @pytest.mark.parametrize(
        "hazard",
        [2e-3, 4e-3 * np.exp(-np.arange(400) / 200.0)],
        ids=["scalar", "per-step"],
    )
    @pytest.mark.parametrize("seed", SEEDS)
    def test_counts_are_one_draw_over_the_step_by_step_survival(self, seed, hazard):
        # survival multiplied out one step at a time, and the chance of a
        # first jump at each step as the survival it loses there
        trials, nsteps = 437, 400
        survival, pvals = 1.0, []
        for h in np.broadcast_to(hazard, nsteps):
            pvals.append(survival - survival * (1.0 - h))
            survival *= 1.0 - h
        gen = np.random.Generator(np.random.PCG64(seed))
        expected = gen.multinomial(trials, [*pvals, survival])[:-1]
        counts = decoherence._first_jumps(RngSpec(seed), trials, nsteps, hazard)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, expected)

    @pytest.mark.parametrize("nsteps", [1, 2, 400, 2**17 + 1])
    def test_one_count_per_step_and_none_for_survivors(self, nsteps):
        # the no-jump count is dropped: a survival of 0.5 leaves about half out
        hazard = 1.0 - 0.5 ** (1.0 / nsteps)
        counts = decoherence._first_jumps(RngSpec(8), 10**6, nsteps, hazard)
        assert counts.shape == (nsteps,) and counts.dtype == np.int64
        assert np.all(counts >= 0)
        assert abs(counts.sum() - 5 * 10**5) < 5 * 500  # 5 sigma of Binomial(1e6, 1/2)

    def test_no_hazard_makes_no_jump(self):
        assert not decoherence._first_jumps(RngSpec(1), 10**9, 50, 0.0).any()

    def test_a_certain_jump_takes_every_trajectory_at_the_first_step(self):
        counts = decoherence._first_jumps(RngSpec(1), 777, 50, 1.0)
        assert counts[0] == 777 and not counts[1:].any()

    def test_no_trajectory_outlives_a_certain_step(self):
        hazard = np.full(300, 1e-3)
        hazard[120] = 1.0
        counts = decoherence._first_jumps(RngSpec(2), 5000, 300, hazard)
        assert counts.sum() == 5000 and not counts[121:].any()

    def test_a_survival_that_underflows_to_zero_still_draws(self):
        # 0.5^4000 is 0 in binary64: the no-jump probability is exactly 0
        counts = decoherence._first_jumps(RngSpec(5), 10**12, 4000, 0.5)
        assert counts.sum() == 10**12
        assert not counts[100:].any()  # 1e12 0.5^100 ~ 1e-18 expected after step 99

    def test_the_hazard_is_left_as_it_was(self):
        hazard = 4e-3 * np.exp(-np.arange(400) / 200.0)
        before = hazard.copy()
        decoherence._first_jumps(RngSpec(6), 1000, 400, hazard)
        assert np.array_equal(hazard, before)

    def test_one_multinomial_call_and_no_other_draw(self, monkeypatch):
        real, calls = np.random.Generator, []

        class Recording:
            def __init__(self, bit_generator):
                self.gen = real(bit_generator)

            def __getattr__(self, name):
                calls.append(name)
                return getattr(self.gen, name)

        monkeypatch.setattr(np.random, "Generator", Recording)
        decoherence._first_jumps(RngSpec(4), 1000, 400, 1e-3)
        assert calls == ["multinomial"]

    def test_a_quadrillion_trials_take_under_a_second(self):
        start = time.perf_counter()
        counts = decoherence._first_jumps(RngSpec(3), 10**15, 400, 0.2)
        assert time.perf_counter() - start < 1.0
        # a survivor after 400 steps has probability 0.8^400 ~ 1e-39
        assert counts.dtype == np.int64 and counts.sum() == 10**15

    def test_the_largest_int64_trials_run(self):
        mc = {"dt": 0.01, "trials": 2**63 - 1, "rng": RngSpec(1)}
        estimate = t1_curves(1.0, np.array([0.5, 1.0]), mc)["monte_carlo"]
        assert np.allclose(estimate, np.exp([-0.5, -1.0]), rtol=1e-8)


class TestRamseyEnsembleStatistics:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_p_plus_within_five_standard_errors_of_the_exact_mean(self, seed):
        # phi(t_k) = delta t_k + a sum of k Gaussian kicks of variance sigma^2 dt,
        # so <cos phi> = exp(-sigma^2 t / 2) cos(delta t) exactly at each t_k
        delta, sigma2, trials = 5.0, 0.5, 4000
        out = ramsey_ensemble(delta, NoiseModel(np.sqrt(sigma2)), 0.02, 4.0, trials,
                              RngSpec(seed))
        t = out["times"]
        mean = np.exp(-sigma2 * t / 2) * np.cos(delta * t)
        second = (1 + np.exp(-2 * sigma2 * t) * np.cos(2 * delta * t)) / 2  # <cos^2 phi>
        stderr = np.sqrt((second - mean**2) / trials) / 2
        assert np.all(np.abs(out["p_plus"] - (1 + mean) / 2) < 5 * stderr)


class TestT1Curves:
    def test_analytic_points(self):
        out = t1_curves(2.0, np.array([0.0, 2.0]))
        assert out["analytic"][0] == 1.0
        assert abs(out["analytic"][1] - np.exp(-1)) < 1e-12
        assert out["monte_carlo"] is None

    def test_monte_carlo_within_binomial_errors(self):
        t1, trials = 1.0, 100_000
        times = np.array([0.25, 0.5, 1.0, 2.0])
        out = t1_curves(t1, times, mc={"dt": 0.01, "trials": trials, "rng": RngSpec(11)})
        est = out["monte_carlo"]
        ref = out["analytic"]
        for p_hat, p in zip(est, ref):
            stderr = np.sqrt(p * (1 - p) / trials)
            assert abs(p_hat - p) < 4 * stderr

    def test_bit_reproducible(self):
        times = np.linspace(0.1, 3.0, 7)
        mc = {"dt": 0.005, "trials": 400, "rng": RngSpec(5)}
        a = t1_curves(1.0, times, mc)["monte_carlo"]
        b = t1_curves(1.0, times, mc)["monte_carlo"]
        assert np.array_equal(a, b)

    def test_monte_carlo_at_time_zero_only(self):
        out = t1_curves(1.0, np.array([0.0]), mc={"dt": 0.01, "trials": 5, "rng": RngSpec(0)})
        assert out["monte_carlo"].tolist() == [1.0]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_monte_carlo_is_a_falling_fraction_of_survivors(self, seed):
        times, trials = np.linspace(0.0, 3.0, 31), 999
        mc = {"dt": 0.01, "trials": trials, "rng": RngSpec(seed)}
        estimate = t1_curves(1.0, times, mc)["monte_carlo"]
        survivors = estimate * trials
        assert np.allclose(survivors, np.round(survivors), rtol=0, atol=1e-9)
        assert estimate[0] == 1.0 and estimate[-1] >= 0.0
        assert np.all(np.diff(estimate) <= 0)

    def test_step_size_guard(self):
        with pytest.raises(ValueError):
            t1_curves(1.0, np.array([1.0]), mc={"dt": 0.5, "trials": 10, "rng": RngSpec(0)})

    @pytest.mark.parametrize("trials", [0, -1, 2**63])
    def test_an_ensemble_needs_a_trajectory(self, trials):
        # 0 trials would give 0 / 0, a NaN estimate; numpy's multinomial
        # counts in int64 and raises OverflowError past it
        with pytest.raises(ValueError, match="at least one trajectory"):
            t1_curves(1.0, np.array([0.5]), {"dt": 0.01, "trials": trials, "rng": RngSpec(1)})


class TestRamseyEnsemble:
    def test_noiseless_matches_closed_form_exactly(self):
        out = ramsey_ensemble(2.0, NoiseModel(0.0), 0.01, 6.0, trials=1, rng=RngSpec(0))
        times = out["times"]
        assert np.array_equal(out["p_plus"], ramsey_trace(2.0, times))
        assert out["fitted_t2"] is None

    def test_white_noise_envelope(self):
        sigma2 = 0.5
        out = ramsey_ensemble(
            5.0, NoiseModel(np.sqrt(sigma2)), 0.02, 10.0, trials=10_000, rng=RngSpec(12345)
        )
        assert abs(out["fitted_t2"] - 2.0 / sigma2) / (2.0 / sigma2) < 0.1

    def test_fitted_frequency_within_fft_bin(self):
        delta0 = 5.0
        for sigma2, seed in ((0.2, 3), (0.5, 4)):
            out = ramsey_ensemble(
                delta0, NoiseModel(np.sqrt(sigma2)), 0.02, 10.0, trials=2000, rng=RngSpec(seed)
            )
            bin_width = 2 * np.pi / 10.0
            assert abs(out["fitted_freq"] - delta0) <= bin_width

    def test_bit_reproducible(self):
        kwargs = dict(dt=0.02, horizon=4.0, trials=1000)
        a = ramsey_ensemble(5.0, NoiseModel(0.7), rng=RngSpec(9), **kwargs)
        b = ramsey_ensemble(5.0, NoiseModel(0.7), rng=RngSpec(9), **kwargs)
        assert np.array_equal(a["p_plus"], b["p_plus"])

    def test_phase_resolution_guard(self):
        with pytest.raises(ValueError):
            ramsey_ensemble(10.0, NoiseModel(0.1), 0.05, 4.0, 1000, RngSpec(0))


class TestDecayLimitedRamsey:
    def test_t2_is_twice_t1(self):
        out = decay_limited_ramsey(1.0, 20.0, 0.002, 3.0, trials=10_000, rng=RngSpec(999))
        assert 1.7 <= out["fitted_t2"] <= 2.3

    def test_no_decay_limit_keeps_fringes(self):
        out = decay_limited_ramsey(1e6, 20.0, 0.002, 3.0, trials=200, rng=RngSpec(1))
        fringe = np.abs(2 * out["p_plus"] - 1)
        assert fringe.max() > 0.999
        # the log-linear fit cannot resolve lifetimes beyond ~1e4 here (the
        # extrema are sampled on a grid); "no damping" reads as t2 >> horizon
        assert out["fitted_t2"] > 1e3

    def test_fringe_visibility_guard(self):
        with pytest.raises(ValueError):
            decay_limited_ramsey(1.0, 5.0, 0.002, 3.0, trials=100, rng=RngSpec(0))

    def test_horizon_shorter_than_one_step(self):
        with pytest.raises(ValueError):
            decay_limited_ramsey(1.0, 20.0, 0.002, 0.0009, trials=100, rng=RngSpec(0))

    def test_the_largest_int64_trials_give_the_mean_fringe(self):
        # 2^63 - 1 trajectories: the surviving fraction is the no-jump
        # probability to ~1e-10
        t1, delta, dt, horizon = 1.0, 20.0, 0.004, 3.0
        out = decay_limited_ramsey(t1, delta, dt, horizon, 2**63 - 1, RngSpec(3))
        times = out["times"]
        # the no-jump amplitudes, hazards and fringe a_k b_k cos(delta t_k)
        coherent = np.full(len(times), np.nan)
        hazard = np.empty(len(times))
        ak = bk = 1.0 / np.sqrt(2.0)
        for k in range(len(times)):
            hazard[k] = bk * bk * dt / t1
            bk *= np.exp(-dt / (2.0 * t1))
            ak, bk = ak / np.hypot(ak, bk), bk / np.hypot(ak, bk)
            coherent[k] = ak * bk * np.cos(delta * times[k])
        survival = np.cumprod(1.0 - hazard)
        assert np.allclose(out["p_plus"], 0.5 + survival * coherent, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("trials", [0, -1, 2**63])
    def test_an_ensemble_needs_a_trajectory(self, trials):
        with pytest.raises(ValueError, match="at least one trajectory"):
            decay_limited_ramsey(1.0, 20.0, 0.004, 3.0, trials, RngSpec(3))


class TestFitFailure:
    def test_too_short_horizon(self):
        # fewer than 3 extrema inside the horizon
        with pytest.raises(FitFailed):
            ramsey_ensemble(5.0, NoiseModel(1.0), 0.01, 1.0, trials=1000, rng=RngSpec(2))


class TestBellStates:
    def test_printed_amplitudes(self):
        s = 1 / np.sqrt(2)
        assert np.allclose(bell_state("phi+").amps, [s, 0, 0, s])
        assert np.allclose(bell_state("phi-").amps, [s, 0, 0, -s])
        assert np.allclose(bell_state("psi+").amps, [0, s, s, 0])
        assert np.allclose(bell_state("psi-").amps, [0, s, -s, 0])

    def test_mutually_orthogonal(self):
        kinds = ["phi+", "phi-", "psi+", "psi-"]
        for i, a in enumerate(kinds):
            for b in kinds[i + 1 :]:
                assert abs(np.vdot(bell_state(a).amps, bell_state(b).amps)) < 1e-15

    def test_phi_plus_in_plus_minus_basis(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        rewritten = (np.kron(plus, plus) + np.kron(minus, minus)) / np.sqrt(2)
        assert abs(np.vdot(rewritten, bell_state("phi+").amps)) ** 2 > 1 - 1e-12

    def test_completeness_on_random_states(self):
        rng = np.random.default_rng(34)
        for _ in range(8):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi = Ket(v / np.linalg.norm(v))
            total = sum(
                abs(np.vdot(psi.amps, bell_state(k).amps)) ** 2
                for k in ("phi+", "phi-", "psi+", "psi-")
            )
            assert abs(total - 1.0) < 1e-10

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            bell_state("omega+")


#: One qubit's outcomes in the order of OUTCOME_LABELS.
OUTCOME_KETS = (KET_0, KET_1, KET_PLUS, KET_MINUS, KET_PLUS_I, KET_MINUS_I)
#: The four Bell states and five random two-qubit kets, by seed.
TWO_QUBIT_CASES = ["phi+", "phi-", "psi+", "psi-", 40, 41, 42, 43, 44]


def two_qubit_ket(case):
    """A Bell state by name, or a random normalized two-qubit ket by seed."""
    if isinstance(case, str):
        return bell_state(case)
    v = np.array([1, 1j]) @ np.random.default_rng(case).normal(size=(2, 4))
    return Ket(v / np.linalg.norm(v))


class TestJointTable:
    # Outcomes index the table as OUTCOME_LABELS orders them:
    # 0, 1 | plus, minus | plus_i, minus_i.
    def test_phi_plus_same_basis_cells(self):
        probs = joint_table(bell_state("phi+"))
        # computational and +- bases: perfectly correlated
        for a, b in ((0, 1), (2, 3)):
            assert abs(probs[a, a] - 0.5) < 1e-12
            assert abs(probs[b, b] - 0.5) < 1e-12
            assert probs[a, b] < 1e-12
            assert probs[b, a] < 1e-12
        # circular basis: anti-correlated
        assert abs(probs[4, 5] - 0.5) < 1e-12
        assert abs(probs[5, 4] - 0.5) < 1e-12
        assert probs[4, 4] < 1e-12

    def test_phi_plus_cross_basis_flat(self):
        probs = joint_table(bell_state("phi+"))
        assert np.abs(probs[0:2, 2:6] - 0.25).max() < 1e-12

    def test_product_state_rows(self):
        probs = joint_table(Ket([1, 0, 0, 0]))  # |0,0>
        assert abs(probs[0, 0] - 1.0) < 1e-12
        assert probs[0, 1] < 1e-15
        assert probs[1, 0] < 1e-15
        assert abs(probs[0, 2] - 0.5) < 1e-12

    @pytest.mark.parametrize("case", TWO_QUBIT_CASES)
    def test_entries_and_cell_sums(self, case):
        psi = two_qubit_ket(case)
        probs = joint_table(psi)
        assert probs.shape == (6, 6) and probs.dtype == np.float64
        assert probs.min() >= -1e-12 and probs.max() <= 1.0 + 1e-12
        # each 2x2 block is one choice of bases, Alice's rows by Bob's columns
        for a in (0, 2, 4):
            for b in (0, 2, 4):
                assert abs(probs[a:a + 2, b:b + 2].sum() - 1.0) <= 1e-12
        # a swap of two outcomes within a basis keeps every block sum: each
        # entry is also |(<a| (x) <b|) psi|^2 with the product ket built by kron
        ref = [[abs(np.vdot(np.kron(a.amps, b.amps), psi.amps)) ** 2 for b in OUTCOME_KETS]
               for a in OUTCOME_KETS]
        assert np.abs(probs - ref).max() < 1e-12

    def test_rejects_non_two_qubit_dimension(self):
        with pytest.raises(DimensionMismatch):
            joint_table(Ket([1, 0]))

    def test_rejects_unnormalized_two_qubit_state(self):
        with pytest.raises(ValueError):
            Ket([1, 0, 0, 1])


class TestMarginals:
    @pytest.mark.parametrize("case", TWO_QUBIT_CASES)
    def test_no_signalling(self, case):
        # Alice's choice of basis cannot steer Bob's outcome probabilities
        state = two_qubit_ket(case)
        probs = joint_table(state)
        per_basis = np.stack([probs[a:a + 2].sum(axis=0) for a in (0, 2, 4)])
        assert np.ptp(per_basis, axis=0).max() < 1e-12
        marginals = marginal_table(state)
        assert tuple(marginals) == OUTCOME_LABELS
        assert np.array_equal(list(marginals.values()), per_basis[0])

    def test_phi_plus_fully_random(self):
        marg = marginal_table(bell_state("phi+"))
        for label in OUTCOME_LABELS:
            assert abs(marg[label] - 0.5) < 1e-12

    def test_product_plus_on_bob(self):
        psi = Ket(np.kron([1, 0], np.array([1, 1]) / np.sqrt(2)))
        marg = marginal_table(psi)
        assert abs(marg["plus"] - 1.0) < 1e-12
        assert marg["minus"] < 1e-12
        for label in ("0", "1", "plus_i", "minus_i"):
            assert abs(marg[label] - 0.5) < 1e-12

    def test_ensemble_mixture_is_flat(self):
        # an even mixture of |00> and |01> leaves Bob with the maximally mixed state
        margs = [marginal_table(Ket(amps)) for amps in ([1, 0, 0, 0], [0, 1, 0, 0])]
        for label in OUTCOME_LABELS:
            assert abs(0.5 * margs[0][label] + 0.5 * margs[1][label] - 0.5) < 1e-12
