import contextlib
import csv
import io
import math
import json
import os
import stat
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cqed
from cqed import cli, junction
from cqed.cli import run_command

#: An int past float range: bad input for every int flag.
HUGE_INT = str(10**400)


def run(tmp_path, *argv):
    out = tmp_path / "out.dat"
    code = run_command([*argv, "--out", str(out)])
    return code, out


def read_csv(path):
    meta, rows = {}, []
    header = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[2:].partition("=")
                meta[key] = value
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return meta, header, rows


class TestSpectrumCommand:
    def test_minimum_gap_column(self, tmp_path):
        code, out = run(
            tmp_path, "spectrum", "--ec", "1", "--ej", "0.1", "--ng-min", "0",
            "--ng-max", "1", "--ng-steps", "201", "--levels", "3",
        )
        assert code == 0
        meta, header, rows = read_csv(out)
        assert meta["command"] == "spectrum"
        assert len(rows) == 201
        gap_idx = header.index("gap_01")
        min_gap = min(float(r[gap_idx]) for r in rows)
        # printed two-level value E_J minus the E_J^3/16 correction
        assert abs(min_gap - 0.1) < 1e-4
        assert abs(min_gap - (0.1 - 0.1**3 / 16)) < 1e-7

    def test_levels_guard_exits_2(self, tmp_path, capsys):
        code, _ = run(tmp_path, "spectrum", "--levels", "25", "--ncut", "10")
        assert code == 2


class TestRamseyCommand:
    def test_closed_form_column(self, tmp_path):
        code, out = run(
            tmp_path, "ramsey", "--delta", "1", "--t-max", "12.56", "--steps", "100",
        )
        assert code == 0
        _, header, rows = read_csv(out)
        t = np.array([float(r[0]) for r in rows])
        p = np.array([float(r[1]) for r in rows])
        assert np.abs(p - 0.5 * (1 + np.cos(t))).max() < 1e-10


class TestBellCommand:
    def test_joint_table_values(self, tmp_path):
        code, out = run(tmp_path, "bell", "--state", "phi+")
        assert code == 0
        _, header, rows = read_csv(out)
        assert len(rows) == 36
        for r in rows:
            v = float(r[2])
            assert min(abs(v - x) for x in (0.0, 0.25, 0.5)) < 1e-12


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        args = ["dephase", "--trials", "1000", "--horizon", "4", "--seed", "7"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_command([*args, "--out", str(a)]) == 0
        assert run_command([*args, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_command(["decay", "--trials", "200", "--seed", "1", "--out", str(a)])
        run_command(["decay", "--trials", "200", "--seed", "2", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_json_byte_identical_reruns(self, tmp_path):
        args = ["dephase", "--trials", "1000", "--horizon", "4", "--seed", "3",
                "--format", "json"]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run_command([*args, "--out", str(a)]) == 0
        assert run_command([*args, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_mirrors_csv(self, tmp_path):
        c = tmp_path / "t.csv"
        j = tmp_path / "t.json"
        run_command(["rabi", "--steps", "11", "--out", str(c)])
        run_command(["rabi", "--steps", "11", "--format", "json", "--out", str(j)])
        _, header, rows = read_csv(c)
        doc = json.loads(j.read_text())
        assert doc["columns"] == header
        assert len(doc["rows"]) == len(rows)
        for jrow, crow in zip(doc["rows"], rows):
            assert np.allclose(jrow, [float(v) for v in crow], rtol=1e-11)


class TestParserPerProcess:
    def test_a_run_after_a_bad_argv_writes_what_a_fresh_process_writes(self, tmp_path):
        argv = ["spectrum", "--ng-steps", "11"]
        with pytest.raises(SystemExit) as exc:
            run_command(["spectrum", "--levels", "2", "--ncut", "x"])
        assert exc.value.code == 2
        assert run_command(["spectrum", "--levels", "0", "--out", str(tmp_path / "bad.csv")]) == 2
        assert run_command([*argv, "--out", str(tmp_path / "a.csv")]) == 0
        env = dict(os.environ, PYTHONPATH=str(Path(cqed.__file__).parent.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "cqed", *argv, "--out", str(tmp_path / "b.csv")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_build_parser_still_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()
        assert cli._parser() is cli._parser()


class TestExitCodes:
    def test_usage_error_bad_precondition(self, tmp_path):
        code, out = run(tmp_path, "decay", "--t1", "-1")
        assert code == 2
        assert not out.exists()

    def test_usage_error_mc_step(self, tmp_path):
        code, out = run(tmp_path, "decay", "--trials", "10", "--dt", "0.5")
        assert code == 2
        assert not out.exists()

    def test_numerical_error_exit_3(self, tmp_path, capsys):
        # coherent amplitude too large for the truncation: TruncationTooSmall
        code, out = run(tmp_path, "coherent", "--alpha-re", "3.0", "--dim", "12")
        assert code == 3
        assert not out.exists()
        assert "TruncationTooSmall" in capsys.readouterr().err

    def test_coherent_names_the_underflow_of_c0(self, tmp_path, capsys):
        # |alpha| = 39 passes the adequacy bound at 2200 levels, but
        # c_0 = exp(-760.5) is 0: the truncation is not what failed
        code, out = run(tmp_path, "coherent", "--alpha-re", "39", "--dim", "2200")
        assert code == 3
        assert not out.exists()
        assert capsys.readouterr().err == (
            "error: TruncationTooSmall: c_0 = exp(-|alpha|^2 / 2) underflows to 0"
            " for |alpha|=39\n")

    def test_coherent_near_the_c0_limit_passes_its_norm_check_or_names_c0(
        self, tmp_path, capsys
    ):
        # Past |alpha| = 37.64, c_0 = exp(-|alpha|^2 / 2) is subnormal: 38.2
        # used to fail as a norm deficit of 1.583e-07 and 38.4-38.6 to pass
        # with a norm over 1.  The scalar recursion gives each deficit.
        alphas = np.arange(360, 390) / 10.0
        c = np.exp(-0.5 * alphas**2)
        norm2 = c * c
        for n in range(2199):
            c = c * alphas / np.sqrt(n + 1.0)
            norm2 += c * c
        outcomes = []
        for alpha, deficit in zip(alphas, 1.0 - norm2):
            code, out = run(tmp_path, "coherent", "--alpha-re", str(alpha), "--dim", "2200",
                            "--steps", "2")
            err = capsys.readouterr().err
            if code == 0:
                assert abs(deficit) <= 1e-8
            else:
                assert code == 3 and err.startswith("error: TruncationTooSmall: c_0 = ")
                assert f"for |alpha|={alpha:g}\n" in err
            outcomes.append(code)
        assert outcomes == [0] * 17 + [3] * 13  # 37.6 passes; from 37.7 c_0 is subnormal

    @pytest.mark.parametrize("ratios,moved", [("1,60", "3.765e-06"), ("60,1", "8.353e-02")])
    def test_transmon_reports_first_failing_ratio(self, tmp_path, capsys, ratios, moved):
        # both ratios fail the doubled-ncut check; the message names the first
        # listed (ratio 1 moves by 3.765e-06, ratio 60 by 8.353e-02)
        code, out = run(tmp_path, "transmon", "--ratios", ratios, "--ncut", "3")
        assert code == 3
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"error: TruncationTooSmall: dispersion moved by {moved} when doubling ncut=3\n")

    def test_transmon_ncut_one_exits_2(self, tmp_path, capsys):
        code, out = run(tmp_path, "transmon", "--ncut", "1")
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: ncut must be at least 2\n"

    def test_spectrum_checks_its_levels_before_building_the_diagonal(self, tmp_path, capsys):
        # E_C (N - N_g)^2 overflows here, but the level count is refused first
        code, out = run(tmp_path, "spectrum", "--ec", "1e308", "--ng-max", "1e200",
                        "--levels", "30")
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            "error: k must be within [1, 19]; top levels are cutoff-polluted\n")

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_command(["warp-drive"])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_command(["--version"])
        assert exc.value.code == 0
        assert "cqed" in capsys.readouterr().out

    def test_bad_ratios_exit_2(self, tmp_path):
        code, _ = run(tmp_path, "transmon", "--ratios", "1,-3")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--ec", "nan"],
            ["spectrum", "--ec", "inf"],
            ["spectrum", "--ec", "0"],
            ["spectrum", "--ec", "-1"],
            ["spectrum", "--ej", "nan"],
            ["spectrum", "--ej", "inf"],
            ["spectrum", "--ej", "-0.1"],
            ["spectrum", "--ng-min", "nan"],
            ["spectrum", "--ng-max", "inf"],
            ["transmon", "--ec", "nan"],
            ["transmon", "--ec", "inf"],
            ["transmon", "--ec", "0"],
            ["transmon", "--ec", "-1"],
            ["transmon", "--ratios", "1,nan"],
            ["transmon", "--ratios", "inf"],
            ["tunnel-ode", "--max-rows", "0"],
            ["tunnel-ode", "--max-rows", "1"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_invalid_value_exits_2_with_one_line(self, tmp_path, capsys, argv):
        code, out = run(tmp_path, *argv)
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["rabi", "--omega", "nan"], "omega"),
            (["rabi", "--omega", "inf"], "omega"),
            (["ramsey", "--delta", "nan"], "delta"),
            (["coherent", "--alpha-re", "nan"], "alpha-re"),
            (["fluxwell", "--phi-ext", "nan"], "phi-ext"),
            (["fluxwell", "--l", "nan"], "l"),
            (["washboard", "--bias", "nan"], "bias"),
            (["washboard", "--phi-min", "nan"], "phi-min"),
            (["squid", "--i0", "nan"], "i0"),
            (["jc", "--g", "inf"], "g"),
            (["tunnel-ode", "--theta2", "nan"], "theta2"),
            (["tunnel-ode", "--dt", "nan"], "dt"),
            (["tunnel-ode", "--e-coupling", "nan"], "e-coupling"),
            (["tunnel-ode", "--n1", "inf"], "n1"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else v,
    )
    def test_dynamics_flags_rejected_before_any_work(
        self, tmp_path, capsys, monkeypatch, argv, flag
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("computation started before validation")

        for name in ("rabi_trace", "ramsey_trace", "coherent_evolution", "quad_stats",
                     "flux_qubit_potential", "washboard_u", "squid_effective",
                     "vacuum_rabi", "two_island_dynamics"):
            monkeypatch.setattr(cli, name, no_work)
        code, out = run(tmp_path, *argv)
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == f"error: {flag} must be finite\n"

    def test_non_finite_tunnel_state_exits_3(self, tmp_path, capsys):
        # E t / 2 overflows at t = 36
        code, out = run(tmp_path, "tunnel-ode", "--n1", "1", "--n2", "1", "--theta2", "0",
                        "--e-coupling", "1e307", "--dt", "1", "--steps", "100")
        assert code == 3
        assert not out.exists()
        assert "FloatingPointError" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "n1, n2, theta1, theta2, e, dt, error",
        [
            # the starts where a quantity of the RK4 became non-finite
            (1.0, 1.0, -1e308, 1e308, 1.0, 1.0, "FloatingPointError"),  # theta2 - theta1
            (1.4e-179, 4.7e230, -2.4e209, -2.4e209, 8.4e-57, 0.06, "StepUnstable"),
            (1.0, 1.0, 0.0, 0.0, 1e307, 1.0, "FloatingPointError"),  # E t
            (1e200, 1e200, 0.0, 0.0, 1.0, 1e-3, "FloatingPointError"),  # n1 n2
            (6.3e-238, 7.8e-104, 0.0, 2.4, 9.3e240, 0.011, "StepUnstable"),
        ],
    )
    def test_tunnel_state_past_float_range_exits_3(self, tmp_path, capsys, n1, n2, theta1,
                                                   theta2, e, dt, error):
        # an n_j under eps (n1 + n2) is a StepUnstable at t = 0
        code, out = run(tmp_path, "tunnel-ode", f"--n1={n1}", f"--n2={n2}", f"--theta1={theta1}",
                        f"--theta2={theta2}", f"--e-coupling={e}", f"--dt={dt}", "--steps=100")
        assert code == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "n1, n2, theta2, e, dt",
        [
            # starts where the RK4 drove a pair number to 0 or below within 10 steps
            (7.9, 0.72, -3.1, -3.7, 0.4),
            (0.13, 7.9, 1.8, 4.5, 0.86),
            (19.0, 380.0, -1.2, -1.8, 0.45),
            (0.29, 25.0, 0.55, 26.0, 0.12),
            (1.0, 100.0, -math.pi / 2, 10.0, 1.0),
        ],
    )
    def test_starts_the_rk4_could_not_step_now_run(self, tmp_path, n1, n2, theta2, e, dt):
        code, out = run(tmp_path, "tunnel-ode", f"--n1={n1}", f"--n2={n2}", f"--theta2={theta2}",
                        f"--e-coupling={e}", f"--dt={dt}", "--steps=100")
        assert code == 0
        _, header, rows = read_csv(out)
        cols = dict(zip(header, np.array(rows, dtype=float).T))
        assert len(rows) == 101
        assert np.abs(cols["n1"] + cols["n2"] - (n1 + n2)).max() <= 1e-11 * (n1 + n2)
        assert np.all(cols["n1"] > 0) and np.all(cols["n2"] > 0)

    def test_tunnel_ode_row_on_a_node_exits_3(self, tmp_path, capsys):
        # psi_1 vanishes at E t = 3 pi / 2 for n1 = n2 and delta0 = pi / 2
        code, out = run(tmp_path, "tunnel-ode", "--n1", "1", "--n2", "1",
                        "--theta2", repr(math.pi / 2), "--e-coupling", "1",
                        "--dt", repr(1.5 * math.pi), "--steps", "1")
        assert code == 3
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: StepUnstable: a pair number at t = ")

    @pytest.mark.parametrize("g", ["1e-320", "5e-324"])
    def test_jc_transfer_time_past_float_range_exits_3(self, tmp_path, capsys, g):
        # pi / 2g overflows: this printed "transfer time pi/2g = inf" with exit 0
        code, out = run(tmp_path, "jc", "--g", g)
        assert code == 3
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: FloatingPointError: ")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["dephase", "--dt", "0"], "dt"),
            (["dephase", "--dt", "nan"], "dt"),
            (["dephase", "--horizon", "inf"], "horizon"),
            (["dephase", "--sigma2", "nan"], "sigma2"),
            (["dephase", "--sigma2", "inf"], "sigma2"),
            (["dephase", "--delta", "nan"], "delta"),
            (["dephase", "--delta", "-5"], "delta"),
            (["dephase", "--sigma2", "0", "--trials", "-3"], "trials"),
            (["decay", "--trials", "-5"], "trials"),
            (["decay", "--trials", "10", "--dt", "0"], "dt"),
            (["decay", "--dt", "nan"], "dt"),
            (["decay", "--t1", "inf"], "t1"),
            (["decay", "--t-max", "nan"], "t-max"),
            (["decay", "--trials", HUGE_INT], "trials"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else v,
    )
    def test_monte_carlo_flags_rejected_before_any_work(
        self, tmp_path, capsys, monkeypatch, argv, flag
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("computation started before validation")

        monkeypatch.setattr(cli, "t1_curves", no_work)
        monkeypatch.setattr(cli, "ramsey_ensemble", no_work)
        code, out = run(tmp_path, *argv)
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flag in err

    @pytest.mark.parametrize(
        "argv",
        [
            # 5e13 and 1e14 steps per trajectory: 364 and 728 TiB per array
            ["dephase", "--horizon", "1e12"],
            ["decay", "--t-max", "1e12", "--trials", "10"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_monte_carlo_horizon_over_byte_budget_exits_2(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("computation started before the budget check")

        monkeypatch.setattr(cli, "t1_curves", no_work)
        monkeypatch.setattr(cli, "ramsey_ensemble", no_work)
        monkeypatch.setattr(cli.np, "linspace", no_work)
        code, out = run(tmp_path, *argv)
        assert code == 2
        assert not any(tmp_path.iterdir())
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "budget" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["rabi", "--steps", "1000000000000"],
            ["washboard", "--steps", "1000000000000"],
            ["fluxwell", "--steps", "100000000000"],
            ["spectrum", "--ng-steps", "100000000"],
            ["jc", "--steps", "2796203"],  # (steps, 3) rows: one value over 2^23
            ["coherent", "--dim", "100000"],
            # three (steps, dim) complex stacks held at once, not one
            ["coherent", "--steps", "29128"],
            ["transmon", "--ncut", "100000"],
            ["transmon", "--ratios", "1e12"],
            ["rabi", "--steps", "2796203"],  # (steps, 3) rows: one value over 2^23
            ["dephase", "--trials", "1000000000000"],  # random draws, not bytes
            # 2 brackets multisected over 1022 columns: 4000001 x 1024 values
            ["spectrum", "--ng-steps", "2", "--levels", "1", "--ncut", "2000000"],
            # 8401 x 1024 values
            ["spectrum", "--ng-steps", "2", "--levels", "1", "--ncut", "4200"],
            # 8193 x 1024 values: the smallest ncut over the value budget
            ["spectrum", "--ng-steps", "2", "--levels", "1", "--ncut", "4096"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_over_budget_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch, argv):
        def no_work(*args, **kwargs):
            raise AssertionError("computation started before the budget check")

        for name in ("spectrum_sweep", "charge_dispersion", "rabi_trace", "coherent_evolution",
                     "quad_stats", "washboard_u", "flux_qubit_potential",
                     "vacuum_rabi", "ramsey_ensemble", "two_island_dynamics"):
            monkeypatch.setattr(cli, name, no_work)
        monkeypatch.setattr(cli.np, "linspace", no_work)
        start = time.perf_counter()
        code, out = run(tmp_path, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert not any(tmp_path.iterdir())
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "budget" in err

    @pytest.mark.parametrize(
        "argv, draws",
        [
            # round(1.6) = 2 steps per trajectory, not 1.6
            (["dephase", "--horizon", "0.032", "--dt", "0.02", "--trials", "600000000"],
             "1.2e+09"),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else value,
    )
    def test_draw_budget_counts_the_steps_a_trajectory_takes(self, argv, draws):
        args = cli.build_parser().parse_args(argv)
        with pytest.raises(ValueError) as caught:
            cli._check(args, cli._COMMANDS[argv[0]])
        assert str(caught.value) == f"{draws} random draws exceed the budget of {cli._MAX_DRAWS}"

    def test_decay_trials_cost_no_draws(self, tmp_path):
        # one multinomial draw over one step, whatever the trials
        start = time.perf_counter()
        code, _ = run(tmp_path, "decay", "--t-max", "1e-308", "--trials", "2000000000")
        assert time.perf_counter() - start < 1.0
        assert code == 0

    def test_decay_runs_the_largest_int64_trials(self, tmp_path):
        # 2^63 - 1 trajectories: the estimate is the exact survival to ~1e-10
        code, out = run(tmp_path, "decay", "--trials", str(2**63 - 1))
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == ["t", "p_analytic", "p_mc"]
        table = np.array(rows, dtype=float)
        assert len(table) == 81
        assert np.all(np.abs(table[:, 2] - table[:, 1]) < 1e-9)

    def test_decay_trials_past_int64_exit_2(self, tmp_path, capsys):
        # numpy's multinomial counts in int64
        code, _ = run(tmp_path, "decay", "--trials", str(2**63))
        assert code == 2
        assert not any(tmp_path.iterdir())
        assert capsys.readouterr().err == "error: need at least one trajectory and fewer than 2^63\n"

    def test_decay_without_trials_builds_no_step_array(self, tmp_path):
        # 1e18 steps of dt, but no Monte-Carlo: its term is the (steps, 3) table
        argv = ["decay", "--trials", "0", "--t-max", "1e9", "--dt", "1e-9"]
        assert cli._COMMANDS["decay"].size(cli.build_parser().parse_args(argv)) == 3 * 81
        assert run(tmp_path, *argv)[0] == 0

    @pytest.mark.parametrize("steps", [10**11, 10**15, 2**63 + 5])
    def test_tunnel_ode_cost_does_not_grow_with_its_steps(self, tmp_path, steps):
        # the closed form is evaluated at the printed rows alone
        start = time.perf_counter()
        code, out = run(tmp_path, "tunnel-ode", "--steps", str(steps))
        assert time.perf_counter() - start < 1.0
        assert code == 0
        _, _, rows = read_csv(out)
        every = -(-steps // 500)
        assert len(rows) == steps // every + 1
        assert rows[-1][0] == "%.12g" % (float(steps // every * every) * 1e-3)

    def test_spectrum_value_budget_also_bounds_its_bisection_loop(self, tmp_path, capsys):
        # At most 2^23 // _COLUMNS charges fit the value budget, and each takes
        # at most _HALVINGS passes: under the loop budget, which only transmon
        # can exceed.
        assert (2**23 // cli._COLUMNS) * cli._HALVINGS < cli._MAX_LOOPS
        code, _ = run(tmp_path, "spectrum", "--ncut", "4096", "--ng-steps", "2", "--levels", "1")
        assert code == 2
        assert "float64 values in one array exceed the budget" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["rabi", "--omega=-1e300", "--t-max", "1e300"],  # was exit 0 with NaN rows
            ["fluxwell", "--phi-min=-1e300"],  # was exit 0 with inf rows
            ["coherent", "--alpha-re", "1e300"],  # was an OverflowError traceback
            ["spectrum", "--ej", "1e300"],  # was warnings and "cannot convert float NaN"
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_floating_point_fault_exits_3(self, tmp_path, capsys, argv):
        code, out = run(tmp_path, *argv)
        assert code == 3
        assert not any(tmp_path.iterdir())
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Error" in err

    @pytest.mark.parametrize("command, flag", [("rabi", "steps"), ("squid", "branch")])
    def test_int_past_float_range_exits_2_before_any_work(
        self, tmp_path, capsys, monkeypatch, command, flag
    ):
        # was exit 3: "OverflowError: int too large to convert to float"
        def no_work(*args, **kwargs):
            raise AssertionError("computation started before validation")

        monkeypatch.setattr(cli, "rabi_trace", no_work)
        monkeypatch.setattr(cli, "squid_effective", no_work)
        monkeypatch.setattr(cli.np, "linspace", no_work)
        start = time.perf_counter()
        code, out = run(tmp_path, command, f"--{flag}", HUGE_INT)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert not any(tmp_path.iterdir())
        assert capsys.readouterr().err == f"error: {flag} must be finite\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["squid", "--i0", "-1"], "i0 must be > 0"),
            (["squid", "--i0", "0"], "i0 must be > 0"),
            (["transmon", "--ncut", "-5"], "ncut must be >= 0"),
            (["jc", "--nmax", "1"], "nmax must be >= 2"),
            (["jc", "--g", "0"], "g must be > 0"),
            (["jc", "--g", "-1"], "g must be > 0"),
            (["tunnel-ode", "--n1", "0"], "n1 must be > 0"),
            (["tunnel-ode", "--n2", "-1"], "n2 must be > 0"),
            (["tunnel-ode", "--n1", "inf"], "n1 must be finite"),
            (["coherent", "--dim", "1"], "dim must be >= 2"),
            (["coherent", "--dim", "-3"], "dim must be >= 2"),
            # a negative ncut made the size term negative: exit 1 in np.linspace
            (["spectrum", "--ncut", "-1", "--ng-steps", "1000000000000000"], "ncut must be >= 2"),
            (["transmon", "--ratios", "abc"], "ratios must be"),
            # were exit 0: the seed was masked to 64 bits, so 2^64 wrote the rows of
            # seed 0 and -1 those of 2^64 - 1, each under its own "# seed=" line
            (["decay", "--trials", "20", "--seed", "-1"], "seed must be within [0, 2^64)"),
            (["decay", "--trials", "20", "--seed", str(2**64)], "seed must be within [0, 2^64)"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else v,
    )
    def test_out_of_bound_flag_exits_2(self, tmp_path, capsys, argv, message):
        code, out = run(tmp_path, *argv)
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_largest_seed_runs(self, tmp_path):
        code, out = run(tmp_path, "decay", "--trials", "20", "--seed", str(2**64 - 1))
        assert code == 0
        assert read_csv(out)[0]["seed"] == str(2**64 - 1)


#: Edge values of each flag type; strings are the ``--ratios`` values.
EDGE_ARGS = {
    float: ["0", "-1", "nan", "inf", "-inf", "1e300", "-1e300", "1e308"],
    int: ["0", "-1", "1000000000000000", HUGE_INT],
    str: ["abc", "", ",", "1,-3", "1,nan", "inf", "0", "1e400"],
}


@st.composite
def edge_argv(draw):
    """A command with each declared flag at its default or at an edge value."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    argv = [command]
    for name, _, default, rule in cli._flags(cli._COMMANDS[command]):
        values = rule if isinstance(rule, tuple) else EDGE_ARGS[type(default)]
        value = draw(st.one_of(st.none(), st.sampled_from(values)))
        if value is not None:
            argv.append(f"--{name}={value}")
    return argv


class TestEdgeValuesFromTheCommandTable:
    @settings(max_examples=200, deadline=None)
    @given(edge_argv())
    # Edge argv that once broke the exit-code rules: a negative size term
    # (exit 1 in np.linspace), arrays over any budget (exit 1 with
    # _ArrayMemoryError), NaN or inf rows (exit 0), an OverflowError or a
    # ZeroDivisionError traceback (exit 1), warnings before the error line,
    # an int past float range (exit 3), and a Python-float product that
    # overflows to inf without raising (exit 0 with inf cells).
    @example(["spectrum", "--ncut=-1", "--ng-steps=1000000000000000"])
    @example(["rabi", "--steps=1000000000000000"])
    @example(["dephase", "--horizon=1e300"])
    @example(["decay", "--t-max=1e300", "--trials=1000000000000000"])
    @example(["rabi", "--omega=-1e300", "--t-max=1e300"])
    @example(["fluxwell", "--phi-min=-1e300"])
    @example(["coherent", "--alpha-re=1e300"])
    @example(["tunnel-ode", "--max-rows=0"])
    @example(["tunnel-ode", "--steps=1000000000000000", "--e-coupling=1e300"])
    @example(["tunnel-ode", "--theta1=-1e300", "--theta2=1e308", "--n1=1e-300"])
    @example(["spectrum", "--ej=1e300"])
    @example(["rabi", f"--steps={HUGE_INT}"])
    @example(["squid", "--i0=1e308"])
    def test_exit_code_stderr_and_cells(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "t.csv"
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = run_command([*argv, "--out", str(out)])
            files = [p.name for p in Path(tmp).iterdir()]
            assert code in (0, 2, 3)
            if any(arg.endswith(f"={HUGE_INT}") for arg in argv):
                assert code == 2
            if code == 0:
                assert files == ["t.csv"]
                meta, _, rows = read_csv(out)
                cells = [c for row in rows for c in row] + list(meta.values())
                assert not {"nan", "inf", "-inf"} & {c.lower() for c in cells}
            else:
                assert files == []
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def largest_allocation(tmp_path, argv):
    """Exit code and the largest block allocated while ``argv`` runs."""
    largest = 0

    def profile(frame, event, arg):
        # A function's arrays are all alive when it returns.
        nonlocal largest
        if event == "return" and frame.f_globals.get("__name__", "").startswith("cqed."):
            # The raw (domain, size, traceback, nframe) tuples that
            # take_snapshot wraps, read without a Trace object per block.
            largest = max(largest, max(trace[1] for trace in tracemalloc._get_traces()))

    tracemalloc.start()
    sys.setprofile(profile)
    try:
        code, _ = run(tmp_path, *argv)
    finally:
        sys.setprofile(None)
        tracemalloc.stop()
    return code, largest


class TestSizeTerm:
    def test_lopsided_transmon_allocates_no_array_over_its_size_term(self, tmp_path):
        # One ratio needs far more charges than the rest: (charges, columns)
        # arrays padded to its 145 charges would hold over twice the term.
        argv = ["transmon", "--ratios", "1000,1,1,1,1"]
        size = cli._COMMANDS["transmon"].size(cli.build_parser().parse_args(argv))
        code, largest = largest_allocation(tmp_path, argv)
        assert code == 0
        # The first Sturm block was seen: the 11 charges of the smallest scan
        # by 600 columns (40 brackets x 15 points of depth-4 multisection).
        assert 8 * 11 * 600 <= largest <= 8 * size

    def test_narrow_spectrum_allocates_no_array_over_its_size_term(self, tmp_path):
        # 2 brackets take depth-9 multisection: (101, 1022) Sturm arrays,
        # where a column per bracket would hold 2
        argv = ["spectrum", "--ng-steps", "2", "--levels", "1", "--ncut", "50"]
        size = cli._COMMANDS["spectrum"].size(cli.build_parser().parse_args(argv))
        code, largest = largest_allocation(tmp_path, argv)
        assert code == 0
        assert 8 * 101 * 1022 <= largest <= 8 * size

    @pytest.mark.parametrize(
        "argv",
        [
            ["dephase", "--trials", "20000"],
            ["dephase", "--trials", "5000", "--sigma2", "0.1", "--horizon", "20"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_ensemble_allocates_its_trajectory_block_and_no_array_over_its_size_term(
        self, tmp_path, argv
    ):
        args = cli.build_parser().parse_args(argv)
        steps = round(args.horizon / args.dt)
        block = min(args.trials, max(1, 2**17 // steps)) * steps
        code, largest = largest_allocation(tmp_path, argv)
        assert code == 0
        assert 8 * block <= largest <= 8 * cli._COMMANDS[argv[0]].size(args)

    @pytest.mark.parametrize(
        "argv, floor",
        [
            # the (401, 3) table
            (["decay", "--trials", "20000", "--steps", "401"], 3 * 401),
            # the 400 001 first-jump probabilities (and counts) of 400 000 steps and no jump
            (["decay", "--trials", "20000", "--t-max", "4000"], 400_001),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else str(value),
    )
    def test_decay_allocates_no_array_over_its_size_term(self, tmp_path, argv, floor):
        size = cli._COMMANDS["decay"].size(cli.build_parser().parse_args(argv))
        code, largest = largest_allocation(tmp_path, argv)
        assert code == 0
        assert 8 * floor <= largest <= 8 * size

    @pytest.mark.parametrize(
        "argv, floor",
        [
            # a (steps, dim) complex stack: the evolved or the analytic amplitudes
            (["coherent", "--dim", "96", "--alpha-re", "2.953", "--steps", "601"], 16 * 96 * 601),
            # the (steps, 3) table; no (steps, 2 nmax) amplitudes are built
            (["jc", "--nmax", "24", "--steps", "4001", "--g", "0.9734"], 8 * 3 * 4001),
        ],
        ids=["coherent", "jc"],
    )
    def test_dynamics_at_bench_size_allocates_no_array_over_its_size_term(
        self, tmp_path, argv, floor
    ):
        size = cli._COMMANDS[argv[0]].size(cli.build_parser().parse_args(argv))
        code, largest = largest_allocation(tmp_path, argv)
        assert code == 0
        assert floor <= largest <= 8 * size

    def test_coherent_past_724_levels_allocates_no_array_over_its_size_term(self, tmp_path):
        # a 16 dim^2 term for dense operators stopped coherent at 724 levels;
        # alpha = 30 needs 1210 of them
        argv = ["coherent", "--dim", "1300", "--alpha-re", "30", "--steps", "61"]
        size = cli._COMMANDS["coherent"].size(cli.build_parser().parse_args(argv))
        code, largest = largest_allocation(tmp_path, argv)
        assert code == 0
        assert 16 * 1300 * 61 <= largest <= 8 * size

    def test_tunnel_ode_keeps_only_its_printed_rows(self, tmp_path):
        # 3000 steps print every 6th state: the (501, 6) table is the largest
        # array, where the (3001, 4) trajectory held 8 * 4 * 3001 bytes
        code, largest = largest_allocation(tmp_path, ["tunnel-ode", "--steps", "3000"])
        assert code == 0
        assert largest == 8 * 6 * 501

    def test_jc_size_term_does_not_grow_with_nmax(self, tmp_path):
        # the populations need no state vectors, so nmax costs nothing
        code, _ = run(tmp_path, "jc", "--nmax", "100000")
        assert code == 0

    @given(st.integers(0, 2**64), st.floats(0, 1e300) | st.just(np.inf))
    @example(1, 0.0)
    @example(2**23, 1.0)
    @example(0, np.inf)
    @example(10, 2**17 - 1.0)
    def test_trajectory_block_is_at_most_two_to_the_17_or_one_row(self, trials, steps):
        # dephase's term counted 2 horizon / dt values before the block, and
        # the budget is over 2^17: no exit code moves.
        assert 0 <= cli._block(trials, steps) <= max(2**17, steps)

    @pytest.mark.parametrize("trials, steps", [(5, 1), (3, 7), (2, 2**16 + 1), (3, 2**17 + 1)])
    def test_trajectory_block_term_is_the_block_the_ensembles_fill(self, trials, steps):
        blocks = [len(block) for _, block in cli.RngSpec(0)._blocks(trials, steps)]
        assert blocks[0] * steps == cli._block(trials, steps)
        assert sum(blocks) == trials

    @pytest.mark.parametrize(
        "argv",
        [
            ["decay", "--trials", str(2**23), "--t-max", "0.01", "--dt", "0.01"],
            ["decay", "--trials", "9000000", "--t-max", "0.01", "--dt", "0.01"],
            # 2^23 - 1 steps: 2^23 first-jump probabilities with that of no jump
            ["decay", "--trials", "8", "--t-max", str((2**23 - 1) / 8), "--dt", "0.125"],
            ["dephase", "--sigma2", "0", "--horizon", str(2**22 / 8), "--dt", "0.125"],
            ["dephase", "--trials", "1000", "--horizon", str(2**20 / 8), "--dt", "0.125"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_ensemble_at_the_value_budget_is_still_accepted(self, argv):
        args = cli.build_parser().parse_args(argv)
        assert cli._COMMANDS[argv[0]].size(args) <= cli._MAX_VALUES
        cli._check(args, cli._COMMANDS[argv[0]])

    @pytest.mark.parametrize(
        "argv, table",
        [
            (["rabi", "--steps", "200000"], 3 * 200000),
            (["ramsey", "--steps", "200000"], 2 * 200000),
            (["washboard", "--steps", "200000"], 2 * 200000),
            (["fluxwell", "--steps", "200000"], 2 * 200000),
            (["squid", "--steps", "20000"], 3 * 20000),
            # 3000 steps and 3001 rows: a table of every step
            (["tunnel-ode", "--steps", "3000", "--max-rows", "3001"], 6 * 3001),
        ],
        ids=["rabi", "ramsey", "washboard", "fluxwell", "squid", "tunnel-ode"],
    )
    def test_curve_allocates_its_table_and_no_array_over_its_size_term(
        self, tmp_path, argv, table
    ):
        size = cli._COMMANDS[argv[0]].size(cli.build_parser().parse_args(argv))
        code, largest = largest_allocation(tmp_path, argv)
        assert code == 0
        assert 8 * table <= largest <= 8 * size


class TestNoThreadOutlivesARun:
    """The ensembles' fill-ahead thread is joined before `run_command` returns."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["dephase", "--trials", "2000"], 0),
            (["decay", "--trials", "2000", "--steps", "41"], 0),
            (["dephase", "--trials", "1000000000000"], 2),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else str(value),
    )
    def test_ensemble_run(self, tmp_path, argv, expected):
        before = threading.active_count()
        assert run(tmp_path, *argv)[0] == expected
        assert threading.active_count() == before

    def test_failing_fill_exits_3(self, tmp_path, monkeypatch, capsys):
        class Failing:
            def __init__(self, bit_generator):
                pass

            def standard_normal(self, out):
                raise FloatingPointError("overflow in fill")

        monkeypatch.setattr(np.random, "Generator", Failing)
        before = threading.active_count()
        assert run(tmp_path, "dephase", "--trials", "2000")[0] == 3
        assert threading.active_count() == before
        assert capsys.readouterr().err == "error: FloatingPointError: overflow in fill\n"

    def test_exception_in_a_trajectory_loop(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("cumsum failed")

        monkeypatch.setattr(np, "cumsum", broken)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="cumsum failed"):
            run(tmp_path, "dephase", "--trials", "2000")
        assert threading.active_count() == before


class TestWriteTable:
    def test_missing_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "out.csv"
        assert run_command(["bell", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and err.count("\n") == 1

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()  # os.replace onto a directory fails after the temp file exists
        assert run_command(["bell", "--out", str(target)]) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert not any(target.iterdir())

    def test_unknown_format_raises_before_any_temp_file(self, tmp_path):
        table = cli.OutputTable("bell", {}, 0, ["a"], np.array([[1.0]]))
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            cli.write_table(table, str(tmp_path / "out.xml"), "xml")
        assert not any(tmp_path.iterdir())

    def test_successful_write_leaves_only_the_table_with_umask_mode(self, tmp_path):
        out = tmp_path / "bell.csv"
        assert run_command(["bell", "--out", str(out)]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["bell.csv"]
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask


def reference_text(table, fmt):
    """What ``write_table`` must write: every cell formatted on its own."""
    def cell(v):
        return f"{v:.12g}" if isinstance(v, float) else str(v)

    def json_value(v):
        return float(f"{v:.12g}") if isinstance(v, float) else v

    rows = table.rows.tolist()
    if fmt == "csv":
        lines = [f"# command={table.command}"]
        lines += [f"# {k}={cell(v)}" for k, v in table.params.items()]
        lines += [f"# seed={table.seed}", f"# version={cqed.__version__}"]
        lines += [f"# {k}={cell(v)}" for k, v in table.extra_metadata.items()]
        lines += [",".join(table.columns)] + [",".join(map(cell, row)) for row in rows]
        return "".join(line + "\n" for line in lines)
    doc = {
        "command": table.command,
        "params": {k: json_value(v) for k, v in table.params.items()},
        "seed": table.seed,
        "version": cqed.__version__,
        "metadata": {k: json_value(v) for k, v in table.extra_metadata.items()},
        "columns": table.columns,
        "rows": [[json_value(v) for v in row] for row in rows],
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def float_table(rows, columns=None):
    rows = np.asarray(rows, dtype=np.float64)
    columns = columns or [f"c{k}" for k in range(rows.shape[1])]
    return cli.OutputTable(
        "probe", {"x": 0.1, "n": 3, "label": "a\"b\u00e9"}, 5, columns, rows,
        extra_metadata={"fit": np.float64(1e-20), "note": "m"},
    )


#: Cells whose %.12g text differs from json.dumps' float text in some way.
EDGE_FLOATS = [
    0.0, -0.0, 1.0, -3.0, 100.0, 123456789012.0, 1e-5, 1e11, 1e12, 1.5e13,
    9.99999999999e15, 1e16, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    np.nan, np.inf, -np.inf, 0.1, 1 / 3, -2.5e-17, 0.000123456789012345,
]


class TestWriterMatchesPerCellReference:
    @pytest.fixture(params=["csv", "json"])
    def fmt(self, request):
        return request.param

    def check(self, tmp_path, table, fmt):
        out = tmp_path / f"t.{fmt}"
        cli.write_table(table, str(out), fmt)
        assert out.read_bytes() == reference_text(table, fmt).encode("utf-8")

    @pytest.mark.parametrize(
        "nrows", [0, 1, cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1, 2 * cli._BLOCK_ROWS + 5]
    )
    def test_block_boundaries(self, tmp_path, fmt, nrows):
        rows = np.linspace(-2.0, 7.0, 3 * nrows).reshape(nrows, 3) ** 3
        self.check(tmp_path, float_table(rows, ["t", "a", "b"]), fmt)

    def test_empty_object_rows(self, tmp_path, fmt):
        table = cli.OutputTable("probe", {}, 0, ["a", "b"], np.empty((0, 2), dtype=object))
        self.check(tmp_path, table, fmt)

    def test_bell_like_mixed_columns(self, tmp_path, fmt):
        rows = np.array([[a, b, 0.25 * k] for k, (a, b) in enumerate(
            [("0", "plus"), ("minus_i", "1"), ("plus_i", "minus")])], dtype=object)
        table = cli.OutputTable("bell", {"state": "phi+"}, 0, ["alice", "bob", "p"], rows)
        self.check(tmp_path, table, fmt)

    @pytest.mark.parametrize("value", EDGE_FLOATS, ids=repr)
    def test_edge_cells(self, tmp_path, fmt, value):
        self.check(tmp_path, float_table([[value, -value]]), fmt)

    def test_all_edge_cells_in_one_block(self, tmp_path, fmt):
        column = np.array(EDGE_FLOATS)
        self.check(tmp_path, float_table(np.column_stack([column, column[::-1]])), fmt)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(), max_size=60), st.integers(1, 4))
    def test_arbitrary_floats(self, values, width):
        values = values[: len(values) // width * width]
        table = float_table(np.reshape(values, (-1, width)))
        with tempfile.TemporaryDirectory() as tmp:
            for fmt in ("csv", "json"):
                self.check(Path(tmp), table, fmt)


#: Cells that keep a block off the one-pass JSON path: integers and zeros,
#: exponent forms, values whose %.12g text is an integer, and non-finite ones.
ODD_CELLS = [0.0, -0.0, 3.0, -7.0, 1e-05, -2.5e-17, 1.5e12, 123456789012.4, 0.99999999999995,
             -2.99999999999996, np.inf, -np.inf, np.nan]


class TestOnePassJsonBlocks:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 2 * cli._BLOCK_ROWS + 40), st.integers(1, 3), st.integers(0, 2**32 - 1),
        st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(ODD_CELLS)), max_size=6),
    )
    def test_matches_the_per_cell_text(self, nrows, width, seed, odd):
        values = np.random.default_rng(seed).uniform(-50.0, 50.0, nrows * width)
        for where, value in odd:
            values[where % values.size] = value
        table = float_table(values.reshape(nrows, width))
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "t.json"
            cli.write_table(table, str(out), "json")
            assert out.read_bytes() == reference_text(table, "json").encode("utf-8")

    @pytest.mark.parametrize(
        "cell, per_cell",
        [
            (None, [1]),  # phi = 0 makes u = -1 in the second block only
            (0.99999999999995, [0, 1]),  # prints as 1: passes the pre-check, fails the text test
            (2.5e-07, [0, 1]),  # an exponent form
        ],
    )
    def test_only_blocks_with_odd_cells_go_cell_by_cell(self, monkeypatch, cell, per_cell):
        phis = np.linspace(-0.25, 0.75, 4097)
        rows = np.column_stack([phis, -0.5 * phis - np.cos(phis)])
        if cell is not None:
            rows[5, 1] = cell
        firsts = []
        real = cli._json_cells

        def spy(values, fmt):
            firsts.append(values[0])
            return real(values, fmt)

        monkeypatch.setattr(cli, "_json_cells", spy)
        cli._write_json_rows(rows, io.StringIO())
        # one call per column of each block taken cell by cell, phi's first
        assert firsts[::2] == [phis[cli._BLOCK_ROWS * k] for k in per_cell]


class TestModuleEntryPoint:
    def test_python_m_cqed_writes_the_table(self, tmp_path):
        out = tmp_path / "bell.csv"
        env = dict(os.environ, PYTHONPATH=str(Path(cqed.__file__).parent.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "cqed", "bell", "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "bell: wrote" in proc.stdout
        _, header, rows = read_csv(out)
        assert header == ["alice", "bob", "probability"] and len(rows) == 36


class TestAllCommandsRun:
    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--ng-steps", "11"],
            ["rabi", "--steps", "11"],
            ["ramsey", "--steps", "11"],
            ["coherent", "--steps", "5", "--dim", "40"],
            ["washboard", "--steps", "21"],
            ["squid", "--steps", "11"],
            ["fluxwell", "--steps", "101"],
            ["jc", "--steps", "11", "--nmax", "2"],  # the smallest nmax
            ["decay", "--steps", "11", "--trials", "100"],
            ["dephase", "--trials", "1000", "--horizon", "4"],
            ["bell"],
            ["transmon", "--ratios", "1,5"],
            ["tunnel-ode", "--steps", "500"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_command_writes_csv(self, tmp_path, argv):
        code, out = run(tmp_path, *argv)
        assert code == 0
        meta, header, rows = read_csv(out)
        assert meta["command"] == argv[0]
        assert "version" in meta and "seed" in meta
        assert header and rows
        assert all(len(r) == len(header) for r in rows)


class TestPhysicsThroughCli:
    @pytest.mark.parametrize("steps", [1, 2, 601])
    @pytest.mark.parametrize("dim, alpha", [(12, 0.1 + 0.1j), (48, 2.1 - 1.7j), (96, 2.953 + 0.3j),
                                            (130, 4.5 + 0.3j)])
    def test_coherent_fidelity_column_matches_fidelity_per_row(self, dim, alpha, steps):
        argv = ["coherent", "--dim", str(dim), f"--alpha-re={alpha.real}",
                f"--alpha-im={alpha.imag}", "--omega0=-1.3", "--steps", str(steps)]
        args = cli.build_parser().parse_args(argv)
        columns, rows, _ = cli._run_coherent(args)
        times = np.linspace(0.0, args.t_max, steps)
        states = cli.coherent_evolution(alpha, -1.3, times, dim)
        per_row = [abs(np.vdot(a, b)) ** 2 for a, b in zip(states["analytic"], states["numeric"])]
        assert np.array_equal(rows[:, columns.index("fidelity")], per_row)

    def test_default_fluxwell_prints_mirror_minima(self, tmp_path):
        # phi_ext = 1/2 makes the well even, so its two minima are mirror images
        code, out = run(tmp_path, "fluxwell")
        assert code == 0
        meta, _, _ = read_csv(out)
        positions = [meta[f"minimum_{k}"].split(":")[0] for k in range(2)]
        assert positions == ["-0.442701435684", "0.442701435684"]
        assert "minimum_2" not in meta

    def test_fluxwell_slope_overflow_only_steers_the_search(self, tmp_path):
        # 2 pi E_J overflows to inf; bisection still finds the wells at
        # phi_ext + n that the cosine term sets
        code, out = run(tmp_path, "fluxwell", "--ej=1e308")
        assert code == 0
        meta, _, _ = read_csv(out)
        assert [meta["minimum_0"], meta["minimum_1"]] == ["-0.5:-1e+308", "0.5:-1e+308"]

    def test_squid_switches_off_at_half_quantum(self, tmp_path):
        code, out = run(
            tmp_path, "squid", "--phi-min", "0", "--phi-max", "0.5", "--steps", "3",
        )
        assert code == 0
        _, header, rows = read_csv(out)
        crit = [float(r[1]) for r in rows]
        assert abs(crit[0] - 2.0) < 1e-12
        assert abs(crit[-1]) < 1e-12

    def test_washboard_metadata_minimum(self, tmp_path):
        code, out = run(tmp_path, "washboard", "--bias", "0.5", "--steps", "11")
        assert code == 0
        meta, _, _ = read_csv(out)
        assert abs(float(meta["first_minimum"]) - np.arcsin(0.5)) < 1e-9

    @pytest.mark.parametrize("bias", [0.90649, 0.93127, 0.93936, 0.94226])
    def test_washboard_near_critical_tilt_exits_0(self, tmp_path, bias):
        code, out = run(tmp_path, "washboard", "--bias", str(bias), "--steps", "11")
        assert code == 0
        meta, _, _ = read_csv(out)
        assert meta["first_minimum"] == f"{float(np.arcsin(bias)):.12g}"

    def test_washboard_runs_no_search(self, tmp_path, monkeypatch):
        def search(*args, **kwargs):
            raise AssertionError("a Newton search ran")

        monkeypatch.setattr(junction, "_newton", search)
        code, _ = run(tmp_path, "washboard", "--bias", "0.5", "--steps", "11")
        assert code == 0

    def test_dephase_noiseless_reports_no_t2(self, tmp_path):
        code, out = run(tmp_path, "dephase", "--sigma2", "0", "--horizon", "4")
        assert code == 0
        meta, _, rows = read_csv(out)
        assert "fitted_t2" not in meta
        t = np.array([float(r[0]) for r in rows])
        p = np.array([float(r[1]) for r in rows])
        assert np.abs(p - 0.5 * (1 + np.cos(5.0 * t))).max() < 1e-12

    def test_transmon_dispersion_shrinks(self, tmp_path):
        code, out = run(tmp_path, "transmon", "--ratios", "1,10")
        assert code == 0
        _, _, rows = read_csv(out)
        assert float(rows[1][1]) < float(rows[0][1])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_transmon_flags_roundoff_dispersion(self, tmp_path, fmt):
        # ratio 50 disperses by about 1.3e-13 and ratio 1e6 by exactly 0:
        # both are printed, as numbers, and flagged as below the floor
        code, out = run(tmp_path, "transmon", "--ratios", "20,50,1e6", "--format", fmt)
        assert code == 0
        if fmt == "csv":
            _, header, rows = read_csv(out)
        else:
            doc = json.loads(out.read_text())
            header, rows = doc["columns"], doc["rows"]
        table = {name: [float(row[k]) for row in rows] for k, name in enumerate(header)}
        assert header == ["ej_over_ec", "dispersion", "dispersion_floor", "below_floor",
                          "koch_asymptotic", "min_gap", "max_gap"]
        assert table["below_floor"] == [0.0, 1.0, 1.0]
        assert 0 < table["dispersion"][1] < table["dispersion_floor"][1]
        assert table["dispersion"][2] == 0.0
        if fmt == "csv":
            assert [row[3] for row in rows] == ["0", "1", "1"]

    @pytest.mark.parametrize("steps,max_rows", [(1000, 51), (1000, 7), (10, 2), (5, 501)])
    def test_tunnel_ode_rows_within_max_rows(self, tmp_path, steps, max_rows):
        code, out = run(tmp_path, "tunnel-ode", "--steps", str(steps),
                        "--max-rows", str(max_rows))
        assert code == 0
        _, _, rows = read_csv(out)
        assert 2 <= len(rows) <= max_rows
        assert float(rows[0][0]) == 0.0

    def test_tunnel_ode_current_matches_relation(self, tmp_path):
        code, out = run(tmp_path, "tunnel-ode", "--steps", "1000")
        assert code == 0
        _, header, rows = read_csv(out)
        i_idx = header.index("current")
        ref_idx = header.index("i0_sin_delta")
        for r in rows:
            assert abs(float(r[i_idx]) - float(r[ref_idx])) < 1e-6 * abs(float(r[ref_idx])) + 1e-15
