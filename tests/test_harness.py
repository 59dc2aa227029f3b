import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgdmlab import cli, concentration, problems, stats
from sgdmlab._csv import write_csv
from sgdmlab.cli import (ConfigError, _check, default_quadratic, load_config, main,
                         write_verdict)
from sgdmlab.lyapunov import DescentReport
from sgdmlab.optimizers import StepSchedule, run_ensemble, schedule_eval
from sgdmlab.problems import NoiseModel, logreg_new, synthetic_blobs
from sgdmlab.seeding import rng_for

from test_continuous import count_ode_calls
from reference import discrete_energy, first_nonfinite_step, reference_record

SRC = Path(__file__).resolve().parents[1] / "src"


def strict_json(path):
    """Parse a file as strict JSON: NaN and Infinity are errors."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(path.read_text(), parse_constant=reject)


class TestRngFor:
    def test_identical_inputs_identical_streams(self):
        a = rng_for(123, 7).standard_normal(5)
        b = rng_for(123, 7).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_index_collision_scan(self):
        states = {rng_for(42, i).bit_generator.state["state"]["state"] for i in range(10_000)}
        assert len(states) == 10_000

    def test_master_collision_scan_at_index_zero(self):
        states = {rng_for(s, 0).bit_generator.state["state"]["state"] for s in range(10_000)}
        assert len(states) == 10_000


class TestConfig:
    def test_defaults_resolve(self):
        cfg = load_config("run", None, {})
        assert cfg["problem"] == "quadratic"
        assert cfg["steps"] == 1000

    def test_file_sections_and_flag_precedence(self, tmp_path):
        path = tmp_path / "lab.ini"
        path.write_text(
            "[common]\nsteps = 50\nseed = 3\n\n[run]\nsteps = 80\n"
        )
        cfg = load_config("run", str(path), {"seed": 9})
        assert cfg["steps"] == 80  # subcommand section beats [common]
        assert cfg["seed"] == 9  # flag beats file
        cfg2 = load_config("smoothness", str(path), {})
        assert cfg2["steps"] == 50

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "lab.ini"
        path.write_text("[common]\nstepz = 50\n")
        with pytest.raises(ConfigError, match="stepz"):
            load_config("run", str(path), {})

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError, match="beta"):
            load_config("verify-anytime", None, {"beta": 1.5})
        with pytest.raises(ConfigError):
            load_config("run", None, {"steps": 0})
        with pytest.raises(ConfigError, match="invalid"):
            load_config("run", None, {"steps": "many"})

    def test_missing_config_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("run", "/nonexistent/lab.ini", {})


def run_cli(args):
    return main(args)


class TestCliSubcommands:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_config_error_exits_2(self, tmp_path, capsys):
        code = main(["verify-anytime", "--beta", "2.0", "--out", str(tmp_path)])
        assert code == 2
        assert "beta" in capsys.readouterr().err

    def test_consecutive_invocations_resolve_independently(self, tmp_path):
        """The parser is built once per process; a flag of one invocation
        leaves nothing behind for the next."""
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--out", str(a), "--steps", "3", "--runs", "2",
                     "--seed", "9", "--beta", "0.2"]) == 0
        assert main(["constants", "--out", str(b), "--dt", "0.01"]) == 0
        first = json.loads((a / "config_resolved.json").read_text())
        second = json.loads((b / "config_resolved.json").read_text())
        assert (first["subcommand"], first["steps"], first["runs"], first["seed"],
                first["beta"], first["dt"]) == ("run", 3, 2, 9, 0.2, 0.001)
        assert (second["subcommand"], second["steps"], second["runs"], second["seed"],
                second["beta"], second["dt"]) == ("constants", 1000, 1, 0, 0.05, 0.01)

    @pytest.mark.parametrize("sub", list(cli._HANDLERS))
    def test_every_subcommand_runs_at_its_defaults(self, tmp_path, sub):
        out = tmp_path / "o"
        assert main([sub, "--out", str(out)]) in (0, 1)
        verdict = strict_json(out / "verdict.json")
        assert verdict["subcommand"] == sub and verdict["checks"]

    def test_run_single_trajectory_one_row(self, tmp_path):
        out = tmp_path / "o"
        code = main(["run", "--out", str(out), "--steps", "1", "--runs", "1"])
        assert code == 0
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        assert len(lines) == 2  # header + one step
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["subcommand"] == "run"
        assert verdict["passed"] is True
        assert all({"name", "passed", "value", "threshold"} <= set(c) for c in verdict["checks"])

    def test_run_ensemble_csv(self, tmp_path):
        out = tmp_path / "o"
        assert main(["run", "--out", str(out), "--steps", "20", "--runs", "3"]) == 0
        header = (out / "ensemble.csv").read_text().splitlines()[0]
        assert header == "k,mean,stderr,q10,q50,q90"

    def test_verify_descent_default_config(self, tmp_path):
        out = tmp_path / "o"
        code = main(["verify-descent", "--out", str(out), "--steps", "200",
                     "--runs", "3"])
        assert code == 0
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["checks"][0]["name"] == "max_descent_residual"
        assert verdict["checks"][0]["value"] <= 1e-10

    @pytest.mark.parametrize("residual,passed", [(5e-10, True), (2e-9, False)])
    def test_verify_descent_tolerance_scales_with_energy(self, tmp_path, monkeypatch,
                                                         residual, passed):
        """The verdict is the report's: at |E(k)| = 10 the tolerance 1e-10
        allows residuals up to 1.1e-9, as in DescentReport.passed."""
        def stub(stream, blocks, tol):
            for _ in blocks:  # run 0's record is folded as the check reads
                pass
            rep = DescentReport(tol)
            rep.add(np.array([[residual]]), np.array([[10.0]]))
            return rep

        monkeypatch.setattr(cli, "check_descent", stub)
        out = tmp_path / "o"
        assert main(["verify-descent", "--out", str(out), "--steps", "5"]) == (0 if passed else 1)
        check = strict_json(out / "verdict.json")["checks"][0]
        assert (check["passed"], check["n_violations"]) == (passed, 0 if passed else 1)
        assert (check["value"], check["threshold"]) == (residual, 1e-10)

    def test_verify_expectation(self, tmp_path):
        out = tmp_path / "o"
        assert main(["verify-expectation", "--out", str(out), "--steps", "300",
                     "--runs", "30"]) == 0
        (check,) = strict_json(out / "verdict.json")["checks"]
        assert check["first_failure_k"] is None
        # argmax_k: the checkpoint of the largest excess, recomputed from ensemble.csv
        table = np.loadtxt(out / "ensemble.csv", delimiter=",", skiprows=1)
        ks = stats.log_spaced_checkpoints(300)
        bound = stats.expectation_rate_bound(default_quadratic(10, 0), 10.0, np.ones(10), ks)
        units = (table[ks, 1] - bound) / table[ks, 2]
        assert check["argmax_k"] == ks[np.argmax(units)]
        assert check["value"] == pytest.approx(units.max(), rel=1e-12)

    def test_verify_anytime(self, tmp_path):
        out = tmp_path / "o"
        assert main(["verify-anytime", "--out", str(out), "--steps", "300",
                     "--runs", "20"]) == 0
        (check,) = strict_json(out / "verdict.json")["checks"]
        assert check["name"] == "fraction_violating"
        assert check["n_violating"] == 0 and check["min_margin"] > 0.0
        assert check["run"] is None and check["k"] is None

    def test_ode_compare(self, tmp_path):
        out = tmp_path / "o"
        code = main(["ode-compare", "--out", str(out), "--runs", "20",
                     "--t", "3.0", "--dt", "0.002"])
        assert code == 0
        assert (out / "ode.csv").exists()
        assert (out / "l2_table.csv").read_text().splitlines()[0] == \
            "eta,mean_sq_dist,stderr,runs"

    @pytest.mark.parametrize("flags,sizes", [([], [4]), (["--p", "2", "--alpha", "1"], [1, 3]),
                                             (["--alpha", "3"], [])])
    def test_ode_compare_rk4_passes(self, tmp_path, monkeypatch, flags, sizes):
        """At the defaults the checks' start and the three L2 starts share one
        pass; another (p, alpha) needs a pass of its own; a pair outside the
        rate hypotheses is rejected before any pass."""
        calls = count_ode_calls(monkeypatch)
        code = main(["ode-compare", "--out", str(tmp_path / "o")] + flags)
        assert code == (2 if flags[-1:] == ["3"] else 0)
        assert sorted(calls) == sizes

    def test_ode_compare_rate_check_locator(self, tmp_path):
        out = tmp_path / "o"
        assert main(["ode-compare", "--out", str(out), "--runs", "5",
                     "--t", "2.0", "--dt", "0.01", "--eta-grid", "0.1,0.05"]) == 0
        energy, rate = json.loads((out / "verdict.json").read_text())["checks"][:2]
        assert rate["first_violation_t"] is None and rate["value"] is None
        # the keys locate the worst grid point of ode.csv: (p, alpha) = (1, 3/2)
        t, f_gap, e = np.loadtxt(out / "ode.csv", delimiter=",", skiprows=1).T
        ratio = f_gap / (e[0] / (4.0 * np.sqrt(t)))
        assert rate["argmax_t"] == t[np.argmax(ratio)]
        assert rate["max_ratio"] == pytest.approx(ratio.max(), rel=1e-12)
        assert 0.0 < rate["max_ratio"] <= 1.0
        assert energy["argmax_t"] == t[1 + np.argmax(np.diff(e))]

    @staticmethod
    def _l2_check(argv, tmp_path):
        out = tmp_path / "o"
        code = main(["ode-compare", "--out", str(out), "--runs", "20", "--t", "2.0",
                     "--dt", "0.01"] + argv)
        check = next(c for c in strict_json(out / "verdict.json")["checks"]
                     if c["name"] == "l2_distance_decreasing")
        table = np.loadtxt(out / "l2_table.csv", delimiter=",", skiprows=1, ndmin=2)
        return code, check, table

    def test_ode_compare_l2_observed_order(self, tmp_path):
        code, check, table = self._l2_check(["--eta-grid", "0.1,0.05,0.02"], tmp_path)
        assert code == 0 and check["first_failing_pair"] is None
        # closed-form least squares of log mean_sq_dist on log eta
        x, y = np.log(table[:, 0]), np.log(table[:, 1])
        n = len(x)
        sxx = n * np.sum(x * x) - np.sum(x) ** 2
        slope = (n * np.sum(x * y) - np.sum(x) * np.sum(y)) / sxx
        resid = y - (np.sum(y) - slope * np.sum(x)) / n - slope * x
        stderr = math.sqrt(np.sum(resid**2) / (n - 2) * n / sxx)
        assert check["observed_order"] == pytest.approx(slope, rel=1e-9)
        assert check["observed_order_stderr"] == pytest.approx(stderr, rel=1e-6)

    def test_ode_compare_l2_first_failing_pair(self, tmp_path):
        # the distance grows from eta = 0.02 to 0.05, several standard errors apart
        code, check, table = self._l2_check(["--eta-grid", "0.1,0.02,0.05"], tmp_path)
        assert code == 1 and check["passed"] is False
        assert check["first_failing_pair"] == [0.02, 0.05]
        assert table[2, 1] > table[1, 1] + 2.0 * math.hypot(table[1, 2], table[2, 2])
        assert check["observed_order_stderr"] is not None

    def test_ode_compare_l2_order_needs_two_etas(self, tmp_path):
        code, check, _ = self._l2_check(["--eta-grid", "0.05"], tmp_path)
        assert code == 0 and check["first_failing_pair"] is None
        assert check["observed_order"] is None and check["observed_order_stderr"] is None

    def test_concentration(self, tmp_path):
        out = tmp_path / "o"
        assert main(["concentration", "--out", str(out)]) == 0
        verdict = json.loads((out / "verdict.json").read_text())
        names = [c["name"] for c in verdict["checks"]]
        assert any(n.startswith("mgf_lambda") for n in names)
        assert any(n.startswith("tail_omega") for n in names)

    def test_concentration_thresholds_are_the_rows_thresholds(self, tmp_path):
        """Each verdict entry carries the threshold its lemma row decided
        ``passed`` with, and passes exactly when its value is within it."""
        ini = tmp_path / "c.ini"
        ini.write_text("[common]\nmgf_samples = 3000\ntail_samples = 3000\n"
                       "lambda_grid = 0.25,1.0,2.5\nomega_grid = 0.1,1.0,4.0\n")
        out = tmp_path / "o"
        main(["concentration", "--config", str(ini), "--out", str(out), "--seed", "5"])
        checks = strict_json(out / "verdict.json")["checks"]
        rows = (concentration.mgf_lemma_check([0.25, 1.0, 2.5], 3000, 5)
                + concentration.tail_lemma_check([0.1, 1.0, 4.0], 3000, 5))
        assert len(checks) == len(rows) == 6
        for check, row in zip(checks, rows):
            assert check["threshold"] == row["threshold"]
            assert (check["stderr"], check["n"]) == (row["stderr"], 3000)
            assert row["passed"] is (row.get("mean", row.get("fraction")) <= row["threshold"])
            assert check["passed"] is row["passed"]

    def test_smoothness(self, tmp_path):
        out = tmp_path / "o"
        assert main(["smoothness", "--out", str(out), "--steps", "400",
                     "--runs", "6"]) == 0
        (check,) = strict_json(out / "verdict.json")["checks"]
        obj = default_quadratic(10, 0)
        rep = stats.smoothness_comparison(
            obj, NoiseModel.gaussian(10, 1.0), 400, 6, 0,
            StepSchedule(kind="anytime_log2", L=obj.lipschitz, epsilon=0.5))
        assert check["noise_multiplier_ratio"] == rep["noise_multiplier_ratio"]
        assert check["argmax_run"] == rep["argmax_run_sgdm"]

    def test_constants(self, tmp_path):
        out = tmp_path / "o"
        assert main(["constants", "--out", str(out)]) == 0
        verdict = json.loads((out / "verdict.json").read_text())
        widths = {c["name"]: c["value"] for c in verdict["checks"]}
        assert widths["gamma1_width"] <= 1e-4
        assert widths["gamma2_width"] <= 1e-4

    def test_resolved_config_echoed(self, tmp_path):
        out = tmp_path / "o"
        main(["run", "--out", str(out), "--steps", "5"])
        cfg = json.loads((out / "config_resolved.json").read_text())
        assert cfg["steps"] == 5
        assert cfg["subcommand"] == "run"


class TestCsvWriter:
    def test_bytes_equal_savetxt(self, tmp_path):
        cols = np.array([[1.0, np.inf, -0.0],
                         [1e-300, 1e300, -np.inf],
                         [0.1, -2.5, 3.0]])
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        write_csv(ours, cols, "a,b,c")
        np.savetxt(ref, cols, delimiter=",", header="a,b,c", comments="", fmt="%.17g")
        assert ours.read_bytes() == ref.read_bytes()


class TestReproducibility:
    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["run", "--out", str(out), "--steps", "50", "--runs", "4",
                         "--seed", "11"]) == 0
        assert (a / "ensemble.csv").read_bytes() == (b / "ensemble.csv").read_bytes()
        assert (a / "verdict.json").read_bytes() == (b / "verdict.json").read_bytes()

    def test_serial_vs_parallel_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--out", str(a), "--steps", "40", "--runs", "6",
                     "--workers", "1"]) == 0
        assert main(["run", "--out", str(b), "--steps", "40", "--runs", "6",
                     "--workers", "3"]) == 0
        assert (a / "ensemble.csv").read_bytes() == (b / "ensemble.csv").read_bytes()


def assert_one_line_config_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


class TestFailureSemantics:
    def test_expectation_needs_two_runs(self, tmp_path, capsys):
        """The library's rule, reported as every library ValueError is."""
        out = tmp_path / "o"
        assert main(["verify-expectation", "--out", str(out), "--steps", "50",
                     "--runs", "1"]) == 2
        assert capsys.readouterr().err == ("config error: M must be >= 2: a standard error "
                                           "needs at least two runs\n")
        assert not (out / "verdict.json").exists()

    @pytest.mark.parametrize("form", ["flag", "flag=", "ini"])
    @pytest.mark.parametrize("key, value, message", [
        ("steps", "abc", "invalid literal for int() with base 10: 'abc'"),
        ("seed", "1.5", "invalid literal for int() with base 10: '1.5'"),
        ("steps", "1e3", "invalid literal for int() with base 10: '1e3'"),
        ("dt", "x", "could not convert string to float: 'x'"),
    ])
    def test_value_that_does_not_parse_as_its_key_exits_2(self, tmp_path, capsys, form, key,
                                                          value, message):
        """A flag reaches load_config as a string and parses as its key's INI
        value does, so all three forms print the same one line."""
        args = {"flag": [f"--{key}", value], "flag=": [f"--{key}={value}"],
                "ini": ["--config", str(self._ini(tmp_path, f"{key} = {value}"))]}[form]
        out = tmp_path / "o"
        assert main(["run", "--out", str(out)] + args) == 2
        assert capsys.readouterr().err == f"config error: invalid config value: {message}\n"
        assert not (out / "verdict.json").exists()

    @pytest.mark.parametrize("flag", [["--alpha", "3"], ["--eta-grid", "1.0"], ["--eta-grid", ""],
                                      ["--eta-grid", "0"], ["--eta-grid", "-0.1"],
                                      # step counts T/eta and (T - T0)/dt overflow
                                      ["--eta-grid", "5e-324"], ["--dt", "5e-324"],
                                      # 3e8 and 1e9 RK4 steps: over the grid cap
                                      ["--dt", "1e-8"], ["--t", "1e6"],
                                      # 9e-10 RK4 steps: the grid would be T0 alone
                                      ["--dt", "1e10"],
                                      # a warm start from k0 = floor(1 / 2) = 0
                                      ["--eta-grid", "2", "--t0", "1", "--t", "30"]])
    def test_library_value_error_exits_2(self, tmp_path, capsys, flag):
        assert main(["ode-compare", "--out", str(tmp_path / "o"), "--runs", "3"] + flag) == 2
        assert_one_line_config_error(capsys)

    @pytest.mark.parametrize("args", [["run"], ["verify-expectation", "--runs", "2"]])
    def test_steps_over_the_cap_exit_2(self, tmp_path, capsys, args):
        out = tmp_path / "o"
        assert main(args + ["--out", str(out), "--steps", "1000000000"]) == 2
        assert "steps would keep more than" in assert_one_line_config_error(capsys)
        assert not (out / "verdict.json").exists()

    @pytest.mark.parametrize("sub", ["verify-expectation", "smoothness"])
    def test_runs_over_the_cap_exit_2(self, tmp_path, capsys, sub):
        """10^8 runs would keep about 2 * 10^10 values of generators, noise and
        working rows; refused before the first generator is built."""
        out = tmp_path / "o"
        assert main([sub, "--out", str(out), "--runs", "100000000", "--steps", "10"]) == 2
        assert capsys.readouterr().err == ("config error: M=100000000 runs would keep more "
                                           "than 67108864 values\n")
        assert not (out / "verdict.json").exists()

    def test_smoothness_quarter_over_the_cap_exit_2(self, tmp_path, capsys):
        """At dim = 10, 6 000 runs pass the run cap, but the last quarter of
        400 000 steps would keep a (100 002, 6 000) f_gap array, 4.8 GB:
        refused before the first step."""
        out = tmp_path / "o"
        assert main(["smoothness", "--out", str(out), "--runs", "6000",
                     "--steps", "400000"]) == 2
        assert capsys.readouterr().err == ("config error: the last quarter's f_gap, 100002 "
                                           "rows of M=6000 runs, would keep more than "
                                           "67108864 values\n")
        assert not (out / "verdict.json").exists()

    @pytest.mark.parametrize("sub, line, message", [
        ("verify-descent", "algorithm = sgd", "verify-descent applies to the sgdm algorithm only"),
        ("verify-anytime", "noise = none", "verify-anytime requires a stochastic noise model"),
    ])
    def test_subcommand_refuses_a_setting_it_does_not_apply_to(self, tmp_path, capsys, sub,
                                                              line, message):
        out = tmp_path / "o"
        assert main([sub, "--config", str(self._ini(tmp_path, line)), "--out", str(out),
                     "--steps", "5", "--runs", "2"]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (out / "verdict.json").exists()

    def test_ode_step_not_dividing_window_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["ode-compare", "--out", str(out), "--runs", "3",
                     "--t", "1.0105", "--dt", "0.003"]) == 2
        assert_one_line_config_error(capsys)
        assert not (out / "verdict.json").exists()

    def test_verdict_rejects_non_finite_values(self, tmp_path):
        checks = [{"name": "x", "passed": False, "value": float("nan"), "threshold": 1.0}]
        with pytest.raises(ValueError):
            write_verdict(tmp_path, "run", checks)
        assert not (tmp_path / "verdict.json").exists()

    def test_divergence_exits_3_with_one_line_naming_the_step(self, tmp_path):
        ini = tmp_path / "div.ini"
        ini.write_text("[common]\nschedule = constant\nscale = 1e12\nnoise = none\n")
        obj = default_quadratic(10, 0)
        k, runs = first_nonfinite_step(obj, NoiseModel.noiseless(10),
                                       StepSchedule(kind="constant", scale=1e12), 1000, 3, 0)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        for sub in ("run", "verify-descent"):
            out = tmp_path / sub
            proc = subprocess.run(
                [sys.executable, "-m", "sgdmlab.cli", sub, "--config", str(ini),
                 "--steps", "1000", "--runs", "3", "--out", str(out)],
                capture_output=True, text=True, env=env, timeout=120)
            # one line: no traceback and no NumPy overflow warning
            assert proc.returncode == 3, proc.stderr
            assert proc.stderr == (f"diverged: iterate x_{k + 1} became non-finite "
                                   f"at step k={k} in run(s) {runs}\n")
            assert not (out / "verdict.json").exists()

    @pytest.mark.parametrize("sub", ["verify-anytime", "constants"])
    @pytest.mark.parametrize("lines", [("scale = 1e12", "noise_var = 1e4"),
                                       ("noise_var = 1e200",),
                                       ("noise = bounded", "noise_var = 1e300"),
                                       ("scale = 1e12", "noise_var = 1e300")])
    def test_overflowing_gamma2_is_a_config_error(self, tmp_path, capsys, sub, lines):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([sub, "--config", str(self._ini(tmp_path, *lines)),
                         "--out", str(tmp_path / "o"), "--steps", "5", "--runs", "2"])
        assert code == 2 and caught == []
        assert "gamma2" in assert_one_line_config_error(capsys)

    def test_smoothness_with_too_few_steps_is_a_config_error(self, tmp_path, capsys):
        assert main(["smoothness", "--out", str(tmp_path / "o"), "--steps", "4",
                     "--runs", "2"]) == 2
        assert_one_line_config_error(capsys)

    def test_noiseless_smoothness_is_a_config_error(self, tmp_path, capsys):
        ini = self._ini(tmp_path, "noise = none")
        assert main(["smoothness", "--config", str(ini), "--out", str(tmp_path / "o"),
                     "--steps", "40", "--runs", "2"]) == 2
        assert "stochastic noise model" in assert_one_line_config_error(capsys)

    def test_unreachable_logistic_optimum_is_a_config_error(self, tmp_path, capsys):
        """Separable data: the loss has no minimizer, and a Newton iterate
        that gives every sample a negative signed margin proves it."""
        four, two = tmp_path / "four.csv", tmp_path / "two.csv"
        four.write_text("y,x1,x2\n1,1,0\n1,2,1\n0,-1,0\n0,-2,-1\n")
        two.write_text("y,x1\n1,1\n0,-1\n")
        out = tmp_path / "o"
        for sub, lines in [("run", (f"problem = csv:{four}",)),
                           ("run", (f"problem = csv:{two}",)),
                           ("smoothness", ("problem = logreg", "n_samples = 22", "dim = 2"))]:
            assert main([sub, "--out", str(out), "--steps", "40", "--runs", "2",
                         "--config", str(self._ini(tmp_path, *lines))]) == 2
            err = assert_one_line_config_error(capsys)
            assert err.startswith("config error: the dataset is separable")
            assert not (out / "verdict.json").exists()

    def test_quasi_separable_dataset_is_refused_at_the_newton_step_cap(self, tmp_path,
                                                                      capsys):
        """Quasi-complete separation: no b makes every margin negative, yet the
        loss has no minimizer; its gradient still tends to 0 as |b| grows."""
        data = tmp_path / "quasi.csv"
        data.write_text("y,x1,x2\n1,1,0\n0,-1,0\n1,0,1\n0,0,1\n1,0,-1\n0,0,0.5\n")
        out = tmp_path / "o"
        assert main(["run", "--out", str(out), "--steps", "5",
                     "--config", str(self._ini(tmp_path, f"problem = csv:{data}"))]) == 2
        err = assert_one_line_config_error(capsys)
        assert f"within {problems._NEWTON_STEPS} Newton steps" in err
        assert not (out / "verdict.json").exists()

    @staticmethod
    def _ini(tmp_path, *lines):
        ini = tmp_path / "c.ini"
        ini.write_text("\n".join(["[common]", *lines]) + "\n")
        return ini

    @pytest.mark.parametrize("sub, lines, name, null_value, n_checks", [
        *(pytest.param("concentration", (f"lambda_grid = {lam}", "omega_grid = 1.0",
                                         "mgf_samples = 1000", "tail_samples = 1000"),
                       f"mgf_lambda_{lam}", lam != "40", 2, id=lam) for lam in ("40", "1e+200")),
        pytest.param("smoothness", ("noise_var = 1e200",), "sgdm_median_below_sgd", True, 1,
                     id="smoothness")])
    def test_overflowing_mgf_ceiling_prints_no_warning(self, tmp_path, sub, lines, name,
                                                       null_value, n_checks):
        # exp(0.75 * 40^2) overflows, and so does 1e200^2, in the MGF ceiling
        # and in the variance of smoothness's increments: the first check
        # fails with a null threshold, and nothing but the verdict lines is printed
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "sgdmlab.cli", sub, "--config",
             str(self._ini(tmp_path, *lines)), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr == ""
        first = strict_json(out / "verdict.json")["checks"][0]
        assert first["name"] == name
        assert first["threshold"] is None and first["passed"] is False
        assert (first["value"] is None) == null_value
        assert proc.stdout.splitlines()[0] == (f"[FAIL] {name}: "
                                               f"value={first['value']} threshold=None")
        assert len(proc.stdout.splitlines()) == n_checks

    def test_non_finite_value_is_written_as_null_and_fails(self, tmp_path):
        checks = [_check("gap", True, float("inf"), None),
                  _check("ratio", True, 1.0, float("nan"))]
        assert write_verdict(tmp_path, "run", checks) is False
        written = {c["name"]: c for c in strict_json(tmp_path / "verdict.json")["checks"]}
        assert written["gap"]["value"] is None and written["gap"]["passed"] is False
        assert written["ratio"]["threshold"] is None and written["ratio"]["passed"] is False

    def test_overflowing_gap_exits_3_with_one_line_naming_the_step(self, tmp_path):
        # plain SGD with a huge gain: x stays finite (about 1e160) while f(x)
        # and the energy E(k) recorded with it overflow
        ini = tmp_path / "sgd.ini"
        ini.write_text("[common]\nalgorithm = sgd\nsgd_scale = 1e6\nnoise = none\ndim = 2\n")
        obj = default_quadratic(2, 0)
        eta = schedule_eval(StepSchedule(kind="anytime_log2", L=obj.lipschitz), np.arange(42))
        xs = [np.ones(2), np.ones(2)]  # x_0 = x_1 .. x_42
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, 42):
                xs.append(xs[k] - 1e6 / math.sqrt(k) * obj.grad(xs[k]))
            # the first k whose gap f(x_k) - f* or energy E(k) is not
            # finite; the gap is named where both are
            for k in range(42):
                f_gap = float(obj.f_gap(xs[k]))
                if not math.isfinite(f_gap):
                    what = f"f(x_{k}) - f*"
                    break
                if not math.isfinite(discrete_energy(xs[k + 1], xs[k], k, eta[k], f_gap,
                                                     obj.xstar)):
                    what = f"energy E({k})"
                    break
        assert k < 41 and np.all(np.isfinite(xs))
        out = tmp_path / "o"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-m", "sgdmlab.cli", "run", "--config", str(ini),
             "--steps", "41", "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120)
        # one line: no traceback and no NumPy overflow warning
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == (f"diverged: {what} became non-finite "
                               f"at step k={k} in run(s) [0]\n")
        assert not (out / "verdict.json").exists()

    def test_nonpositive_dim_is_a_config_error(self, tmp_path, capsys):
        for problem in ("quadratic", "logreg"):
            ini = self._ini(tmp_path, f"problem = {problem}", "dim = 0")
            assert main(["run", "--config", str(ini), "--out", str(tmp_path / "o")]) == 2
            assert_one_line_config_error(capsys)

    def test_unreadable_dataset_is_a_config_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        out = tmp_path / "o"
        ini = self._ini(tmp_path, f"problem = csv:{missing}")
        assert main(["run", "--config", str(ini), "--out", str(out)]) == 2
        assert_one_line_config_error(capsys)
        assert not (out / "verdict.json").exists()

    def test_dataset_without_a_feature_column_is_a_config_error(self, tmp_path, capsys):
        data = tmp_path / "labels.csv"
        data.write_text("y\n0\n1\n0\n1\n")
        out = tmp_path / "o"
        ini = self._ini(tmp_path, f"problem = csv:{data}")
        assert main(["run", "--config", str(ini), "--out", str(out)]) == 2
        assert "no feature column" in assert_one_line_config_error(capsys)
        assert not (out / "verdict.json").exists()

    @pytest.mark.parametrize("rows,message", [
        ("0,nan\n1,2\n", "not finite"),
        ("0,inf\n1,2\n", "not finite"),
        ("0,1e200\n1,-1e200\n", "smoothness constant"),
        ("", "at least one sample"),
    ], ids=["nan", "inf", "overflowing", "header-only"])
    def test_dataset_without_finite_samples_is_a_one_line_config_error(
            self, tmp_path, capsys, monkeypatch, rows, message):
        data = tmp_path / "data.csv"
        data.write_text("y,x1\n" + rows)
        oracle_calls = []  # refused before the first oracle call, and so before Newton's
        monkeypatch.setattr(problems, "_dot", lambda *a: oracle_calls.append(a))
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--config", str(self._ini(tmp_path, f"problem = csv:{data}")),
                         "--steps", "10", "--out", str(out)])
        assert code == 2 and caught == [] and oracle_calls == []
        assert message in assert_one_line_config_error(capsys)
        assert not (out / "verdict.json").exists()

    @pytest.mark.parametrize("key,value", [("mgf_samples", "1"), ("lambda_grid", ""),
                                           ("omega_grid", ""), ("tail_samples", "0")])
    def test_concentration_without_a_check_or_a_spread_is_a_config_error(self, tmp_path,
                                                                         capsys, key, value):
        values = {"mgf_samples": "1000", "tail_samples": "1000", key: value}
        ini = self._ini(tmp_path, *(f"{k} = {v}" for k, v in values.items()))
        out = tmp_path / "o"
        assert main(["concentration", "--config", str(ini), "--out", str(out)]) == 2
        assert_one_line_config_error(capsys)
        assert not (out / "verdict.json").exists()

    @pytest.mark.parametrize("sub", ["constants", "run"])
    def test_an_out_that_is_or_lies_under_a_file_is_a_config_error(self, tmp_path, capsys, sub):
        afile = tmp_path / "a-file"
        afile.write_text("kept\n")
        for out in (afile, afile / "o"):
            assert main([sub, "--out", str(out), "--steps", "5"]) == 2
            assert_one_line_config_error(capsys)
        assert afile.read_text() == "kept\n"

    def test_divergence_in_verify_anytime_joins_the_noise_helper(self, tmp_path, capsys):
        """A stepsize scale of 1e30 diverges within the first noise chunk of
        four; the message is the one the library gave before the ensemble
        was streamed, and no helper thread outlives the call."""
        ini = self._ini(tmp_path, "dim = 3", "scale = 1e30", "noise_var = 1e-290",
                        "k_trunc = 10000")
        assert main(["verify-anytime", "--config", str(ini), "--out", str(tmp_path / "o"),
                     "--steps", "2000", "--runs", "6", "--seed", "2"]) == 3
        assert capsys.readouterr().err == ("diverged: iterate x_26 became non-finite at step "
                                           "k=25 in run(s) [0, 1, 2, 3, 4] and 1 more\n")
        assert not [t for t in threading.enumerate() if t.name == "sgdmlab-noise"]

    @pytest.mark.parametrize("lines,key", [
        (("noise = bounded", "noise_var = -1"), "noise_var"),
        (("noise = bounded", "noise_var = nan"), "noise_var"),
        (("noise = gaussian", "noise_var = inf"), "noise_var"),
        (("scale = nan",), "scale"),
        (("scale = inf",), "scale"),
        (("eta_grid = 0.05,inf",), "eta_grid"),
        (("sgd_scale = 0",), "sgd_scale"),
        (("sgd_scale = -1",), "sgd_scale"),
        # and a string outside its choices
        (("problem = foo",), "problem"),
        (("algorithm = adam",), "algorithm"),
        (("noise = cauchy",), "noise"),
    ])
    def test_invalid_float_value_is_a_one_line_config_error(self, tmp_path, capsys, lines,
                                                            key):
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--config", str(self._ini(tmp_path, *lines)), "--runs", "2",
                         "--steps", "20", "--out", str(out)])
        assert code == 2 and caught == []
        assert assert_one_line_config_error(capsys).startswith(f"config error: {key} must be")
        assert not (out / "verdict.json").exists()

    @pytest.mark.parametrize("rows", [
        # all-zero features: the logistic loss is flat, L = 0 and 1/L^2 is infinite
        "y,x1,x2\n1,0,0\n0,0,0\n1,0,0\n0,0,0\n",
        # features near 1e-155: L is positive and subnormal, and L^2 underflows to 0
        "y,x1\n0,1e-155\n1,3e-155\n0,2e-155\n1,-1e-155\n",
    ], ids=["flat", "subnormal"])
    @pytest.mark.parametrize("sub", ["verify-expectation", "verify-anytime", "run",
                                     "constants"])
    def test_schedule_scaled_by_a_zero_lipschitz_constant_is_a_config_error(
            self, tmp_path, capsys, sub, rows):
        data = tmp_path / "data.csv"
        data.write_text(rows)
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([sub, "--config", str(self._ini(tmp_path, f"problem = csv:{data}")),
                         "--runs", "2", "--steps", "20", "--out", str(out)])
        assert code == 2 and caught == []
        assert "finite positive L" in assert_one_line_config_error(capsys)
        assert not (out / "verdict.json").exists()

    def test_stale_verdict_removed_on_config_error(self, tmp_path):
        out = tmp_path / "o"
        assert main(["run", "--out", str(out), "--steps", "5"]) == 0
        assert main(["ode-compare", "--out", str(out), "--alpha", "3"]) == 2
        assert not (out / "verdict.json").exists()
        assert not (out / "trajectory.csv").exists()


def _descent_ini(tmp_path, problem):
    extra = "n_samples = 200\nproblem_seed = 1\n" if problem == "logreg" else ""
    path = tmp_path / f"{problem}.ini"
    path.write_text(f"[common]\nproblem = {problem}\ndim = 10\n{extra}"
                    "noise = gaussian\nnoise_var = 100\n")
    return str(path)


class TestBatchedDescent:
    """verify-descent runs all runs in one batch; its verdict must equal the
    run-at-a-time reference: the term-by-term energy and bound oracles
    along each run of the reference loop."""

    STEPS, RUNS, SEED = 300, 4, 5

    @pytest.fixture(params=["quadratic", "logreg"])
    def setting(self, request, tmp_path):
        problem = request.param
        if problem == "quadratic":
            obj = default_quadratic(10, 0)
        else:
            obj = logreg_new(*synthetic_blobs(200, 10, 1))
        out = tmp_path / "o"
        argv = ["verify-descent", "--config", _descent_ini(tmp_path, problem),
                "--steps", str(self.STEPS), "--runs", str(self.RUNS),
                "--seed", str(self.SEED), "--out", str(out)]
        assert main(argv) == 0
        sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
        recs = [reference_record(obj, NoiseModel.gaussian(10, 100.0), sched, self.STEPS,
                                 self.SEED, run=i) for i in range(self.RUNS)]
        check = json.loads((out / "verdict.json").read_text())["checks"][0]
        return out, recs, check

    def test_max_residual_matches_per_run_reference(self, setting):
        _, recs, check = setting
        expect = max(rec.residuals.max() for rec in recs)
        assert check["value"] == pytest.approx(expect, rel=1e-9)
        assert check["passed"] is (check["value"] <= check["threshold"])

    def test_locator_points_at_the_maximum(self, setting):
        _, recs, check = setting
        residuals = np.column_stack([rec.residuals for rec in recs])
        k_idx, run = np.unravel_index(np.argmax(residuals), residuals.shape)
        assert (check["run"], check["argmax_k"]) == (run, k_idx + 1)
        assert {"name", "passed", "value", "threshold"} <= set(check)

    def test_trajectory_csv_is_run_zero(self, setting):
        out, recs, _ = setting
        rec = recs[0]
        table = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        expect = np.column_stack([
            np.arange(1, rec.K + 1), rec.f_gap[1:], rec.eta[1:], rec.energy[1:],
            rec.descent_lhs, rec.descent_rhs, rec.grad_norm, rec.noise_norm])
        np.testing.assert_allclose(table, expect, rtol=1e-10)


    def test_memory_does_not_grow_with_the_path(self, tmp_path):
        """K = 10^4 steps of 50 runs in d = 10: recording the whole path
        (x, g and grad, about 12 MB per 1000 steps) peaked at 248 MB; the
        folded check holds the noise buffers, one block and run 0's rows."""
        from sgdmlab.cli import cmd_verify_descent

        cfg = load_config("verify-descent", None,
                          {"steps": 10_000, "runs": 50, "out": str(tmp_path)})
        tracemalloc.start()
        try:
            cmd_verify_descent(cfg, tmp_path)
            peak = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert peak <= 20.0


class TestWorkersHaveNoEffect:
    def test_verify_descent_serial_equals_workers(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        base = ["verify-descent", "--steps", "60", "--runs", "5", "--seed", "4"]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--out", str(b), "--workers", "4"]) == 0
        for name in ("verdict.json", "trajectory.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_workers_still_validated(self, tmp_path):
        assert main(["run", "--out", str(tmp_path), "--workers", "0"]) == 2


class TestAcsaRun:
    @pytest.mark.parametrize("runs", [1, 3])
    def test_acsa_runs_in_process(self, tmp_path, runs):
        ini = tmp_path / "acsa.ini"
        ini.write_text("[common]\nalgorithm = acsa\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(ini), "--out", str(out), "--steps", "30",
                     "--runs", str(runs), "--seed", "2"]) == 0
        obj = default_quadratic(10, 0)
        f_gap, = run_ensemble(obj, NoiseModel.gaussian(10, 1.0),
                              StepSchedule(kind="anytime_log2", L=obj.lipschitz), 30, runs, 2,
                              algorithm="acsa").collect("f_gap")
        checks = json.loads((out / "verdict.json").read_text())["checks"]
        assert [c["name"] for c in checks] == ["final_f_gap_run0"]
        assert checks[0]["value"] == f_gap[-1, 0]
        assert (out / ("trajectory.csv" if runs == 1 else "ensemble.csv")).exists()

    def test_noise_norm_is_the_norm_of_the_noise(self, tmp_path):
        # g_k = grad f(y_k) + xi_k, so noise_norm = ||grad - g|| is ||xi_k||
        ini = tmp_path / "acsa.ini"
        ini.write_text("[common]\nalgorithm = acsa\nnoise_var = 1e-4\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(ini), "--out", str(out), "--steps", "200",
                     "--seed", "2"]) == 0
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        xi = NoiseModel.gaussian(10, 1e-4).sample(rng_for(2, 0), 200)
        np.testing.assert_allclose(rows[:, 7], np.linalg.norm(xi, axis=1), rtol=1e-10)


# every subcommand but the slow sample-heavy ``concentration`` and ``constants``
_QUICK_SUBCOMMANDS = ("run", "verify-descent", "verify-expectation", "verify-anytime",
                      "ode-compare", "smoothness")

# signed zeros, the smallest subnormal, tiny, large and huge magnitudes, and
# negatives, each drawn next to a key's usual values
_EXTREME_FLOATS = (0.0, -0.0, 5e-324, 1e-300, 1e12, 1e300, -1.0, -1e300)


def _floats(*usual):
    return st.sampled_from(usual + _EXTREME_FLOATS)


_INI_VALUES = st.fixed_dictionaries({
    "problem": st.sampled_from(["quadratic", "logreg"]),
    "dim": st.integers(1, 4),
    "n_samples": st.integers(20, 60),
    "algorithm": st.sampled_from(["sgdm", "sgd", "acsa"]),
    "schedule": st.sampled_from(["anytime_log2", "expectation_log2", "epsilon_log",
                                 "sqrt_k", "constant"]),
    "scale": _floats(1e-3, 1.0, 1e3),
    "epsilon": _floats(0.5, 1.0),
    "noise": st.sampled_from(["gaussian", "bounded", "none"]),
    "noise_var": _floats(0.01, 1.0, 1e4),
    "beta": st.sampled_from([0.05, 0.5]),
    "eta_grid": st.sampled_from(["0.1,0.05", "0.05,0.02", "0.03", "5e-324", "1e-300,0.1",
                                 "1e300", "-1e300,0.05"]),
    "c": _floats(0.25),
    "tol": _floats(1e-10),
    "p": _floats(1.0, 2.0),
    "alpha": _floats(1.5, 3.0),
    "t0": _floats(1.0),
    "t": _floats(1.5, 2.0),
    "dt": _floats(0.01, 0.003),
    "k_trunc": st.sampled_from([1000, 1000000]),
    "sgd_scale": _floats(1.0, 1e6),
})


# the sample-heavy subcommands, at sample counts and truncations small enough
# that an example takes milliseconds
_SAMPLING_VALUES = st.fixed_dictionaries({
    "problem": st.sampled_from(["quadratic", "logreg"]),
    "dim": st.integers(1, 4),
    "n_samples": st.integers(20, 60),
    "schedule": st.sampled_from(["anytime_log2", "expectation_log2", "epsilon_log",
                                 "sqrt_k", "constant"]),
    "scale": _floats(1e-3, 1.0, 1e3),
    "epsilon": _floats(0.5, 1.0, 2.0),
    "noise": st.sampled_from(["gaussian", "bounded", "none"]),
    "noise_var": _floats(0.01, 1.0, 1e4),
    "lambda_grid": st.sampled_from(["0.25,0.5", "1.33", "0", "-1,40", "5e-324,1e300",
                                    "-1e300"]),
    "omega_grid": st.sampled_from(["0.5,1.0", "3.0", "0", "-1,800", "5e-324,1e300",
                                   "-1e300"]),
    "mgf_samples": st.integers(1, 300),
    "tail_samples": st.integers(1, 300),
    "k_trunc": st.sampled_from([0, 1, 10, 1000]),
    "width_tol": _floats(1e-4, 1.0),
})


# flag values in the ``--key=value`` form, so that argparse reads none as an
# option: a key's usual values, and strings that do not parse as the key
_NOT_FLOATS = ("x", "1e400", "")
_NOT_INTS = ("abc", "1.5", "1e3") + _NOT_FLOATS


def _flag(key, usual, bad=_NOT_FLOATS):
    return st.sampled_from(usual + bad).map(lambda value: f"--{key}={value}")


_FLAGS = st.lists(st.one_of(
    _flag("steps", ("1", "5", "50"), _NOT_INTS),
    _flag("runs", ("1", "2", "4"), _NOT_INTS),
    _flag("seed", ("0", "2147483647"), _NOT_INTS),
    _flag("beta", ("0.05", "0.5")),
    _flag("p", ("1.0", "2.0")),
    _flag("alpha", ("1.5", "3.0")),
    _flag("t0", ("1.0",)),
    _flag("t", ("1.5", "2.0")),
    _flag("dt", ("0.01", "0.003")),
    _flag("eta-grid", ("0.1,0.05", "0.03")),
), max_size=2)


def assert_cli_contract(sub, values, argv):
    """Run ``sub`` on an INI of ``values``: the README's contract. A
    documented exit code; a strict-JSON verdict and an empty stderr on exit
    0 or 1; no verdict and exactly one ``config error:`` (exit 2) or
    ``diverged:`` (exit 3) line otherwise; and no warning."""
    with tempfile.TemporaryDirectory() as tmp:
        ini, out = Path(tmp) / "lab.ini", Path(tmp) / "o"
        ini.write_text("[common]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([sub, "--config", str(ini), "--out", str(out)] + argv)
        assert [str(w.message) for w in caught] == []
        assert code in (0, 1, 2, 3)
        assert (out / "verdict.json").exists() == (code in (0, 1))
        if code in (0, 1):
            strict_json(out / "verdict.json")
            assert err.getvalue() == ""
        else:
            lines = err.getvalue().splitlines(keepends=True)
            assert len(lines) == 1 and lines[0].endswith("\n"), lines
            assert lines[0].startswith({2: "config error: ", 3: "diverged: "}[code]), lines


class TestCliProperties:
    @given(sub=st.sampled_from(_QUICK_SUBCOMMANDS), values=_INI_VALUES,
           steps=st.integers(1, 50), runs=st.integers(1, 4), seed=st.integers(0, 2**31 - 1),
           flags=_FLAGS)
    # a spread of 1e300-sized gaps overflowed in ensemble_summary; a
    # log power 1 + 5e-324 rounded to 1 and divided by zero in the gamma
    # tail; an ODE with p = 1e12 warned on every overflowing RK4 stage
    @example(sub="run", values={"dim": 1, "scale": 1e300}, steps=2, runs=2, seed=0, flags=[])
    @example(sub="verify-anytime", values={"schedule": "epsilon_log", "epsilon": 5e-324},
             steps=5, runs=2, seed=0, flags=[])
    @example(sub="ode-compare", values={"p": 1e12}, steps=1, runs=2, seed=0, flags=[])
    # and overflows in the check values: an excess over a zero standard
    # error, a descent tolerance tol (1 + |E|), a noise multiplier ratio over
    # an SGD gain that underflows
    @example(sub="verify-expectation", values={"dim": 1, "noise_var": 0.0, "c": 1e12},
             steps=2, runs=2, seed=0, flags=[])
    @example(sub="verify-descent", values={"dim": 1, "scale": 1e300, "tol": 1e12,
                                           "noise_var": 0.01}, steps=1, runs=1, seed=0, flags=[])
    @example(sub="smoothness", values={"dim": 1, "scale": 1e-3, "noise_var": 0.01,
                                       "sgd_scale": 5e-324}, steps=5, runs=1, seed=0, flags=[])
    # a flag value that argparse's own int or float parse refused printed
    # its usage block
    @example(sub="run", values={}, steps=1, runs=1, seed=0, flags=["--steps=abc"])
    @example(sub="run", values={}, steps=1, runs=1, seed=0, flags=["--seed=1.5"])
    @example(sub="run", values={}, steps=1, runs=1, seed=0, flags=["--steps=1e3"])
    @example(sub="run", values={}, steps=1, runs=1, seed=0, flags=["--dt=x"])
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_exit_code_verdict_and_stderr(self, sub, values, steps, runs, seed, flags):
        """Any small config and flags, extreme floats and values that do not
        parse included, keep the contract."""
        assert_cli_contract(sub, values, ["--steps", str(steps), "--runs", str(runs),
                                          "--seed", str(seed)] + flags)

    @given(sub=st.sampled_from(["concentration", "constants"]), values=_SAMPLING_VALUES,
           seed=st.integers(0, 2**31 - 1))
    # the log power above, and a tail level exp(1e300) that overflowed
    @example(sub="constants", values={"schedule": "epsilon_log", "epsilon": 5e-324}, seed=0)
    @example(sub="concentration", values={"omega_grid": -1e300, "mgf_samples": 100,
                                          "tail_samples": 100}, seed=0)
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_sampling_subcommands_exit_code_verdict_and_stderr(self, sub, values, seed):
        """The same contract for ``concentration`` and ``constants``."""
        assert_cli_contract(sub, values, ["--seed", str(seed)])
