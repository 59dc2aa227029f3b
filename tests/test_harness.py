import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdmlab._csv import write_csv
from sgdmlab.cli import (ConfigError, _check, default_quadratic, load_config, main,
                         write_verdict)
from sgdmlab.lyapunov import check_descent
from sgdmlab.optimizers import StepSchedule, run_trajectory
from sgdmlab.problems import NoiseModel, logreg_new, synthetic_blobs
from sgdmlab.seeding import rng_for, seed_split

from test_optimizers import first_nonfinite_step

SRC = Path(__file__).resolve().parents[1] / "src"


def strict_json(path):
    """Parse a file as strict JSON: NaN and Infinity are errors."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(path.read_text(), parse_constant=reject)


class TestSeedSplit:
    def test_identical_inputs_identical_streams(self):
        a = rng_for(123, 7).standard_normal(5)
        b = rng_for(123, 7).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_index_collision_scan(self):
        states = {tuple(seed_split(42, i).generate_state(2)) for i in range(10_000)}
        assert len(states) == 10_000

    def test_master_collision_scan_at_index_zero(self):
        states = {tuple(seed_split(s, 0).generate_state(2)) for s in range(10_000)}
        assert len(states) == 10_000

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            seed_split(-1, 0)
        with pytest.raises(ValueError):
            seed_split(0, -1)


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

    def test_verify_expectation(self, tmp_path):
        out = tmp_path / "o"
        assert main(["verify-expectation", "--out", str(out), "--steps", "300",
                     "--runs", "30"]) == 0
        (check,) = strict_json(out / "verdict.json")["checks"]
        assert check["first_failure_k"] is None

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

    def test_ode_compare_rate_check_locator(self, tmp_path):
        out = tmp_path / "o"
        assert main(["ode-compare", "--out", str(out), "--runs", "5",
                     "--t", "2.0", "--dt", "0.01", "--eta-grid", "0.1,0.05"]) == 0
        checks = json.loads((out / "verdict.json").read_text())["checks"]
        rate = next(c for c in checks if c["name"] == "rate_bound_holds")
        assert rate["first_violation_t"] is None and rate["value"] is None

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

    def test_smoothness(self, tmp_path):
        out = tmp_path / "o"
        assert main(["smoothness", "--out", str(out), "--steps", "400",
                     "--runs", "6"]) == 0

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


class TestFailureSemantics:
    def test_expectation_needs_two_runs(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["verify-expectation", "--out", str(out), "--steps", "50"]) == 2
        assert_one_line_config_error(capsys)
        assert not (out / "verdict.json").exists()

    @pytest.mark.parametrize("flag", [["--alpha", "3"], ["--eta-grid", "1.0"]])
    def test_library_value_error_exits_2(self, tmp_path, capsys, flag):
        assert main(["ode-compare", "--out", str(tmp_path / "o"), "--runs", "3"] + flag) == 2
        assert_one_line_config_error(capsys)

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

    def test_overflowing_gamma2_is_a_config_error(self, tmp_path, capsys):
        ini = tmp_path / "big.ini"
        ini.write_text("[common]\nscale = 1e12\nnoise_var = 1e4\n")
        assert main(["verify-anytime", "--config", str(ini), "--out", str(tmp_path / "o"),
                     "--steps", "5", "--runs", "2"]) == 2
        assert_one_line_config_error(capsys)

    def test_smoothness_with_too_few_steps_is_a_config_error(self, tmp_path, capsys):
        assert main(["smoothness", "--out", str(tmp_path / "o"), "--steps", "4",
                     "--runs", "2"]) == 2
        assert_one_line_config_error(capsys)

    def test_non_finite_value_is_written_as_null_and_fails(self, tmp_path):
        checks = [_check("gap", True, float("inf"), None),
                  _check("ratio", True, 1.0, float("nan"))]
        assert write_verdict(tmp_path, "run", checks) is False
        written = {c["name"]: c for c in strict_json(tmp_path / "verdict.json")["checks"]}
        assert written["gap"]["value"] is None and written["gap"]["passed"] is False
        assert written["ratio"]["threshold"] is None and written["ratio"]["passed"] is False

    def test_overflowing_gap_exits_3_with_one_line_naming_the_step(self, tmp_path):
        # plain SGD with a huge gain: x stays finite (about 1e160) while f(x) overflows
        ini = tmp_path / "sgd.ini"
        ini.write_text("[common]\nalgorithm = sgd\nsgd_scale = 1e6\nnoise = none\ndim = 2\n")
        A = default_quadratic(2, 0).grad(np.eye(2))
        x = np.ones(2)
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, 42):
                if not math.isfinite(0.5 * float(x @ A @ x)):
                    break
                x = x - 1e6 / math.sqrt(k) * (A @ x)
        assert k < 41 and np.all(np.isfinite(x))
        out = tmp_path / "o"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-m", "sgdmlab.cli", "run", "--config", str(ini),
             "--steps", "41", "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120)
        # one line: no traceback and no NumPy overflow warning
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == (f"diverged: f(x_{k}) - f* became non-finite "
                               f"at step k={k} in run(s) [0]\n")
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
    run-at-a-time reference: run_trajectory + check_descent per run."""

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
        recs = [run_trajectory(obj, NoiseModel.gaussian(10, 100.0), "sgdm", sched,
                               self.STEPS, seed_split(self.SEED, i))
                for i in range(self.RUNS)]
        reports = [check_descent(r, obj.lipschitz, obj.xstar, obj.fstar) for r in recs]
        check = json.loads((out / "verdict.json").read_text())["checks"][0]
        return out, recs, reports, check

    def test_max_residual_matches_per_run_reference(self, setting):
        _, _, reports, check = setting
        expect = max(rep.max_residual for rep in reports)
        assert check["value"] == pytest.approx(expect, rel=1e-9)
        assert check["passed"] is (check["value"] <= check["threshold"])

    def test_locator_points_at_the_maximum(self, setting):
        _, _, reports, check = setting
        residuals = np.column_stack([rep.residuals for rep in reports])
        k_idx, run = np.unravel_index(np.argmax(residuals), residuals.shape)
        assert (check["run"], check["argmax_k"]) == (run, k_idx + 1)
        assert {"name", "passed", "value", "threshold"} <= set(check)

    def test_trajectory_csv_is_run_zero(self, setting):
        out, recs, _, _ = setting
        rec = recs[0]
        table = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        expect = np.column_stack([
            np.arange(1, rec.K + 1), rec.f_gap[1:], rec.eta[1:], rec.energy[1:],
            rec.descent_lhs, rec.descent_rhs, np.linalg.norm(rec.grad, axis=1),
            np.linalg.norm(rec.theta, axis=1)])
        np.testing.assert_allclose(table, expect, rtol=1e-10)


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
        rec = run_trajectory(obj, NoiseModel.gaussian(10, 1.0), "acsa",
                             StepSchedule(kind="anytime_log2", L=obj.lipschitz), 30,
                             seed_split(2, 0))
        checks = json.loads((out / "verdict.json").read_text())["checks"]
        assert checks[1]["value"] == rec.f_gap[-1]
        assert (out / ("trajectory.csv" if runs == 1 else "ensemble.csv")).exists()


# every subcommand but the slow sample-heavy ``concentration`` and ``constants``
_QUICK_SUBCOMMANDS = ("run", "verify-descent", "verify-expectation", "verify-anytime",
                      "ode-compare", "smoothness")

_INI_VALUES = st.fixed_dictionaries({
    "problem": st.sampled_from(["quadratic", "logreg"]),
    "dim": st.integers(1, 4),
    "n_samples": st.integers(20, 60),
    "algorithm": st.sampled_from(["sgdm", "sgd", "acsa"]),
    "schedule": st.sampled_from(["anytime_log2", "expectation_log2", "epsilon_log",
                                 "sqrt_k", "constant"]),
    "scale": st.sampled_from([1e-3, 1.0, 1e3, 1e12]),
    "noise": st.sampled_from(["gaussian", "bounded", "none"]),
    "noise_var": st.sampled_from([0.0, 0.01, 1.0, 1e4]),
    "beta": st.sampled_from([0.05, 0.5]),
    "eta_grid": st.sampled_from(["0.1,0.05", "0.05,0.02", "0.03"]),
    "alpha": st.sampled_from([1.5, 3.0]),
    "t": st.sampled_from([1.5, 2.0]),
    "dt": st.sampled_from([0.01, 0.003]),
    "k_trunc": st.sampled_from([1000, 1000000]),
    "sgd_scale": st.sampled_from([1.0, 1e6]),
})


# the sample-heavy subcommands, at sample counts and truncations small enough
# that an example takes milliseconds
_SAMPLING_VALUES = st.fixed_dictionaries({
    "problem": st.sampled_from(["quadratic", "logreg"]),
    "dim": st.integers(1, 4),
    "n_samples": st.integers(20, 60),
    "schedule": st.sampled_from(["anytime_log2", "expectation_log2", "epsilon_log",
                                 "sqrt_k", "constant"]),
    "scale": st.sampled_from([1e-3, 1.0, 1e3, 1e12]),
    "epsilon": st.sampled_from([0.5, 1.0, 2.0]),
    "noise": st.sampled_from(["gaussian", "bounded", "none"]),
    "noise_var": st.sampled_from([0.0, 0.01, 1.0, 1e4]),
    "lambda_grid": st.sampled_from(["0.25,0.5", "1.33", "0", "-1,40"]),
    "omega_grid": st.sampled_from(["0.5,1.0", "3.0", "0", "-1,800"]),
    "mgf_samples": st.integers(1, 300),
    "tail_samples": st.integers(1, 300),
    "k_trunc": st.sampled_from([0, 1, 10, 1000]),
    "width_tol": st.sampled_from([1e-4, 1.0]),
})


def assert_cli_contract(sub, values, argv):
    """Run ``sub`` on an INI of ``values``: a documented exit code, a
    strict-JSON verdict exactly when checks ran, and no traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        ini, out = Path(tmp) / "lab.ini", Path(tmp) / "o"
        ini.write_text("[common]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # overflowing configs
            code = main([sub, "--config", str(ini), "--out", str(out)] + argv)
        assert code in (0, 1, 2, 3)
        assert (out / "verdict.json").exists() == (code in (0, 1))
        if code in (0, 1):
            strict_json(out / "verdict.json")
        assert "Traceback" not in err.getvalue()


class TestCliProperties:
    @given(sub=st.sampled_from(_QUICK_SUBCOMMANDS), values=_INI_VALUES,
           steps=st.integers(1, 50), runs=st.integers(1, 4), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_exit_code_verdict_and_stderr(self, sub, values, steps, runs, seed):
        """Any small config ends in a documented exit code, a strict-JSON
        verdict exactly when checks ran, and no traceback."""
        assert_cli_contract(sub, values, ["--steps", str(steps), "--runs", str(runs),
                                          "--seed", str(seed)])

    @given(sub=st.sampled_from(["concentration", "constants"]), values=_SAMPLING_VALUES,
           seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_sampling_subcommands_exit_code_verdict_and_stderr(self, sub, values, seed):
        """The same properties for ``concentration`` and ``constants``."""
        assert_cli_contract(sub, values, ["--seed", str(seed)])
