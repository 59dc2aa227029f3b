import json

import numpy as np
import pytest

from sgdmlab._csv import write_csv
from sgdmlab.cli import ConfigError, default_quadratic, load_config, main, write_verdict
from sgdmlab.lyapunov import check_descent
from sgdmlab.optimizers import StepSchedule, run_trajectory
from sgdmlab.problems import NoiseModel, logreg_new, synthetic_blobs
from sgdmlab.seeding import rng_for, seed_split


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
