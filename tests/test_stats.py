import math

import numpy as np
import pytest

from sgdmlab.optimizers import StepSchedule, run_ensemble
from sgdmlab.problems import NoiseModel, logreg_new, quadratic_new, synthetic_blobs
from sgdmlab.stats import (
    _increment_variances,
    _late_gaps,
    ensemble_summary,
    expectation_rate_bound,
    expectation_rate_check,
    log_spaced_checkpoints,
    save_ensemble_csv,
    smoothness_comparison,
    subsequence_rate_check,
)

from test_problems import random_spd


class TestCheckpoints:
    def test_expected_grid(self):
        np.testing.assert_array_equal(
            log_spaced_checkpoints(10_000),
            [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000],
        )

    def test_endpoint_always_included(self):
        assert log_spaced_checkpoints(137)[-1] == 137
        assert log_spaced_checkpoints(1)[-1] == 1


class TestEnsembleSummary:
    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((11, 40))
        s = ensemble_summary(vals)
        np.testing.assert_allclose(s["mean"], vals.mean(axis=1))
        np.testing.assert_allclose(s["stderr"],
                                   vals.std(axis=1, ddof=1) / math.sqrt(40))
        np.testing.assert_allclose(s["q50"], np.quantile(vals, 0.5, axis=1))

    def test_csv_header(self, tmp_path):
        vals = np.ones((3, 4))
        path = tmp_path / "e.csv"
        save_ensemble_csv(path, ensemble_summary(vals))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,mean,stderr,q10,q50,q90"
        assert len(lines) == 4


class TestExpectationRate:
    def test_bound_hand_formula(self):
        obj = quadratic_new(np.eye(2) * 2.0)
        x0 = np.array([1.0, -1.0])
        val = expectation_rate_bound(obj, sigma2=8.0, x0=x0, k=10)
        expect = (3.0 * 2.0 * 2.0 + 4.0 * 8.0 / 2.0) * math.log(12.0) / (2.0 * math.sqrt(11.0))
        assert val == pytest.approx(expect, rel=1e-12)

    def test_mean_stays_under_envelope(self):
        obj = quadratic_new(random_spd(5, 0))
        rep = expectation_rate_check(obj, NoiseModel.gaussian(5, 1.0),
                                     K=1000, M=60, master_seed=0)
        assert rep["passed"], rep
        assert rep["first_failure_k"] is None
        assert rep["checkpoints"][-1] == 1000

    @pytest.mark.filterwarnings("error")
    def test_rejects_a_single_run(self):
        obj = quadratic_new(random_spd(2, 0))
        with pytest.raises(ValueError, match="two runs"):
            expectation_rate_check(obj, NoiseModel.gaussian(2, 1.0), K=10, M=1,
                                   master_seed=0)


class TestSubsequence:
    def test_running_min_is_monotone_and_decays(self):
        obj = quadratic_new(random_spd(4, 2))
        rep = subsequence_rate_check(obj, K=10_000, seed=0, checkpoints=(100,))
        rm = rep["running_min"]
        assert np.all(np.diff(rm) <= 0.0)
        assert rep["at"][10_000] < rep["at"][100]
        assert rep["m_final"] > 0.0


class TestSmoothness:
    def test_increment_variance_window(self):
        # K = 8: the window starts at index 6 (= 3K/4), so two increments
        f = np.zeros((9, 1))
        f[6:, 0] = [1.0, 3.0, 3.0]
        out = _increment_variances(f)
        assert out[0] == pytest.approx(np.var([2.0, 0.0], ddof=1))

    def test_momentum_is_smoother_than_sgd(self):
        obj = quadratic_new(random_spd(5, 1))
        noise = NoiseModel.gaussian(5, 25.0)
        rep = smoothness_comparison(obj, noise, K=800, M=8, master_seed=0)
        assert not rep["skipped"]
        assert rep["passed"]
        assert rep["median_var_sgdm"] < rep["median_var_sgd"]
        assert rep["noise_multiplier_ratio"] < 1.0

    @pytest.mark.parametrize("K", [5, 800, 1031, 2000])
    @pytest.mark.parametrize("problem", ["quadratic", "logreg"])
    def test_medians_equal_recording_the_whole_horizon(self, problem, K):
        """Evaluating only the last quarter gives the medians of one call
        that records f_gap at every step, bit for bit."""
        if problem == "quadratic":
            obj = quadratic_new(random_spd(3, 2))
        else:
            obj = logreg_new(*synthetic_blobs(40, 3, seed=4))
        noise = NoiseModel.gaussian(3, 2.0)
        sched = StepSchedule(kind="expectation_log2", L=obj.lipschitz, scale=0.25)
        rep = smoothness_comparison(obj, noise, K=K, M=5, master_seed=11, schedule=sched,
                                    sgd_scale=0.6)
        medians = []
        for seed, kw in ((11, dict(algorithm="sgdm")), (12, dict(algorithm="sgd", sgd_scale=0.6))):
            tr = run_ensemble(obj, noise, sched, K=K, M=5, master_seed=seed,
                              x0=np.ones(3), record=("f_gap",), **kw)
            medians.append(float(np.median(_increment_variances(tr.f_gap))))
        assert [rep["median_var_sgdm"], rep["median_var_sgd"]] == medians

    @pytest.mark.parametrize("K", [5, 8, 1031])
    def test_late_gaps_are_the_quarter_rows(self, K):
        obj = quadratic_new(random_spd(2, 3))
        noise = NoiseModel.bounded_uniform(2, 1.0)
        sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
        tr = run_ensemble(obj, noise, sched, K=K, M=3, master_seed=5, record=("f_gap",),
                          chunk=7)
        late = _late_gaps(obj, noise, sched, K, 3, 5, chunk=7)
        np.testing.assert_array_equal(late, tr.f_gap[max(1, 3 * K // 4):])

    def test_noiseless_comparison_is_skipped(self):
        obj = quadratic_new(np.eye(2))
        rep = smoothness_comparison(obj, NoiseModel.noiseless(2), K=100, M=2,
                                    master_seed=0)
        assert rep["skipped"]
        assert "reason" in rep
