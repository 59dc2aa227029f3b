import math
import threading
import time
import tracemalloc

import numpy as np
import pytest

from sgdmlab import stats
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


def row_blocks(vals, rows):
    """``vals`` as consecutive blocks of ``rows`` rows (the last may be shorter)."""
    return [vals[lo:lo + rows] for lo in range(0, len(vals), rows)]


class TestEnsembleSummary:
    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((11, 40))
        s = ensemble_summary([vals])
        np.testing.assert_allclose(s["mean"], vals.mean(axis=1))
        np.testing.assert_allclose(s["stderr"],
                                   vals.std(axis=1, ddof=1) / math.sqrt(40))
        np.testing.assert_allclose(s["q50"], np.quantile(vals, 0.5, axis=1))

    @staticmethod
    def assert_full_array_results(vals):
        """The summary of the array's row blocks of about 2^15 values equals
        the NumPy calls over the whole array, bit for bit."""
        with np.errstate(invalid="ignore"):  # inf - inf in a row's mean
            s = ensemble_summary(row_blocks(vals, max(1, 2**15 // vals.shape[1])))
            mean = np.mean(vals, axis=1)
            sd = np.std(vals, axis=1, ddof=1)
            q10, q50, q90 = np.quantile(vals, [0.1, 0.5, 0.9], axis=1)
        np.testing.assert_array_equal(s["mean"], mean)
        np.testing.assert_array_equal(s["stderr"], sd / np.sqrt(vals.shape[1]))
        for key, ref in (("q10", q10), ("q50", q50), ("q90", q90)):
            np.testing.assert_array_equal(s[key], ref)
        np.testing.assert_array_equal(s["final"], vals[-1])

    @pytest.mark.parametrize("shape", [(1, 5), (2_000, 2), (1, 70_000), (700, 100),
                                       (10_001, 100), (3, 2**16 + 1)])
    def test_blocks_equal_full_array_quantiles(self, shape):
        """Row blocks of 2^15 // M rows: (700, 100) and (10 001, 100) cross
        block boundaries, M = 2 makes blocks of 16 384 rows, and a row longer
        than a block is a block of its own."""
        rng = np.random.default_rng(sum(shape))
        self.assert_full_array_results(rng.standard_normal(shape))

    def test_ties_equal_full_array_quantiles(self):
        rng = np.random.default_rng(1)
        self.assert_full_array_results(rng.integers(0, 3, (1_500, 50)).astype(float))

    def test_non_finite_entries_equal_full_array_quantiles(self):
        rng = np.random.default_rng(2)
        vals = rng.standard_normal((1_400, 60))
        vals[3, 7] = np.inf
        vals[700, :5] = -np.inf
        vals[900, 1] = np.nan
        vals[1_399, [0, 9]] = [np.inf, -np.inf]
        self.assert_full_array_results(vals)

    def test_csv_header(self, tmp_path):
        vals = np.ones((3, 4))
        path = tmp_path / "e.csv"
        save_ensemble_csv(path, ensemble_summary([vals]))
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

    @pytest.mark.parametrize("K, M", [(2_000, 100), (1_300, 7), (20, 40_000)])
    def test_streamed_summary_equals_the_recorded_field(self, K, M):
        """The summary folded from the ensemble's blocks is that of the
        whole recorded (K+1, M) f_gap: blocks of many rows, of one row
        (M > 2^15), and several noise chunks."""
        obj = quadratic_new(random_spd(3, 1))
        noise = NoiseModel.gaussian(3, 1.0)
        rep = expectation_rate_check(obj, noise, K=K, M=M, master_seed=2)
        sched = StepSchedule(kind="expectation_log2", L=obj.lipschitz, scale=0.25)
        f_gap, = run_ensemble(obj, noise, sched, K=K, M=M, master_seed=2).collect("f_gap")
        ref = ensemble_summary([f_gap])
        assert len(rep["summary"]["mean"]) == K + 1
        for key in ("mean", "stderr", "q10", "q50", "q90", "final"):
            np.testing.assert_array_equal(rep["summary"][key], ref[key], err_msg=key)
        np.testing.assert_array_equal(rep["summary"]["mean"], np.mean(f_gap, axis=1))
        np.testing.assert_array_equal(rep["summary"]["q50"], np.quantile(f_gap, 0.5, axis=1))

    def test_a_summary_raising_mid_stream_leaves_no_helper(self, monkeypatch):
        """The fold stops after two blocks while the helper, slowed down,
        draws the next noise chunk: the helper is joined before the error
        leaves the check."""
        sample = NoiseModel.sample

        def slow(self, rng, n=None):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.02)
            return sample(self, rng, n)

        def two_blocks(blocks):
            next(blocks), next(blocks)
            raise RuntimeError("fold failed")

        monkeypatch.setattr(NoiseModel, "sample", slow)
        monkeypatch.setattr(stats, "ensemble_summary", two_blocks)
        obj = quadratic_new(random_spd(3, 1))
        # the traceback, kept alive here, holds the check's frame and its stream
        with pytest.raises(RuntimeError, match="fold failed") as failure:
            expectation_rate_check(obj, NoiseModel.gaussian(3, 1.0), K=3_000, M=300,
                                   master_seed=0)
        assert not [t for t in threading.enumerate() if t.name == "sgdmlab-noise"], failure

    def test_traced_peak_is_the_gradient_only_ensemble(self):
        """K = 10^4, M = 100: the noise double buffer takes 8 MB; recording
        the (K+1, M) gaps and summarizing them peaked at about 18 MB."""
        obj = quadratic_new(random_spd(10, 0))
        tracemalloc.start()
        try:
            expectation_rate_check(obj, NoiseModel.gaussian(10, 1.0), K=10_000, M=100,
                                   master_seed=3)
            peak = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert peak <= 11.0


class TestSubsequence:
    def test_running_min_is_monotone_and_decays(self):
        obj = quadratic_new(random_spd(4, 2))
        rep = subsequence_rate_check(obj, K=10_000)
        rm = rep["running_min"]
        assert np.all(np.diff(rm) <= 0.0)
        assert rep["at"][10_000] < rep["at"][100]
        assert rep["at"][10_000] > 0.0


class TestSmoothness:
    def test_increment_variance_window(self):
        # the caller passes the window's rows (_late_gaps: the last quarter);
        # three rows give two increments
        f = np.array([[1.0, 0.0], [3.0, 1.0], [3.0, 3.0]])
        out = _increment_variances(f)
        assert out[0] == pytest.approx(np.var([2.0, 0.0], ddof=1))
        assert out[1] == pytest.approx(np.var([1.0, 2.0], ddof=1))

    def test_momentum_is_smoother_than_sgd(self):
        obj = quadratic_new(random_spd(5, 1))
        noise = NoiseModel.gaussian(5, 25.0)
        sched = StepSchedule(kind="expectation_log2", L=obj.lipschitz, scale=0.25)
        rep = smoothness_comparison(obj, noise, K=800, M=8, master_seed=0, schedule=sched)
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
        variances = []
        for seed, kw in ((11, dict(algorithm="sgdm")), (12, dict(algorithm="sgd", sgd_scale=0.6))):
            f_gap, = run_ensemble(obj, noise, sched, K=K, M=5, master_seed=seed,
                                  x0=np.ones(3), record=("f_gap",), **kw).collect("f_gap")
            quarter = f_gap[max(1, 3 * K // 4):]  # k = 3K/4 .. K
            variances.append(_increment_variances(quarter))
        medians = [float(np.median(v)) for v in variances]
        assert [rep["median_var_sgdm"], rep["median_var_sgd"]] == medians
        assert rep["argmax_run_sgdm"] == np.argmax(variances[0])

    @pytest.mark.parametrize("K", [5, 8, 1031])
    def test_late_gaps_are_the_quarter_rows(self, K):
        obj = quadratic_new(random_spd(2, 3))
        noise = NoiseModel.bounded_uniform(2, 1.0)
        sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
        f_gap, = run_ensemble(obj, noise, sched, K=K, M=3, master_seed=5, record=("f_gap",),
                              chunk=7).collect("f_gap")
        late = _late_gaps(obj, noise, sched, K, 3, 5, chunk=7)
        np.testing.assert_array_equal(late, f_gap[max(1, 3 * K // 4):])

    def test_noiseless_comparison_is_refused(self):
        obj = quadratic_new(np.eye(2))
        sched = StepSchedule(kind="expectation_log2", L=obj.lipschitz, scale=0.25)
        with pytest.raises(ValueError, match="stochastic noise model"):
            smoothness_comparison(obj, NoiseModel.noiseless(2), K=100, M=2, master_seed=0,
                                  schedule=sched)
