import math
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdmlab import optimizers
from sgdmlab.optimizers import (
    _RNG_VALUES,
    _SETUP_VALUES,
    _sgdm_coefficients,
    GRID_CAP,
    RECORDS,
    StepSchedule,
    TrajectoryRecord,
    run_ensemble,
    run_trajectory,
    schedule_eval,
    sgdm_noise_multiplier,
)
from sgdmlab.problems import NoiseModel, logreg_new, quadratic_new, synthetic_blobs
from sgdmlab.seeding import rng_for, rngs_for

from reference import (
    SgdmState,
    descent_rhs,
    discrete_energy,
    first_nonfinite_step,
    reference_ensemble,
    sgd_step,
    sgdm_step,
    sgdm_velocity_step,
)
from test_problems import random_spd


class TestStepSchedule:
    def test_formula_values(self):
        # independent recomputation with math.log
        s = StepSchedule(kind="anytime_log2", L=2.0, scale=1.0)
        assert schedule_eval(s, 0) == pytest.approx(1.0 / (16 * 4 * math.log(2.0) ** 2))
        assert schedule_eval(s, 5) == pytest.approx(1.0 / (16 * 4 * math.log(7.0) ** 2))
        s = StepSchedule(kind="expectation_log2", L=3.0, scale=0.25)
        assert schedule_eval(s, 10) == pytest.approx(0.25 / (9 * math.log(12.0) ** 2))
        s = StepSchedule(kind="epsilon_log", L=1.0, scale=1.0, epsilon=0.5)
        assert schedule_eval(s, 7) == pytest.approx(1.0 / (16 * math.log(9.0) ** 1.5))
        s = StepSchedule(kind="sqrt_k", scale=2.0)
        assert schedule_eval(s, 9) == pytest.approx(2.0 / 3.0)
        assert schedule_eval(s, 0) == pytest.approx(2.0)  # clamped at k=1
        s = StepSchedule(kind="constant", scale=0.3)
        assert schedule_eval(s, 1234) == pytest.approx(0.3)

    def test_vectorized_matches_scalar(self):
        s = StepSchedule(kind="anytime_log2", L=1.5)
        ks = np.arange(0, 50)
        vec = schedule_eval(s, ks)
        for k in ks:
            assert vec[k] == pytest.approx(schedule_eval(s, int(k)))

    @given(kind=st.sampled_from(["anytime_log2", "expectation_log2", "epsilon_log",
                                 "sqrt_k", "constant"]))
    @settings(max_examples=20, deadline=None)
    def test_named_kinds_are_non_increasing(self, kind):
        s = StepSchedule(kind=kind, L=1.0, scale=1.0, epsilon=0.5)
        assert s.monotone
        vals = schedule_eval(s, np.arange(0, 200))
        assert np.all(np.diff(vals) <= 1e-15)

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            StepSchedule(kind="nope")
        with pytest.raises(ValueError, match="scale"):
            StepSchedule(kind="constant", scale=0.0)
        for epsilon in (1.5, np.nan, -2000.0):  # at -2000, log(2)^(1+epsilon) overflows
            with pytest.raises(ValueError, match="epsilon"):
                StepSchedule(kind="epsilon_log", epsilon=epsilon)
        for kind in ("anytime_log2", "expectation_log2", "epsilon_log"):  # eta ~ 1/L^2
            # 1e-170 and 1e160: L is finite, but w L^2 is 0 or inf
            for L in (0.0, -1.0, np.inf, np.nan, 1e-170, 1e160):
                with pytest.raises(ValueError, match="finite positive L"):
                    StepSchedule(kind=kind, L=L)
            with pytest.raises(ValueError, match="finite positive L"):  # eta_0 = inf/inf
                StepSchedule(kind=kind, L=np.inf, scale=np.inf)
        assert schedule_eval(StepSchedule(kind="constant", L=0.0), 3) == 1.0
        with pytest.raises(ValueError, match="fn"):
            StepSchedule(kind="custom")
        with pytest.raises(ValueError):
            schedule_eval(StepSchedule(kind="constant", scale=1.0), -1)

    def test_custom_schedule_not_assumed_monotone(self):
        s = StepSchedule(kind="custom", fn=lambda k: 0.1 + 0.0 * k)
        assert not s.monotone


class TestSgdmStep:
    def test_single_step_formula(self):
        sched = StepSchedule(kind="constant", scale=0.04)
        st0 = SgdmState.initial(np.array([2.0, -1.0]), sched)
        g = np.array([1.0, 3.0])
        st1 = sgdm_step(st0, g)
        # k=1, x0=x1: x2 = x1 - 2 sqrt(eta)/3 g
        np.testing.assert_allclose(
            st1.x_cur, st0.x_cur - (2.0 * 0.2 / 3.0) * g, rtol=1e-14
        )
        assert st1.k == 2
        np.testing.assert_array_equal(st1.x_prev, st0.x_cur)

    def test_velocity_form_reproduces_position_recursion(self):
        """The implicit-velocity update and the two-point recursion are the
        same algorithm for a constant stepsize."""
        obj = quadratic_new(random_spd(3, 0))
        eta = 0.02
        sched = StepSchedule(kind="constant", scale=eta)

        # xs[k] = x_k, x_0 = x_1, from the reference loop the kernel is
        # checked against bit for bit
        xs = reference_ensemble(obj, NoiseModel.noiseless(3), sched, 40, 1, 0,
                                record=("x",))[0]["x"][:, 0]

        # velocity form: x_k = x_{k-1} + eta v_{k-1}, then the implicit
        # velocity update consumes the gradient at the new point x_k
        x, v = xs[0].copy(), np.zeros(3)
        for k in range(1, 41):
            g = obj.grad(x + eta * v)
            x, v = sgdm_velocity_step(x, v, k, eta, g)
            np.testing.assert_allclose(x, xs[k], atol=1e-12)

        # and the combined two-step identity holds along the position run
        for k in range(1, 40):
            lhs = (1.0 + 2.0 / k) * (xs[k + 1] - xs[k])
            rhs = (xs[k] - xs[k - 1]) - (2.0 * eta / k) * obj.grad(
                xs[k]
            ) / np.sqrt(k * eta)
            np.testing.assert_allclose(lhs, rhs, atol=1e-13)

    def test_velocity_step_closed_form(self):
        x, v = np.array([1.0]), np.array([0.5])
        g = np.array([2.0])
        k, eta = 3, 0.04
        x_new, v_new = sgdm_velocity_step(x, v, k, eta, g)
        assert x_new[0] == pytest.approx(1.0 + 0.04 * 0.5)
        expected_v = (0.5 - (2.0 / 3.0) * 2.0 / math.sqrt(3 * 0.04)) / (1.0 + 2.0 / 3.0)
        assert v_new[0] == pytest.approx(expected_v, rel=1e-14)
        # the implicit equation itself holds at the returned value
        resid = (v_new - v) + (2.0 / k) * v_new + (2.0 / k) * g / math.sqrt(k * eta)
        assert abs(resid[0]) < 1e-14

    def test_invalid_inputs(self):
        sched = StepSchedule(kind="constant", scale=0.1)
        st0 = SgdmState.initial(np.zeros(2), sched)
        st0.k = 0
        with pytest.raises(ValueError):
            sgdm_step(st0, np.zeros(2))
        with pytest.raises(ValueError, match="shape"):
            sgdm_step(SgdmState.initial(np.zeros(2), sched), np.zeros(3))
        with pytest.raises(ValueError):
            sgdm_velocity_step(np.zeros(1), np.zeros(1), 0, 0.1, np.zeros(1))
        with pytest.raises(ValueError):
            sgdm_velocity_step(np.zeros(1), np.zeros(1), 1, 0.0, np.zeros(1))


class TestSgdAndAcsa:
    def test_sgd_step_formula(self):
        x = np.array([1.0, -2.0])
        g = np.array([0.5, 0.5])
        np.testing.assert_allclose(sgd_step(x, 4, g, scale=2.0), x - g)
        with pytest.raises(ValueError):
            sgd_step(x, 0, g)

    def test_acsa_matches_hand_rolled_loop(self):
        obj = quadratic_new(random_spd(4, 1))
        L = obj.lipschitz
        tr = run_ensemble(obj, NoiseModel.noiseless(4), StepSchedule(kind="anytime_log2", L=L),
                          K=30, M=1, master_seed=0, algorithm="acsa")
        tr.collect()
        # independent re-implementation of the three-sequence scheme (gamma = 1)
        x, z = np.ones(4), np.ones(4)
        for k in range(1, 31):
            alpha = 2.0 / (k + 1.0)
            gam = 1.0 / (2.0 * L / k + math.sqrt(k))
            y = (1.0 - alpha) * x + alpha * z
            z = z - gam * obj.grad(y)
            x = (1.0 - alpha) * x + alpha * z
        np.testing.assert_allclose(tr.x_cur_final[0], x, rtol=1e-13)

    def test_acsa_converges_on_quadratic(self):
        obj = quadratic_new(random_spd(5, 2))
        tr = run_ensemble(obj, NoiseModel.noiseless(5),
                          StepSchedule(kind="anytime_log2", L=obj.lipschitz), K=3000, M=1,
                          master_seed=0, algorithm="acsa")
        f_gap, = tr.collect("f_gap")
        assert obj.f_gap(tr.x_cur_final[0]) < 1e-3
        assert f_gap[-1, 0] < 1e-3


class TestRunTrajectory:
    def test_initialization_duplicates_first_iterate(self):
        # x_0 = x_1, so the first step has no momentum term
        obj = quadratic_new(random_spd(3, 0))
        sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
        tr = run_ensemble(obj, NoiseModel.noiseless(3), sched, K=1, M=1, master_seed=0)
        tr.collect()
        np.testing.assert_array_equal(tr.x_prev_final[0], np.ones(3))
        gain = 2.0 * math.sqrt(schedule_eval(sched, 1)) / 3.0
        np.testing.assert_allclose(tr.x_cur_final[0], np.ones(3) - gain * obj.grad(np.ones(3)),
                                   rtol=1e-14)

    def test_deterministic_given_seed(self):
        obj = quadratic_new(random_spd(3, 0))
        noise = NoiseModel.gaussian(3, 1.0)
        sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
        r1 = run_trajectory(obj, noise, "sgdm", sched, 50, 42)
        r2 = run_trajectory(obj, noise, "sgdm", sched, 50, 42)
        for name in ("f_gap", "energy", "descent_rhs", "grad_norm", "noise_norm"):
            np.testing.assert_array_equal(getattr(r1, name), getattr(r2, name))
        r3 = run_trajectory(obj, noise, "sgdm", sched, 50, 43)
        assert not np.array_equal(r1.energy, r3.energy)

    def test_record_internal_consistency(self):
        obj = quadratic_new(random_spd(4, 7))
        noise = NoiseModel.gaussian(4, 0.5)
        sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
        rec = run_trajectory(obj, noise, "sgdm", sched, 30, 0)
        path = ("x", "g", "grad")
        ref, _, _ = reference_ensemble(obj, noise, sched, 30, 1, 0, record=path)
        x, g, grad = (ref[name][:, 0] for name in path)
        np.testing.assert_allclose(rec.f_gap, obj.f_gap(x[:31]))
        np.testing.assert_allclose(rec.eta, schedule_eval(sched, np.arange(31)))
        np.testing.assert_allclose(rec.grad_norm, np.linalg.norm(grad, axis=1))
        np.testing.assert_allclose(rec.noise_norm, np.linalg.norm(grad - g, axis=1))
        # the noise term of descent_rhs is 4 sqrt(eta_k/k) <theta_k, tau_k>
        # with tau_k = k (x_k - x_{k-1}) + (x_k - x*)
        for k in (1, 10, 30):
            tau = k * (x[k] - x[k - 1]) + (x[k] - obj.xstar)
            r = math.sqrt(rec.eta[k] / k)
            expect = (4.0 * rec.eta[k] / k * (g[k - 1] @ g[k - 1])
                      - 2.0 / obj.lipschitz * r * (grad[k - 1] @ grad[k - 1])
                      - 2.0 * r * rec.f_gap[k] + 4.0 * r * ((grad[k - 1] - g[k - 1]) @ tau))
            np.testing.assert_allclose(rec.descent_rhs[k - 1], expect)

    def test_divergent_run_aborts_with_diagnostic(self):
        # the engine's message, with no NumPy warning raised before it
        obj = quadratic_new(np.eye(2) * 4.0)
        sched = StepSchedule(kind="constant", scale=1e8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match=r"k=\d+ in run\(s\) \[0\]"):
                run_trajectory(obj, NoiseModel.noiseless(2), "sgdm", sched, 2000, 0)

    @pytest.mark.parametrize("noise", ["gaussian", "none"])
    @pytest.mark.parametrize("algorithm", ["sgdm", "sgd", "acsa"])
    @pytest.mark.parametrize("problem", ["quadratic", "logreg"])
    def test_is_the_reference_column_bit_for_bit(self, problem, algorithm, noise):
        obj = problem_of(problem)
        sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
        rec = run_trajectory(obj, _NOISES[noise], algorithm, sched, 200, 3,
                             sgd_scale=0.3)
        ref, _, _ = reference_ensemble(obj, _NOISES[noise], sched, 200, 1, 3,
                                       algorithm=algorithm, sgd_scale=0.3,
                                       record=TrajectoryRecord.RECORD)
        want = {"f_gap": ref["f_gap"], "energy": ref["energy"], "descent_rhs": ref["descent_rhs"],
                "grad_norm": np.sqrt(ref["grad_sq"]), "noise_norm": np.sqrt(ref["theta_sq"])}
        for name, column in want.items():
            np.testing.assert_array_equal(getattr(rec, name), column[:, 0], err_msg=name)

    def test_csv_row_count(self, tmp_path):
        obj = quadratic_new(np.eye(2))
        rec = run_trajectory(obj, NoiseModel.noiseless(2), "sgdm",
                             StepSchedule(kind="anytime_log2", L=1.0), 1, 0)
        path = tmp_path / "t.csv"
        rec.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,f_gap,eta,lyapunov,descent_lhs,descent_rhs,grad_norm,noise_norm"
        assert len(lines) == 2  # header + one step

    def test_unknown_algorithm(self):
        obj = quadratic_new(np.eye(2))
        with pytest.raises(ValueError):
            run_trajectory(obj, NoiseModel.noiseless(2), "adam",
                           StepSchedule(kind="constant", scale=0.1), 5, 0)


class TestRunEnsemble:
    def test_matches_single_runs(self):
        """Each ensemble column reproduces the run-at-a-time trajectory
        seeded with the same (master, index) pair."""
        obj = quadratic_new(random_spd(3, 0))
        noise = NoiseModel.gaussian(3, 1.0)
        sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
        fields = ("f_gap", "energy", "theta")
        tr = run_ensemble(obj, noise, sched, K=40, M=4, master_seed=9, record=fields)
        f_gap, energy, theta_sq = tr.collect("f_gap", "energy", "theta_sq")
        for i in range(4):
            ref, _, ref_cur = reference_ensemble(obj, noise, sched, 40, 1, 9, record=fields,
                                                 first_run=i)
            np.testing.assert_allclose(f_gap[:, i], ref["f_gap"][:, 0], rtol=1e-10,
                                       atol=1e-13)
            np.testing.assert_allclose(energy[:, i], ref["energy"][:, 0], rtol=1e-10,
                                       atol=1e-12)
            np.testing.assert_allclose(
                theta_sq[:, i], ref["theta_sq"][:, 0], rtol=1e-10, atol=1e-13
            )
            np.testing.assert_allclose(tr.x_cur_final[i], ref_cur[0], rtol=1e-10)

    def test_noiseless_ensemble_builds_no_generators(self, monkeypatch):
        from sgdmlab import optimizers

        obj = quadratic_new(random_spd(2, 1))
        sched = StepSchedule(kind="constant", scale=0.05)
        ref, = run_ensemble(obj, NoiseModel.noiseless(2), sched, K=30, M=3,
                            master_seed=4).collect("f_gap")

        def no_generators(*args):
            raise AssertionError("a noiseless ensemble draws nothing")

        monkeypatch.setattr(optimizers, "rngs_for", no_generators)
        got, = run_ensemble(obj, NoiseModel.noiseless(2), sched, K=30, M=3,
                            master_seed=4).collect("f_gap")
        np.testing.assert_array_equal(got, ref)

    def test_chunked_noise_stream_equals_per_step_draws(self):
        """Drawing an (n, d) block consumes the generator stream exactly like
        n successive (d,) draws, so chunking cannot change results."""
        noise = NoiseModel.gaussian(3, 2.0)
        block = noise.sample(rng_for(5, 0), 17)
        rng = rng_for(5, 0)
        singles = np.stack([noise.sample(rng) for _ in range(17)])
        np.testing.assert_array_equal(block, singles)

    def test_chunk_size_does_not_change_results(self):
        obj = quadratic_new(random_spd(2, 1))
        noise = NoiseModel.gaussian(2, 1.0)
        sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
        a, = run_ensemble(obj, noise, sched, K=30, M=3, master_seed=0, chunk=7).collect("f_gap")
        b, = run_ensemble(obj, noise, sched, K=30, M=3, master_seed=0,
                          chunk=512).collect("f_gap")
        np.testing.assert_array_equal(a, b)

    def test_warm_start_segment_continues_a_run(self):
        obj = quadratic_new(random_spd(2, 2))
        sched = StepSchedule(kind="constant", scale=0.05)
        noise = NoiseModel.noiseless(2)
        full = reference_ensemble(obj, noise, sched, 20, 1, 0, record=("x",))[0]["x"][:, 0]
        seg = run_ensemble(obj, noise, sched, K=10, M=1, master_seed=0,
                           x0=full[10], x_prev0=full[9], k_start=10)
        seg.collect()
        np.testing.assert_allclose(seg.x_cur_final[0], full[20], rtol=1e-12)

    def test_sgd_ensemble_matches_formula(self):
        obj = quadratic_new(np.eye(1))
        noise = NoiseModel.noiseless(1)
        sched = StepSchedule(kind="constant", scale=1.0)
        tr = run_ensemble(obj, noise, sched, K=3, M=1, master_seed=0,
                          algorithm="sgd", sgd_scale=0.5, x0=np.array([1.0]))
        tr.collect()
        x = 1.0
        for k in (1, 2, 3):
            x = x - 0.5 / math.sqrt(k) * x
        assert tr.x_cur_final[0, 0] == pytest.approx(x, rel=1e-14)

    @pytest.mark.parametrize("var", [0.0, 1.0])
    def test_step_fields_match_single_runs(self, var):
        """Recorded step fields reproduce run-at-a-time references, in the
        same k indexing."""
        obj = quadratic_new(random_spd(3, 4))
        noise = NoiseModel.gaussian(3, var)
        sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
        tr = run_ensemble(obj, noise, sched, K=25, M=3, master_seed=2,
                          record=("f_gap", "descent"), chunk=10)
        names = ("f_gap", "theta_sq", "theta_tau", "grad_sq", "descent_rhs")
        got = dict(zip(names, tr.collect(*names)))
        assert got["f_gap"].shape == (26, 3)
        assert got["descent_rhs"].shape == got["grad_sq"].shape == (25, 3)
        for i in range(3):
            ref, _, _ = reference_ensemble(obj, noise, sched, 25, 1, 2,
                                           record=("f_gap", "descent"), first_run=i)
            for name, want in ref.items():
                np.testing.assert_allclose(got[name][:, i], want[:, 0],
                                           rtol=1e-10, atol=1e-13, err_msg=name)

    def test_noiseless_noise_terms_vanish(self):
        obj = quadratic_new(np.eye(2))
        sched = StepSchedule(kind="anytime_log2", L=1.0)
        tr = run_ensemble(obj, NoiseModel.noiseless(2), sched, K=5, M=2, master_seed=0,
                          record=("descent",))
        theta_sq, theta_tau, grad_sq = tr.collect("theta_sq", "theta_tau", "grad_sq")
        assert not theta_sq.any() and not theta_tau.any()
        assert grad_sq.all()

    def test_step_fields_only_when_requested(self):
        obj = quadratic_new(np.eye(2))
        sched = StepSchedule(kind="anytime_log2", L=1.0)
        with run_ensemble(obj, NoiseModel.gaussian(2, 1.0), sched, K=5, M=2,
                          master_seed=0) as stream:
            b = next(iter(stream))
        assert b.theta_sq is None and b.grad_sq is None and b.descent_rhs is None
        assert b.f_gap.shape == (6, 2)
        with run_ensemble(obj, NoiseModel.gaussian(2, 1.0), sched, K=5, M=2, master_seed=0,
                          record=("theta",)) as stream:
            b = next(iter(stream))
        assert b.theta_sq.shape == (5, 2) and b.descent_rhs is None
        with pytest.raises(ValueError, match="descent_rhs is not recorded"):
            run_ensemble(obj, NoiseModel.gaussian(2, 1.0), sched, K=5, M=2, master_seed=0,
                         record=("theta",)).collect("theta_sq", "descent_rhs")

    def test_record_is_run_zero_of_a_batch(self):
        obj = quadratic_new(random_spd(3, 5))
        noise = NoiseModel.gaussian(3, 2.0)
        sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
        stream = run_ensemble(obj, noise, sched, 30, 2, 4, record=TrajectoryRecord.RECORD)
        col = TrajectoryRecord.of(stream)
        assert len(list(col.fold(stream))) == 1
        one = run_trajectory(obj, noise, "sgdm", sched, 30, 4)
        for name in ("eta", "f_gap", "energy", "descent_rhs", "grad_norm", "noise_norm"):
            np.testing.assert_array_equal(getattr(col, name), getattr(one, name), err_msg=name)
        ref, _, _ = reference_ensemble(obj, noise, sched, 30, 1, 4, record=("x", "g", "grad"))
        x, g, grad = (ref[name][:, 0] for name in ("x", "g", "grad"))
        # the per-step quantities, one step at a time from the scalar formulas
        energy = [discrete_energy(x[k + 1], x[k], k, col.eta[k], col.f_gap[k], obj.xstar)
                  for k in range(31)]
        rhs = [descent_rhs(x[k], x[k - 1], g[k - 1], grad[k - 1], col.f_gap[k], k, col.eta[k],
                           obj.lipschitz, obj.xstar) for k in range(1, 31)]
        want = {"energy": energy, "descent_rhs": rhs,
                "noise_norm": np.linalg.norm(grad - g, axis=1)}
        for name, value in want.items():
            np.testing.assert_allclose(getattr(col, name), value,
                                       rtol=1e-9, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("problem", ["quadratic", "logreg"])
    def test_objective_without_fused_oracle_gives_the_same_trace(self, problem):
        if problem == "quadratic":
            obj = quadratic_new(random_spd(3, 8))
        else:
            obj = logreg_new(*synthetic_blobs(40, 3, seed=5), refine_tol=None)
        plain = replace(obj, value_and_grad=None)
        noise = NoiseModel.gaussian(3, 0.3)
        sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
        a, b = (run_ensemble(o, noise, sched, K=60, M=4, master_seed=9, record=RECORDS)
                for o in (obj, plain))
        names = ("f_gap", "energy", "theta_sq", "theta_tau", "grad_sq", "descent_rhs")
        for name, x, y in zip(names, a.collect(*names), b.collect(*names)):
            np.testing.assert_array_equal(x, y, err_msg=name)
        for name in ("x_prev_final", "x_cur_final"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_recorded_gap_is_the_gap_of_the_recorded_iterate(self):
        obj = logreg_new(*synthetic_blobs(40, 3, seed=6), refine_tol=None)
        sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
        tr = run_ensemble(obj, NoiseModel.gaussian(3, 0.5), sched, K=30, M=3, master_seed=2)
        f_gap, = tr.collect("f_gap")
        x = reference_ensemble(obj, NoiseModel.gaussian(3, 0.5), sched, 30, 3, 2,
                               record=("x",))[0]["x"]
        for k in range(tr.K + 1):
            np.testing.assert_allclose(f_gap[k], obj.f_gap(x[k]), rtol=1e-12)

    def test_setup_keeps_at_most_the_counted_values_per_step(self):
        """The K cap counts _SETUP_VALUES float64-sized values per step: the
        set-up's tracemalloc peak for sgdm, whose set-up is the largest
        (sgd 64, acsa 96 bytes per step), grows by no more than that per
        step, to within the few KB of fixed allocations that vary from call
        to call. Both K are above the stream's block buffer rows."""
        obj = quadratic_new(np.eye(10))
        sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
        peaks = []
        for K in (40_000, 140_000):
            tracemalloc.start()
            try:
                stream = run_ensemble(obj, NoiseModel.gaussian(10, 0.1), sched, K, 1, 0,
                                      record=RECORDS)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            del stream
        per_step = (peaks[1] - peaks[0]) / 100_000
        assert per_step < 8 * _SETUP_VALUES + 0.5, per_step

    def test_generators_keep_at_most_the_counted_values_per_run(self):
        """The M cap counts _RNG_VALUES float64-sized values per run for its
        generator: the tracemalloc peak of building them grows by no more
        than that per run."""
        rngs_for(0, 10)
        peaks = []
        for M in (1_000, 5_000):
            tracemalloc.start()
            try:
                rngs = rngs_for(0, M)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            del rngs
        per_run = (peaks[1] - peaks[0]) / 4_000
        assert per_run < 8 * _RNG_VALUES, per_run

    @pytest.mark.parametrize("K, rows", [(1, 1), (512, 512), (513, 1024)])
    def test_an_oversized_M_is_refused_before_its_generators(self, monkeypatch, K, rows):
        """A run keeps its generator, its noise rows (two chunks' once K
        exceeds the chunk of 512) and five working rows of d values; the
        largest M within GRID_CAP gets to rngs_for, and one more run is
        refused before it."""
        def refuse(*args):
            raise AssertionError("rngs_for reached")

        monkeypatch.setattr(optimizers, "rngs_for", refuse)
        obj = quadratic_new(np.eye(2))
        noise, sched = NoiseModel.gaussian(2, 0.1), StepSchedule(kind="constant", scale=0.1)
        M = GRID_CAP // (5 * 2 + _RNG_VALUES + rows * 2)
        with pytest.raises(AssertionError, match="rngs_for reached"):
            run_ensemble(obj, noise, sched, K=K, M=M, master_seed=0)
        with pytest.raises(ValueError, match=f"^M={M + 1} runs would keep more than {GRID_CAP} "
                                             "values$"):
            run_ensemble(obj, noise, sched, K=K, M=M + 1, master_seed=0)

    def test_collect_refuses_arrays_over_the_cap_before_a_step(self):
        """f_gap of K = 100 000 steps and M = 700 runs would keep 7.0e7
        values, over GRID_CAP: refused at the call, before any oracle call."""
        def stepped(x):
            raise AssertionError("a step was taken")

        obj = replace(quadratic_new(np.eye(1)), grad=stepped, value_and_grad=stepped)
        stream = run_ensemble(obj, NoiseModel.noiseless(1),
                              StepSchedule(kind="constant", scale=0.1), K=100_000, M=700,
                              master_seed=0)
        with pytest.raises(ValueError, match=f"^1 field\\(s\\) of K=100000 steps and M=700 "
                                             f"runs would keep more than {GRID_CAP} values$"):
            stream.collect("f_gap")

    def test_validation(self):
        obj = quadratic_new(np.eye(2))
        noise = NoiseModel.noiseless(2)
        sched = StepSchedule(kind="constant", scale=0.1)
        with pytest.raises(ValueError):
            run_ensemble(obj, noise, sched, K=0, M=1, master_seed=0)
        # refused at the call, before the K-long step and coefficient arrays
        K = GRID_CAP // _SETUP_VALUES + 1
        with pytest.raises(ValueError, match=f"K={K} steps would keep more than {GRID_CAP}"):
            run_ensemble(obj, noise, sched, K=K, M=1, master_seed=0)
        # a misspelt or retired field name is refused, not silently unrecorded
        for record in (("energi", "thetta"), ("f_gap", "x"), ("g", "grad")):
            with pytest.raises(ValueError, match="accepted: f_gap, energy, theta, descent"):
                run_ensemble(obj, noise, sched, K=1, M=1, master_seed=0, record=record)
        with pytest.raises(ValueError, match="unknown algorithm 'adam'"):
            run_ensemble(obj, noise, sched, K=1, M=1, master_seed=0, algorithm="adam")
        # ACSA has no z_k to carry into a warm-started segment
        with pytest.raises(ValueError, match="k_start = 1"):
            run_ensemble(obj, noise, sched, K=1, M=1, master_seed=0, algorithm="acsa",
                         k_start=3)
        with pytest.raises(ValueError, match="x_prev0"):
            run_ensemble(obj, noise, sched, K=1, M=1, master_seed=0, algorithm="acsa",
                         x_prev0=np.zeros(2))
        # collect takes block field names, from a stream not iterated before
        stream = run_ensemble(obj, noise, sched, K=3, M=1, master_seed=0)
        with pytest.raises(ValueError, match="unknown field name"):
            stream.collect("x_cur_final")
        stream.collect()
        with pytest.raises(ValueError, match="not iterated before"):
            stream.collect("f_gap")


_PIPELINE_CASES = {
    # name: (noise, run_ensemble keyword arguments)
    "every-field": (NoiseModel.gaussian(3, 0.5), dict(M=4, record=RECORDS)),
    "sgd": (NoiseModel.gaussian(3, 0.5),
            dict(M=3, algorithm="sgd", sgd_scale=0.3, record=("f_gap", "descent"))),
    "warm-start": (NoiseModel.gaussian(3, 0.5),
                   dict(M=3, k_start=40, x0=np.full(3, 0.5), x_prev0=np.full(3, 0.6),
                        record=RECORDS)),
    "one-run": (NoiseModel.gaussian(3, 0.5), dict(M=1, record=("f_gap", "descent"))),
    "bounded": (NoiseModel.bounded_uniform(3, 0.8), dict(M=3, record=("f_gap", "theta"))),
    "noiseless": (NoiseModel.noiseless(3), dict(M=2, record=("f_gap", "energy", "descent"))),
    "x-only-state": (NoiseModel.gaussian(3, 0.5), dict(M=3, record=())),
}


class TestPipeline:
    """run_ensemble draws the next chunk's noise on a helper thread while it
    steps the current chunk; neither the chunk size nor the threads may
    change a single bit of the trace."""

    K = 600  # not a multiple of 7 or 512; 512 gives two chunks, 7 many

    @pytest.mark.parametrize("case", sorted(_PIPELINE_CASES))
    def test_trace_is_bit_equal_to_the_reference_loop_for_every_chunk(self, case):
        noise, kw = _PIPELINE_CASES[case]
        obj = quadratic_new(random_spd(3, 11))
        sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
        ref, ref_prev, ref_cur = reference_ensemble(obj, noise, sched, self.K,
                                                    master_seed=6, **kw)
        for chunk in (1, 7, 512):
            tr = run_ensemble(obj, noise, sched, self.K, master_seed=6, chunk=chunk, **kw)
            for name, got in zip(ref, tr.collect(*ref)):
                np.testing.assert_array_equal(got, ref[name], err_msg=f"{name}, chunk={chunk}")
            np.testing.assert_array_equal(tr.x_prev_final, ref_prev)
            np.testing.assert_array_equal(tr.x_cur_final, ref_cur)

    def test_no_helper_thread_outlives_a_normal_return(self):
        obj = quadratic_new(np.eye(2))
        sched = StepSchedule(kind="anytime_log2", L=1.0)
        before = threading.active_count()
        run_ensemble(obj, NoiseModel.gaussian(2, 1.0), sched, 100, 3, 0, chunk=8).collect()
        assert threading.active_count() == before

    def test_no_helper_thread_outlives_a_divergence(self):
        obj = quadratic_new(np.eye(2) * 4.0)
        sched = StepSchedule(kind="constant", scale=1e12)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="k="):
            run_ensemble(obj, NoiseModel.gaussian(2, 1.0), sched, 2000, 3, 0, chunk=64).collect()
        assert threading.active_count() == before

    def test_an_error_in_a_helper_draw_is_reraised_in_the_caller(self, monkeypatch):
        class DrawError(RuntimeError):
            pass

        sample = NoiseModel.sample
        helper_drew = threading.Event()
        threads = set()

        def flaky(self, rng, n=None):
            threads.add(threading.current_thread().name)
            if threading.current_thread() is not threading.main_thread():
                helper_drew.set()
                raise DrawError("draw failed")
            helper_drew.wait(timeout=10.0)  # let the helper reach its first draw
            return sample(self, rng, n)

        monkeypatch.setattr(NoiseModel, "sample", flaky)
        obj = quadratic_new(np.eye(2))
        sched = StepSchedule(kind="anytime_log2", L=1.0)
        before = threading.active_count()
        with pytest.raises(DrawError, match="draw failed"):
            run_ensemble(obj, NoiseModel.gaussian(2, 1.0), sched, 100, 4, 0, chunk=8).collect()
        assert threading.active_count() == before
        assert "sgdmlab-noise" in threads

    def test_single_chunk_calls_start_no_thread(self, monkeypatch):
        started = []
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self: started.append(self.name))
        obj = quadratic_new(np.eye(2))
        sched = StepSchedule(kind="anytime_log2", L=1.0)
        run_ensemble(obj, NoiseModel.gaussian(2, 1.0), sched, 512, 3, 0, chunk=512).collect()
        run_ensemble(obj, NoiseModel.noiseless(2), sched, 600, 3, 0, chunk=7).collect()
        assert started == []


_NOISES = {"gaussian": NoiseModel.gaussian(3, 0.5), "bounded": NoiseModel.bounded_uniform(3, 0.8),
           "none": NoiseModel.noiseless(3)}


def problem_of(name):
    if name == "quadratic":
        return quadratic_new(random_spd(3, 11))
    return logreg_new(*synthetic_blobs(40, 3, seed=5), refine_tol=None)


def assert_trace_equals_reference(obj, noise, K, chunks, **kw):
    sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
    ref, ref_prev, ref_cur = reference_ensemble(obj, noise, sched, K, master_seed=6, **kw)
    for chunk in chunks:
        tr = run_ensemble(obj, noise, sched, K, master_seed=6, chunk=chunk, **kw)
        for name, got in zip(ref, tr.collect(*ref)):
            np.testing.assert_array_equal(got, ref[name], err_msg=f"{name}, chunk={chunk}")
        np.testing.assert_array_equal(tr.x_prev_final, ref_prev)
        np.testing.assert_array_equal(tr.x_cur_final, ref_cur)


class TestTraceMatrix:
    """Batched seeding, the gradient-only step, the logistic fused oracle
    and f_gap/energy evaluated per block of stored iterates reproduce the
    reference loop bit for bit."""

    @pytest.mark.parametrize("start", ["cold", "warm"])
    @pytest.mark.parametrize("algorithm", ["sgdm", "sgd"])
    @pytest.mark.parametrize("noise", sorted(_NOISES))
    @pytest.mark.parametrize("problem", ["quadratic", "logreg"])
    def test_every_field_for_chunk_1_7_512(self, problem, noise, algorithm, start):
        kw = dict(M=4, algorithm=algorithm, sgd_scale=0.3, record=RECORDS)
        if start == "warm":
            kw.update(k_start=40, x0=np.full(3, 0.5), x_prev0=np.full(3, 0.6))
        assert_trace_equals_reference(problem_of(problem), _NOISES[noise], 600, (1, 7, 512),
                                      **kw)

    @pytest.mark.parametrize("noise", sorted(_NOISES))
    @pytest.mark.parametrize("problem", ["quadratic", "logreg"])
    def test_acsa_every_field_for_chunk_1_7_512(self, problem, noise):
        # ACSA runs from a cold start only
        assert_trace_equals_reference(problem_of(problem), _NOISES[noise], 600, (1, 7, 512),
                                      M=4, algorithm="acsa", record=RECORDS)

    @pytest.mark.parametrize("record", [("energy",), ("f_gap",), ("theta",), ("descent",),
                                        RECORDS])
    @pytest.mark.parametrize("problem", ["quadratic", "logreg"])
    def test_many_runs_take_several_segments_per_chunk(self, problem, record):
        # 1000 runs x 3 coordinates: a few steps per block of stored iterates,
        # a number that does not divide the chunk
        assert_trace_equals_reference(problem_of(problem), _NOISES["gaussian"], 100, (64,),
                                      M=1000, record=record)


class TestContinuation:
    """Segments that share ``rngs`` continue each other bit for bit."""

    @pytest.mark.parametrize("algorithm", ["sgdm", "sgd"])
    @pytest.mark.parametrize("problem", ["quadratic", "logreg"])
    @pytest.mark.parametrize("split", [17, 21])  # neither is a multiple of chunk = 7
    def test_two_segments_equal_one_call(self, problem, algorithm, split):
        obj, noise = problem_of(problem), _NOISES["gaussian"]
        sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
        K, M = 60, 5
        kw = dict(M=M, master_seed=9, algorithm=algorithm, sgd_scale=0.3, chunk=7)
        one = run_ensemble(obj, noise, sched, K=K, **kw)
        one_gap, = one.collect("f_gap")
        rngs = rngs_for(9, M)
        head = run_ensemble(obj, noise, sched, K=split, record=(), rngs=rngs, **kw)
        assert all(b.f_gap is None for b in head)
        tail = run_ensemble(obj, noise, sched, K=K - split, k_start=split + 1,
                            x0=head.x_cur_final, x_prev0=head.x_prev_final,
                            rngs=rngs, **kw)
        tail_gap, = tail.collect("f_gap")
        np.testing.assert_array_equal(tail_gap, one_gap[split:])
        np.testing.assert_array_equal(tail.x_prev_final, one.x_prev_final)
        np.testing.assert_array_equal(tail.x_cur_final, one.x_cur_final)

    @pytest.mark.parametrize("n", [2, 4])
    def test_generator_count_must_match_runs(self, n):
        obj = quadratic_new(np.eye(2))
        sched = StepSchedule(kind="constant", scale=0.1)
        with pytest.raises(ValueError, match=f"got {n} generators for 3 runs"):
            run_ensemble(obj, NoiseModel.gaussian(2, 1.0), sched, K=5, M=3,
                         master_seed=0, rngs=rngs_for(0, n))


class TestDivergence:
    @pytest.mark.parametrize("chunk", [1, 16, 512])
    def test_message_names_the_first_nonfinite_step_and_its_runs(self, chunk):
        # an unstable gain (eta_k ~ k^3) that grows slowly, so each run's
        # noise decides the step at which it overflows
        obj = quadratic_new(np.diag([1.0, 3.0]))
        sched = StepSchedule(kind="custom", fn=lambda k: 0.6 * np.maximum(k, 1.0) ** 3)
        noise = NoiseModel.gaussian(2, 1.0)
        k, runs = first_nonfinite_step(obj, noise, sched, 3000, 6, 4)
        assert k > 512 and 1 < len(runs) < 6
        with pytest.raises(FloatingPointError) as err:
            run_ensemble(obj, noise, sched, 3000, 6, 4, chunk=chunk).collect()
        assert str(err.value) == (f"iterate x_{k + 1} became non-finite at step k={k} "
                                  f"in run(s) {runs}")

    def test_no_numpy_warning_on_the_way(self):
        obj = quadratic_new(np.eye(2) * 4.0)
        sched = StepSchedule(kind="constant", scale=1e12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError):
                run_ensemble(obj, NoiseModel.noiseless(2), sched, 2000, 2, 0,
                             record=RECORDS).collect()


def test_kernel_coefficients_are_the_noise_multiplier_bit_for_bit():
    """The kernel's per-step coefficients and sgdm_noise_multiplier come from
    one formula; both equal the scalar expression of a single step."""
    sched = StepSchedule(kind="anytime_log2", L=2.0)
    ks = np.arange(1, 10_001)
    eta = schedule_eval(sched, ks)
    momentum, gain = _sgdm_coefficients(eta, ks)
    np.testing.assert_array_equal(gain, sgdm_noise_multiplier(sched, ks))
    # eta from the same vectorized call: a scalar np.log may differ by an ulp
    scalar_gain = [2.0 * np.sqrt(e) / ((k + 2.0) * np.sqrt(k))
                   for e, k in zip(eta, ks.tolist())]
    np.testing.assert_array_equal(gain, scalar_gain)
    np.testing.assert_array_equal(momentum, [k / (k + 2.0) for k in ks.tolist()])


def test_noise_multiplier_formula():
    sched = StepSchedule(kind="anytime_log2", L=2.0)
    k = 7
    eta = schedule_eval(sched, k)
    assert sgdm_noise_multiplier(sched, k) == pytest.approx(
        2.0 * math.sqrt(eta) / ((k + 2) * math.sqrt(k))
    )
