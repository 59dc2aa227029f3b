import math
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdmlab.optimizers import (
    _sgdm_coefficients,
    AcsaState,
    StepSchedule,
    TrajectoryRecord,
    acsa_step,
    run_ensemble,
    run_trajectory,
    schedule_eval,
    sgdm_noise_multiplier,
)
from sgdmlab.problems import NoiseModel, logreg_new, quadratic_new, synthetic_blobs
from sgdmlab.seeding import rng_for, rngs_for, seed_split

from reference import (
    SgdmState,
    descent_rhs,
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
        with pytest.raises(ValueError, match="epsilon"):
            StepSchedule(kind="epsilon_log", epsilon=1.5)
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

        # xs[k] = x_k, x_0 = x_1, as the kernel records the path
        xs = run_ensemble(obj, NoiseModel.noiseless(3), sched, K=40, M=1, master_seed=0,
                          x0=np.ones(3), record=("x",)).x[:, 0]

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
        L, gamma = obj.lipschitz, 0.7
        st = AcsaState.initial(np.ones(4), gamma, L)
        for _ in range(30):
            st = acsa_step(st, obj.grad)
        # independent re-implementation of the three-sequence scheme
        x, z = np.ones(4), np.ones(4)
        for k in range(1, 31):
            alpha = 2.0 / (k + 1.0)
            gam = 1.0 / (2.0 * L / k + gamma * math.sqrt(k))
            y = (1.0 - alpha) * x + alpha * z
            z = z - gam * obj.grad(y)
            x = (1.0 - alpha) * x + alpha * z
        np.testing.assert_allclose(st.x, x, rtol=1e-13)

    def test_acsa_simplified_gamma_variant(self):
        obj = quadratic_new(np.eye(2))
        st = AcsaState.initial(np.ones(2), 1.0, obj.lipschitz, simplified_gamma=True)
        st = acsa_step(st, obj.grad)
        # k=1: alpha=1, gamma_1=1, y=z0, z1=z0-grad(y), x1=z1
        np.testing.assert_allclose(st.x, np.zeros(2), atol=1e-15)

    def test_acsa_converges_on_quadratic(self):
        obj = quadratic_new(random_spd(5, 2))
        st = AcsaState.initial(np.ones(5), 0.5, obj.lipschitz)
        for _ in range(3000):
            st = acsa_step(st, obj.grad)
        assert obj.f_gap(st.x) < 1e-3


class TestRunTrajectory:
    def test_initialization_duplicates_first_iterate(self):
        obj = quadratic_new(random_spd(3, 0))
        rec = run_trajectory(obj, NoiseModel.noiseless(3), "sgdm",
                             StepSchedule(kind="anytime_log2", L=obj.lipschitz), 5, 0)
        np.testing.assert_array_equal(rec.x[0], rec.x[1])

    def test_deterministic_given_seed(self):
        obj = quadratic_new(random_spd(3, 0))
        noise = NoiseModel.gaussian(3, 1.0)
        sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
        r1 = run_trajectory(obj, noise, "sgdm", sched, 50, 42)
        r2 = run_trajectory(obj, noise, "sgdm", sched, 50, 42)
        np.testing.assert_array_equal(r1.x, r2.x)
        r3 = run_trajectory(obj, noise, "sgdm", sched, 50, 43)
        assert not np.array_equal(r1.x, r3.x)

    def test_record_internal_consistency(self):
        obj = quadratic_new(random_spd(4, 7))
        noise = NoiseModel.gaussian(4, 0.5)
        sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
        rec = run_trajectory(obj, noise, "sgdm", sched, 30, 0)
        np.testing.assert_allclose(rec.descent_lhs, np.diff(rec.energy), rtol=1e-12)
        np.testing.assert_allclose(rec.theta, rec.grad - rec.g)
        np.testing.assert_allclose(rec.f_gap, obj.f_gap(rec.x[:31]))
        np.testing.assert_allclose(rec.eta, schedule_eval(sched, np.arange(31)))
        # the noise term of descent_rhs is 4 sqrt(eta_k/k) <theta_k, tau_k>
        # with tau_k = k (x_k - x_{k-1}) + (x_k - x*)
        for k in (1, 10, 30):
            tau = k * (rec.x[k] - rec.x[k - 1]) + (rec.x[k] - obj.xstar)
            r = math.sqrt(rec.eta[k] / k)
            expect = (4.0 * rec.eta[k] / k * (rec.g[k - 1] @ rec.g[k - 1])
                      - 2.0 / obj.lipschitz * r * (rec.grad[k - 1] @ rec.grad[k - 1])
                      - 2.0 * r * rec.f_gap[k] + 4.0 * r * (rec.theta[k - 1] @ tau))
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
    @pytest.mark.parametrize("algorithm", ["sgdm", "sgd"])
    @pytest.mark.parametrize("problem", ["quadratic", "logreg"])
    def test_is_the_reference_column_bit_for_bit(self, problem, algorithm, noise):
        obj, path = problem_of(problem), ("x", "g", "grad", "f_gap")
        sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
        rec = run_trajectory(obj, _NOISES[noise], algorithm, sched, 200, seed_split(3, 0),
                             sgd_scale=0.3)
        ref, _, _ = reference_ensemble(obj, _NOISES[noise], sched, 200, 1, 3,
                                       algorithm=algorithm, sgd_scale=0.3, record=path)
        for name in path:
            np.testing.assert_array_equal(getattr(rec, name), ref[name][:, 0], err_msg=name)

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
        for i in range(4):
            ref, _, ref_cur = reference_ensemble(obj, noise, sched, 40, 1, 9, record=fields,
                                                 first_run=i)
            np.testing.assert_allclose(tr.f_gap[:, i], ref["f_gap"][:, 0], rtol=1e-10,
                                       atol=1e-13)
            np.testing.assert_allclose(tr.energy[:, i], ref["energy"][:, 0], rtol=1e-10,
                                       atol=1e-12)
            np.testing.assert_allclose(
                tr.theta_sq[:, i], ref["theta_sq"][:, 0], rtol=1e-10, atol=1e-13
            )
            np.testing.assert_allclose(tr.x_cur_final[i], ref_cur[0], rtol=1e-10)

    def test_noiseless_ensemble_builds_no_generators(self, monkeypatch):
        from sgdmlab import optimizers

        obj = quadratic_new(random_spd(2, 1))
        sched = StepSchedule(kind="constant", scale=0.05)
        ref = run_ensemble(obj, NoiseModel.noiseless(2), sched, K=30, M=3, master_seed=4)

        def no_generators(*args):
            raise AssertionError("a noiseless ensemble draws nothing")

        monkeypatch.setattr(optimizers, "rngs_for", no_generators)
        tr = run_ensemble(obj, NoiseModel.noiseless(2), sched, K=30, M=3, master_seed=4)
        np.testing.assert_array_equal(tr.f_gap, ref.f_gap)

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
        a = run_ensemble(obj, noise, sched, K=30, M=3, master_seed=0, chunk=7)
        b = run_ensemble(obj, noise, sched, K=30, M=3, master_seed=0, chunk=512)
        np.testing.assert_array_equal(a.f_gap, b.f_gap)

    def test_warm_start_segment_continues_a_run(self):
        obj = quadratic_new(random_spd(2, 2))
        sched = StepSchedule(kind="constant", scale=0.05)
        noise = NoiseModel.noiseless(2)
        full = reference_ensemble(obj, noise, sched, 20, 1, 0, record=("x",))[0]["x"][:, 0]
        seg = run_ensemble(obj, noise, sched, K=10, M=1, master_seed=0,
                           x0=full[10], x_prev0=full[9], k_start=10)
        np.testing.assert_allclose(seg.x_cur_final[0], full[20], rtol=1e-12)

    def test_sgd_ensemble_matches_formula(self):
        obj = quadratic_new(np.eye(1))
        noise = NoiseModel.noiseless(1)
        sched = StepSchedule(kind="constant", scale=1.0)
        tr = run_ensemble(obj, noise, sched, K=3, M=1, master_seed=0,
                          algorithm="sgd", sgd_scale=0.5, x0=np.array([1.0]))
        x = 1.0
        for k in (1, 2, 3):
            x = x - 0.5 / math.sqrt(k) * x
        assert tr.x_cur_final[0, 0] == pytest.approx(x, rel=1e-14)

    @pytest.mark.parametrize("var", [0.0, 1.0])
    def test_full_path_matches_single_runs(self, var):
        """Recorded x, g and grad columns reproduce run-at-a-time records,
        in the same k indexing."""
        obj = quadratic_new(random_spd(3, 4))
        noise = NoiseModel.gaussian(3, var)
        sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
        tr = run_ensemble(obj, noise, sched, K=25, M=3, master_seed=2,
                          record=("x", "g", "grad", "f_gap"), chunk=10)
        assert tr.x.shape == (27, 3, 3) and tr.g.shape == tr.grad.shape == (25, 3, 3)
        for i in range(3):
            ref, _, _ = reference_ensemble(obj, noise, sched, 25, 1, 2,
                                           record=("x", "g", "grad", "f_gap"), first_run=i)
            for name in ("x", "g", "grad", "f_gap"):
                np.testing.assert_allclose(getattr(tr, name)[:, i], ref[name][:, 0],
                                           rtol=1e-10, atol=1e-13, err_msg=name)

    def test_noiseless_g_is_not_a_view_of_grad(self):
        obj = quadratic_new(np.eye(2))
        sched = StepSchedule(kind="anytime_log2", L=1.0)
        tr = run_ensemble(obj, NoiseModel.noiseless(2), sched, K=5, M=2, master_seed=0,
                          record=("g", "grad"))
        np.testing.assert_array_equal(tr.g, tr.grad)
        assert not np.shares_memory(tr.g, tr.grad)

    def test_path_fields_only_when_requested(self):
        obj = quadratic_new(np.eye(2))
        sched = StepSchedule(kind="anytime_log2", L=1.0)
        tr = run_ensemble(obj, NoiseModel.gaussian(2, 1.0), sched, K=5, M=2, master_seed=0)
        assert tr.x is None and tr.g is None and tr.grad is None
        assert tr.f_gap.shape == (6, 2)

    def test_record_from_column_equals_run_trajectory(self):
        obj = quadratic_new(random_spd(3, 5))
        noise = NoiseModel.gaussian(3, 2.0)
        sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
        tr = run_ensemble(obj, noise, sched, K=30, M=2, master_seed=4,
                          record=("x", "g", "grad", "f_gap"))
        col = TrajectoryRecord.from_path(obj, "sgdm", sched, tr.x[:, 1], tr.g[:, 1],
                                         tr.grad[:, 1], tr.f_gap[:, 1], tr.eta)
        ref, _, _ = reference_ensemble(obj, noise, sched, 30, 1, 4, first_run=1,
                                       record=("x", "g", "grad", "f_gap", "energy", "theta"))
        x, g, grad, f_gap = (ref[name][:, 0] for name in ("x", "g", "grad", "f_gap"))
        energy = ref["energy"][:, 0]
        # the per-step quantities, one step at a time from the scalar formulas
        rhs = [descent_rhs(x[k], x[k - 1], g[k - 1], grad[k - 1], f_gap[k], k, tr.eta[k],
                           obj.lipschitz, obj.xstar) for k in range(1, 31)]
        tau = [k * (x[k] - x[k - 1]) + (x[k] - obj.xstar) for k in range(1, 31)]
        want = {"energy": energy, "descent_lhs": np.diff(energy), "descent_rhs": rhs,
                "theta": grad - g}
        for name in ("energy", "descent_lhs", "descent_rhs", "theta"):
            np.testing.assert_allclose(getattr(col, name), want[name],
                                       rtol=1e-9, atol=1e-12, err_msg=name)
        np.testing.assert_allclose(np.sum(col.theta * np.array(tau), axis=1),
                                   ref["theta_tau"][:, 0], rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("problem", ["quadratic", "logreg"])
    def test_objective_without_fused_oracle_gives_the_same_trace(self, problem):
        if problem == "quadratic":
            obj = quadratic_new(random_spd(3, 8))
        else:
            obj = logreg_new(*synthetic_blobs(40, 3, seed=5), refine_tol=None)
        plain = replace(obj, value_and_grad=None)
        noise = NoiseModel.gaussian(3, 0.3)
        sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
        fields = ("x", "g", "grad", "f_gap", "energy", "theta")
        a, b = (run_ensemble(o, noise, sched, K=60, M=4, master_seed=9, record=fields)
                for o in (obj, plain))
        for name in ("x", "g", "grad", "f_gap", "energy", "theta_sq", "theta_tau"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_recorded_gap_is_the_gap_of_the_recorded_iterate(self):
        obj = logreg_new(*synthetic_blobs(40, 3, seed=6), refine_tol=None)
        sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
        tr = run_ensemble(obj, NoiseModel.gaussian(3, 0.5), sched, K=30, M=3,
                          master_seed=2, record=("x", "f_gap"))
        for k in range(tr.K + 1):
            np.testing.assert_allclose(tr.f_gap[k], obj.f_gap(tr.x[k]), rtol=1e-12)

    def test_validation(self):
        obj = quadratic_new(np.eye(2))
        noise = NoiseModel.noiseless(2)
        sched = StepSchedule(kind="constant", scale=0.1)
        with pytest.raises(ValueError):
            run_ensemble(obj, noise, sched, K=0, M=1, master_seed=0)
        with pytest.raises(ValueError, match="k_start"):
            run_ensemble(obj, noise, sched, K=1, M=1, master_seed=0, k_start=3,
                         record=("x",))
        with pytest.raises(ValueError):
            run_ensemble(obj, noise, sched, K=1, M=1, master_seed=0, algorithm="acsa")


_PIPELINE_CASES = {
    # name: (noise, run_ensemble keyword arguments)
    "every-field": (NoiseModel.gaussian(3, 0.5),
                    dict(M=4, record=("f_gap", "energy", "theta", "x", "g", "grad"))),
    "sgd": (NoiseModel.gaussian(3, 0.5),
            dict(M=3, algorithm="sgd", sgd_scale=0.3, record=("f_gap", "x", "g", "grad"))),
    "warm-start": (NoiseModel.gaussian(3, 0.5),
                   dict(M=3, k_start=40, x0=np.full(3, 0.5), x_prev0=np.full(3, 0.6),
                        record=("f_gap", "energy", "theta"))),
    "one-run": (NoiseModel.gaussian(3, 0.5), dict(M=1, record=("f_gap", "x", "g"))),
    "bounded": (NoiseModel.bounded_uniform(3, 0.8), dict(M=3, record=("f_gap", "theta"))),
    "noiseless": (NoiseModel.noiseless(3), dict(M=2, record=("f_gap", "energy", "g"))),
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
            for name, want in ref.items():
                np.testing.assert_array_equal(getattr(tr, name), want,
                                              err_msg=f"{name}, chunk={chunk}")
            np.testing.assert_array_equal(tr.x_prev_final, ref_prev)
            np.testing.assert_array_equal(tr.x_cur_final, ref_cur)

    def test_no_helper_thread_outlives_a_normal_return(self):
        obj = quadratic_new(np.eye(2))
        sched = StepSchedule(kind="anytime_log2", L=1.0)
        before = threading.active_count()
        run_ensemble(obj, NoiseModel.gaussian(2, 1.0), sched, 100, 3, 0, chunk=8)
        assert threading.active_count() == before

    def test_no_helper_thread_outlives_a_divergence(self):
        obj = quadratic_new(np.eye(2) * 4.0)
        sched = StepSchedule(kind="constant", scale=1e12)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="k="):
            run_ensemble(obj, NoiseModel.gaussian(2, 1.0), sched, 2000, 3, 0, chunk=64)
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
            run_ensemble(obj, NoiseModel.gaussian(2, 1.0), sched, 100, 4, 0, chunk=8)
        assert threading.active_count() == before
        assert "sgdmlab-noise" in threads

    def test_single_chunk_calls_start_no_thread(self, monkeypatch):
        started = []
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self: started.append(self.name))
        obj = quadratic_new(np.eye(2))
        sched = StepSchedule(kind="anytime_log2", L=1.0)
        run_ensemble(obj, NoiseModel.gaussian(2, 1.0), sched, 512, 3, 0, chunk=512)
        run_ensemble(obj, NoiseModel.noiseless(2), sched, 600, 3, 0, chunk=7)
        assert started == []


_NOISES = {"gaussian": NoiseModel.gaussian(3, 0.5), "bounded": NoiseModel.bounded_uniform(3, 0.8),
           "none": NoiseModel.noiseless(3)}
_EVERY_FIELD = ("f_gap", "energy", "theta", "x", "g", "grad")


def problem_of(name):
    if name == "quadratic":
        return quadratic_new(random_spd(3, 11))
    return logreg_new(*synthetic_blobs(40, 3, seed=5), refine_tol=None)


def assert_trace_equals_reference(obj, noise, K, chunks, **kw):
    sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
    ref, ref_prev, ref_cur = reference_ensemble(obj, noise, sched, K, master_seed=6, **kw)
    for chunk in chunks:
        tr = run_ensemble(obj, noise, sched, K, master_seed=6, chunk=chunk, **kw)
        for name, want in ref.items():
            np.testing.assert_array_equal(getattr(tr, name), want,
                                          err_msg=f"{name}, chunk={chunk}")
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
        kw = dict(M=4, algorithm=algorithm, sgd_scale=0.3)
        if start == "warm":
            kw.update(k_start=40, x0=np.full(3, 0.5), x_prev0=np.full(3, 0.6),
                      record=("f_gap", "energy", "theta"))
        else:
            kw.update(record=_EVERY_FIELD)
        assert_trace_equals_reference(problem_of(problem), _NOISES[noise], 600, (1, 7, 512),
                                      **kw)

    @pytest.mark.parametrize("record", [("energy",), ("f_gap",), ("theta",), _EVERY_FIELD])
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
        rngs = rngs_for(9, M)
        head = run_ensemble(obj, noise, sched, K=split, record=(), rngs=rngs, **kw)
        tail = run_ensemble(obj, noise, sched, K=K - split, k_start=split + 1,
                            x0=head.x_cur_final, x_prev0=head.x_prev_final,
                            rngs=rngs, **kw)
        assert head.f_gap is None
        np.testing.assert_array_equal(tail.f_gap, one.f_gap[split:])
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
            run_ensemble(obj, noise, sched, 3000, 6, 4, chunk=chunk)
        assert str(err.value) == (f"iterate x_{k + 1} became non-finite at step k={k} "
                                  f"in run(s) {runs}")

    def test_no_numpy_warning_on_the_way(self):
        obj = quadratic_new(np.eye(2) * 4.0)
        sched = StepSchedule(kind="constant", scale=1e12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError):
                run_ensemble(obj, NoiseModel.noiseless(2), sched, 2000, 2, 0,
                             record=("f_gap", "energy", "theta", "x", "g", "grad"))


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
