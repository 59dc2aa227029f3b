import math

import numpy as np
import pytest

from sgdmlab.continuous import (
    OdeParams,
    l2_limit_estimate,
    ode_integrate,
    ode_rate_check,
    sde_integrate,
    sde_sample_paths,
    sgdm_warm_start,
)
from sgdmlab.optimizers import StepSchedule, run_ensemble, run_trajectory
from sgdmlab.problems import NoiseModel, quadratic_new

from test_problems import random_spd


class TestOdeParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="T0"):
            OdeParams(T0=0.0, T=1.0)
        with pytest.raises(ValueError, match="T"):
            OdeParams(T0=1.0, T=1.0)
        with pytest.raises(ValueError, match="dt"):
            OdeParams(T0=1.0, T=2.0, dt=-0.1)

    def test_default_step_scales_with_t0(self):
        assert OdeParams(T0=2.0, T=3.0).step == pytest.approx(2e-3)
        assert OdeParams(T0=1.0, T=3.0, dt=0.01).step == 0.01

    def test_rate_hypotheses(self):
        assert OdeParams(p=1.0, alpha=1.5, T0=1, T=2).rate_hypotheses_hold()
        assert not OdeParams(p=0.5, alpha=1.0, T0=1, T=2).rate_hypotheses_hold()


class TestOdeIntegrate:
    def test_euler_equation_closed_form(self):
        """For alpha=2 and a scalar quadratic the system is an Euler equation
        t^2 X'' + 2 t X' + 2 lam X = 0 with exact solution c1 t^r1 + c2 t^r2."""
        lam = 1.0 / 16.0
        obj = quadratic_new(np.array([[lam]]))
        params = OdeParams(p=1.0, alpha=2.0, T0=1.0, T=10.0, dt=1e-3)
        sol = ode_integrate(obj, params, np.array([1.0]), np.array([0.0]))
        disc = math.sqrt(1.0 - 8.0 * lam)
        r1, r2 = (-1.0 + disc) / 2.0, (-1.0 - disc) / 2.0
        # X(1)=1, X'(1)=0  =>  c1 r1 + c2 r2 = 0, c1 + c2 = 1
        c1 = -r2 / (r1 - r2)
        c2 = 1.0 - c1
        exact = c1 * sol.t**r1 + c2 * sol.t**r2
        np.testing.assert_allclose(sol.X[:, 0], exact, atol=1e-10)

    def test_rk4_self_convergence_order(self):
        obj = quadratic_new(random_spd(3, 0))
        x0, v0 = np.ones(3), np.zeros(3)
        ends = []
        for dt in (4e-3, 2e-3, 1e-3):
            params = OdeParams(p=1.0, alpha=1.5, T0=1.0, T=3.0, dt=dt)
            ends.append(ode_integrate(obj, params, x0, v0).X[-1])
        e1 = np.linalg.norm(ends[0] - ends[1])
        e2 = np.linalg.norm(ends[1] - ends[2])
        assert 8.0 < e1 / e2 < 32.0  # fourth-order: ratio near 16

    def test_grid_and_energy_shape(self):
        obj = quadratic_new(np.eye(2))
        params = OdeParams(T0=1.0, T=2.0, dt=0.01)
        sol = ode_integrate(obj, params, np.ones(2), np.zeros(2))
        assert sol.t[0] == 1.0 and sol.t[-1] == pytest.approx(2.0)
        assert len(sol.t) == 101
        assert sol.energy.shape == (101,)
        w = sol.X[0] + sol.t[0] * sol.V[0]
        expect0 = w @ w + 4.0 * sol.t[0] ** 0.5 * obj.f_gap(sol.X[0])
        assert sol.energy[0] == pytest.approx(float(expect0))

    def test_nonfinite_abort_names_time(self):
        obj = quadratic_new(np.eye(1))

        def bad_grad(x):
            return x * 1e160

        from dataclasses import replace
        bad = replace(obj, grad=bad_grad)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="t="):
                ode_integrate(bad, OdeParams(T0=1.0, T=2.0, dt=0.1),
                              np.ones(1), np.zeros(1))

    def test_csv_output(self, tmp_path):
        obj = quadratic_new(np.eye(2))
        sol = ode_integrate(obj, OdeParams(T0=1.0, T=1.1, dt=0.01), np.ones(2), np.zeros(2))
        path = tmp_path / "ode.csv"
        sol.to_csv(path, obj)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,f_gap,energy"
        assert len(lines) == 12


class TestOdeRateCheck:
    @pytest.mark.parametrize("p,alpha", [(1.0, 1.5), (1.0, 2.0), (2.0, 1.0), (2.0, 1.5)])
    def test_energy_monotone_and_rate(self, p, alpha):
        obj = quadratic_new(random_spd(4, 1))
        params = OdeParams(p=p, alpha=alpha, T0=1.0, T=20.0, dt=1e-3)
        sol = ode_integrate(obj, params, np.ones(4), np.zeros(4))
        rep = ode_rate_check(sol, obj, params)
        assert rep["passed"], rep

    def test_rejects_out_of_scope_exponents(self):
        obj = quadratic_new(np.eye(2))
        params = OdeParams(p=0.5, alpha=1.0, T0=1.0, T=2.0, dt=0.01)
        sol = ode_integrate(obj, params, np.ones(2), np.zeros(2))
        with pytest.raises(ValueError, match="alpha"):
            ode_rate_check(sol, obj, params)


class TestSde:
    def test_frozen_coefficient_update_matches_hand_loop(self):
        obj = quadratic_new(np.array([[2.0]]))
        eta = 0.05
        t, X, V = sde_integrate(obj, eta, 1.0, 2.0, seed=0,
                                x0=np.array([1.0]), v0=np.array([0.5]))
        rng = np.random.default_rng(np.random.SeedSequence(entropy=0, spawn_key=(0,)))
        x, v = 1.0, 0.5
        for j, tk in enumerate(t[:-1]):
            dw = math.sqrt(eta) * rng.standard_normal(1)[0]
            x, v = (
                x + eta * v,
                v - (2 * eta / tk) * v - (2 * eta / tk**1.5) * (2.0 * x)
                - (2 * math.sqrt(eta) / tk**1.5) * dw,
            )
            assert X[j + 1, 0] == pytest.approx(x, rel=1e-12)
            assert V[j + 1, 0] == pytest.approx(v, rel=1e-12)

    def test_zero_noise_is_deterministic(self):
        obj = quadratic_new(np.eye(2))
        a = sde_integrate(obj, 0.1, 1.0, 2.0, 0, np.ones(2), np.zeros(2), noise_scale=0.0)
        b = sde_integrate(obj, 0.1, 1.0, 2.0, 99, np.ones(2), np.zeros(2), noise_scale=0.0)
        np.testing.assert_array_equal(a[1], b[1])

    def test_grid_endpoints(self):
        obj = quadratic_new(np.eye(1))
        t, X, V = sde_integrate(obj, 0.25, 1.0, 2.0, 0, np.ones(1), np.zeros(1))
        np.testing.assert_allclose(t, [1.0, 1.25, 1.5, 1.75, 2.0])
        assert X.shape == (5, 1)

    def test_marginal_moments_track_discrete_iterates(self):
        """The SDE grid marginals and the constant-stepsize momentum iterates
        agree to O(eta): with eta = 0.005 the mean and standard deviation at
        T = 2 must match within Monte-Carlo error plus an O(eta) allowance."""
        obj = quadratic_new(np.array([[1.0]]))
        eta, M = 0.005, 3000
        k0, kT = round(1.0 / eta), round(2.0 / eta)
        x_prev, x_cur, v0 = sgdm_warm_start(obj, eta, k0, np.ones(1))
        tr = run_ensemble(obj, NoiseModel.gaussian(1, 1.0),
                          StepSchedule(kind="constant", scale=eta),
                          K=kT - k0, M=M, master_seed=1, x0=x_cur, x_prev0=x_prev,
                          k_start=k0, record=())
        xd = tr.x_cur_final[:, 0]
        _, X, _ = sde_sample_paths(obj, eta, 1.0, 2.0, M, 2, x_cur, v0)
        xs = X[-1, :, 0]
        se_mean = math.hypot(xd.std() / math.sqrt(M), xs.std() / math.sqrt(M))
        assert abs(xd.mean() - xs.mean()) <= 3.0 * se_mean + eta
        assert abs(xd.std() / xs.std() - 1.0) <= 0.1


class TestWarmStart:
    def test_matches_noiseless_trajectory(self):
        obj = quadratic_new(random_spd(3, 2))
        eta, k0 = 0.05, 20
        sched = StepSchedule(kind="constant", scale=eta)
        rec = run_trajectory(obj, NoiseModel.noiseless(3), "sgdm", sched, k0, 0,
                             x0=np.ones(3))
        x_prev, x_cur, v = sgdm_warm_start(obj, eta, k0, np.ones(3))
        np.testing.assert_allclose(x_prev, rec.x[k0 - 1], rtol=1e-12)
        np.testing.assert_allclose(x_cur, rec.x[k0], rtol=1e-12)
        np.testing.assert_allclose(v, (rec.x[k0] - rec.x[k0 - 1]) / eta, rtol=1e-10)


class TestL2Limit:
    def test_rejects_eta_with_too_few_steps(self):
        obj = quadratic_new(np.eye(1))
        with pytest.raises(ValueError, match="too large"):
            l2_limit_estimate(obj, [0.5], 1.0, 2.0, 5, 0)

    def test_rejects_eta_off_the_grid(self):
        obj = quadratic_new(np.eye(1))
        # (4 - 1) / 7e-4 = 4285.71 steps: the discrete run would stop short of T
        with pytest.raises(ValueError, match="does not divide"):
            l2_limit_estimate(obj, [7e-4], 1.0, 4.0, 2, 0, dt=0.01)

    def test_accepts_etas_dividing_the_window(self):
        obj = quadratic_new(np.eye(1))
        rows = l2_limit_estimate(obj, [0.1, 0.05, 0.02, 0.01], 1.0, 4.0, 2, 0, dt=0.01)
        assert [r["eta"] for r in rows] == [0.1, 0.05, 0.02, 0.01]

    def test_rejects_nonpositive_runs(self):
        obj = quadratic_new(np.eye(1))
        with pytest.raises(ValueError, match="M"):
            l2_limit_estimate(obj, [0.1], 1.0, 4.0, 0, 0)

    def test_table_structure_and_decrease(self):
        obj = quadratic_new(random_spd(2, 0))
        rows = l2_limit_estimate(obj, [0.1, 0.05], 1.0, 4.0, 60, 5)
        assert [r["eta"] for r in rows] == [0.1, 0.05]
        assert all(r["runs"] == 60 for r in rows)
        assert all(r["mean_sq_dist"] > 0 and r["stderr"] > 0 for r in rows)
        gate = 2.0 * math.hypot(rows[0]["stderr"], rows[1]["stderr"])
        assert rows[1]["mean_sq_dist"] < rows[0]["mean_sq_dist"] + gate

    def test_noiseless_distance_is_pure_discretization(self):
        obj = quadratic_new(random_spd(2, 1))
        rows = l2_limit_estimate(obj, [0.1, 0.05], 1.0, 4.0, 3, 0, noisy=False)
        assert all(r["stderr"] == 0.0 for r in rows)
        assert rows[1]["mean_sq_dist"] < rows[0]["mean_sq_dist"]
