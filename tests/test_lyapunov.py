import math

import numpy as np
import pytest

from sgdmlab.lyapunov import (
    DescentReport,
    check_descent,
    continuous_energy,
    descent_rhs,
    descent_rhs_along,
    discrete_energy,
    energy_along,
)
from sgdmlab.optimizers import StepSchedule, run_ensemble, run_trajectory, schedule_eval
from sgdmlab.problems import NoiseModel, quadratic_new
from sgdmlab.seeding import seed_split

from test_problems import random_spd


class TestDiscreteEnergy:
    def test_hand_computed_value(self):
        # k=2, x3=[0.5], x2=[0.7], eta=0.04, f_gap=0.3, x*=[0]:
        # v = 0.5 + 3*(0.5-0.7) = -0.1; E = 0.01 + 4*sqrt(3*0.04)*0.3
        val = discrete_energy(np.array([0.5]), np.array([0.7]), 2, 0.04, 0.3,
                              np.array([0.0]))
        assert val == pytest.approx(0.01 + 1.2 * math.sqrt(0.12), rel=1e-14)

    def test_zero_at_optimum(self):
        xs = np.array([1.0, -2.0])
        assert discrete_energy(xs, xs, 5, 0.1, 0.0, xs) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="eta"):
            discrete_energy(np.zeros(1), np.zeros(1), 1, 0.0, 0.1, np.zeros(1))
        with pytest.raises(ValueError, match="optimum"):
            discrete_energy(np.zeros(1), np.zeros(1), 1, 0.1, -1e-6, np.zeros(1))

    def test_energy_along_matches_scalar_version(self):
        obj = quadratic_new(random_spd(3, 0))
        sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
        rec = run_trajectory(obj, NoiseModel.gaussian(3, 1.0), "sgdm", sched, 20, 0)
        for k in (0, 1, 7, 20):
            expect = discrete_energy(rec.x[k + 1], rec.x[k], k, rec.eta[k],
                                     rec.f_gap[k], obj.xstar)
            assert rec.energy[k] == pytest.approx(expect, rel=1e-12)

    def test_initial_energy_with_duplicated_start(self):
        # x_0 = x_1 makes E(0) = ||x_1 - x*||^2 + 4 sqrt(eta_0) f_gap(x_0)
        obj = quadratic_new(np.eye(2))
        sched = StepSchedule(kind="anytime_log2", L=1.0)
        rec = run_trajectory(obj, NoiseModel.noiseless(2), "sgdm", sched, 3, 0)
        x0 = rec.x[0]
        expect = float(x0 @ x0) + 4.0 * math.sqrt(rec.eta[0]) * obj.f_gap(x0)
        assert rec.energy[0] == pytest.approx(expect, rel=1e-12)


class TestContinuousEnergy:
    def test_hand_computed_value(self):
        # p=1, alpha=1.5, t=4, X=[1], Xdot=[-0.25], x*=[0], f_gap=0.5:
        # w = 1 + 4*(-0.25) = 0; E = 0 + 2*2*4^0.5*0.5 = 4
        val = continuous_energy(np.array([1.0]), np.array([-0.25]), 4.0, 1.0, 1.5,
                                0.5, np.array([0.0]))
        assert val == pytest.approx(4.0)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            continuous_energy(np.zeros(1), np.zeros(1), 0.0, 1.0, 1.5, 0.0, np.zeros(1))


class TestDescentRhs:
    def test_coordinatewise_oracle(self):
        """Re-derive the bound term by term with plain Python floats."""
        rng = np.random.default_rng(0)
        d, k, eta, L = 4, 6, 0.03, 2.5
        x_k = rng.standard_normal(d)
        x_prev = rng.standard_normal(d)
        g = rng.standard_normal(d)
        grad = rng.standard_normal(d)
        xstar = rng.standard_normal(d)
        f_gap = 0.7
        r = math.sqrt(eta / k)
        g2 = sum(float(v) ** 2 for v in g)
        grad2 = sum(float(v) ** 2 for v in grad)
        inner = sum(
            (float(grad[i]) - float(g[i]))
            * (k * (float(x_k[i]) - float(x_prev[i])) + float(x_k[i]) - float(xstar[i]))
            for i in range(d)
        )
        expect = (4.0 * eta / k) * g2 - (2.0 / L) * r * grad2 - 2.0 * r * f_gap + 4.0 * r * inner
        got = descent_rhs(x_k, x_prev, g, grad, f_gap, k, eta, L, xstar)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_run_axis_matches_single_runs(self):
        obj = quadratic_new(random_spd(3, 6))
        sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
        recs = [run_trajectory(obj, NoiseModel.gaussian(3, 1.0), "sgdm", sched, 20, s)
                for s in range(3)]
        x, g, grad, f_gap = (np.stack([getattr(r, n) for r in recs], axis=1)
                             for n in ("x", "g", "grad", "f_gap"))
        eta = recs[0].eta
        energy = energy_along(x, eta, f_gap, obj.xstar)
        rhs = descent_rhs_along(x, g, grad, f_gap, eta, obj.lipschitz, obj.xstar)
        for i, rec in enumerate(recs):
            np.testing.assert_allclose(energy[:, i], rec.energy, rtol=1e-14)
            np.testing.assert_allclose(rhs[:, i], rec.descent_rhs, rtol=1e-12, atol=1e-15)

    def test_vectorized_matches_scalar(self):
        obj = quadratic_new(random_spd(3, 1))
        sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
        rec = run_trajectory(obj, NoiseModel.gaussian(3, 2.0), "sgdm", sched, 15, 3)
        vec = descent_rhs_along(rec.x, rec.g, rec.grad, rec.f_gap, rec.eta,
                                obj.lipschitz, obj.xstar)
        for k in (1, 8, 15):
            scalar = descent_rhs(rec.x[k], rec.x[k - 1], rec.g[k - 1], rec.grad[k - 1],
                                 rec.f_gap[k], k, rec.eta[k], obj.lipschitz, obj.xstar)
            assert vec[k - 1] == pytest.approx(scalar, rel=1e-12)

    def test_rejects_k_below_one(self):
        z = np.zeros(2)
        with pytest.raises(ValueError):
            descent_rhs(z, z, z, z, 0.0, 0, 0.1, 1.0, z)


class TestCheckDescent:
    def test_holds_pathwise_with_noise(self):
        obj = quadratic_new(random_spd(5, 0))
        sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
        rec = run_trajectory(obj, NoiseModel.gaussian(5, 4.0), "sgdm", sched, 500, 1)
        rep = check_descent(rec, obj.lipschitz, obj.xstar, obj.fstar)
        assert rep.passed
        assert rep.n_violations == 0
        assert rep.max_residual <= 1e-10

    def test_refuses_non_monotone_schedule(self):
        obj = quadratic_new(np.eye(2))
        sched = StepSchedule(kind="custom", fn=lambda k: 0.01 * (1.0 + 0.0 * k))
        rec = run_trajectory(obj, NoiseModel.noiseless(2), "sgdm", sched, 5, 0)
        with pytest.raises(ValueError, match="monotone"):
            check_descent(rec, obj.lipschitz, obj.xstar, obj.fstar)

    def test_warns_for_other_algorithms(self):
        obj = quadratic_new(np.eye(2))
        sched = StepSchedule(kind="sqrt_k", scale=0.1)
        rec = run_trajectory(obj, NoiseModel.noiseless(2), "sgd", sched, 5, 0)
        with pytest.warns(UserWarning, match="momentum"):
            check_descent(rec, obj.lipschitz, obj.xstar, obj.fstar)

    def test_re_references_external_fstar(self):
        """Passing a worse f* shifts every gap by the same constant; the
        report must use the caller's reference, not the recorded one."""
        obj = quadratic_new(random_spd(3, 2))
        sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
        rec = run_trajectory(obj, NoiseModel.noiseless(3), "sgdm", sched, 50, 0)
        shifted = check_descent(rec, obj.lipschitz, obj.xstar, obj.fstar - 0.1)
        baseline = check_descent(rec, obj.lipschitz, obj.xstar, obj.fstar)
        assert shifted.max_residual != pytest.approx(baseline.max_residual)

    def test_report_flags_injected_violation(self):
        residuals = np.array([-1.0, 5e-11, 2e-3, -0.5])
        energy = np.array([10.0, 9.0, 8.0, 7.0, 6.0])
        rep = DescentReport(residuals, energy, tol=1e-10)
        assert not rep.passed
        assert rep.n_violations == 1
        assert rep.argmax_k == 3
        assert rep.summary()["max_residual"] == pytest.approx(2e-3)

    def test_report_locates_worst_run_and_step(self):
        residuals = np.full((4, 3), -1.0)
        residuals[2, 1] = 3e-3  # k = 3, run 1
        residuals[0, 2] = 1e-3
        energy = np.full((5, 3), 10.0)
        rep = DescentReport(residuals, energy, tol=1e-10)
        assert (rep.argmax_k, rep.run) == (3, 1)
        assert rep.max_residual == pytest.approx(3e-3)
        assert rep.n_violations == 2
        assert rep.summary()["run"] == 1

    def test_batch_check_matches_per_run_checks(self):
        obj = quadratic_new(random_spd(4, 3))
        noise = NoiseModel.gaussian(4, 9.0)
        sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
        tr = run_ensemble(obj, noise, sched, K=80, M=4, master_seed=3,
                          record=("x", "g", "grad", "f_gap"))
        batch = check_descent(tr, obj.lipschitz, obj.xstar, obj.fstar)
        assert batch.residuals.shape == (80, 4)
        for i in range(4):
            rec = run_trajectory(obj, noise, "sgdm", sched, 80, seed_split(3, i))
            one = check_descent(rec, obj.lipschitz, obj.xstar, obj.fstar)
            np.testing.assert_allclose(batch.residuals[:, i], one.residuals,
                                       rtol=1e-8, atol=1e-12)

    def test_batch_check_needs_the_path(self):
        obj = quadratic_new(np.eye(2))
        sched = StepSchedule(kind="anytime_log2", L=1.0)
        tr = run_ensemble(obj, NoiseModel.noiseless(2), sched, K=5, M=2, master_seed=0)
        with pytest.raises(ValueError, match="x, g, grad"):
            check_descent(tr, obj.lipschitz, obj.xstar, obj.fstar)

    def test_report_tolerance_scales_with_energy(self):
        # a residual of 5e-10 is acceptable when |E(k)| ~ 10
        residuals = np.array([5e-10])
        energy = np.array([20.0, 10.0])
        rep = DescentReport(residuals, energy, tol=1e-10)
        assert rep.passed


def test_descent_bound_is_tight_direction():
    """The right-hand side must be negative once the iterates settle, so
    the energy actually decreases (not just bounded)."""
    obj = quadratic_new(random_spd(4, 4))
    sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
    rec = run_trajectory(obj, NoiseModel.noiseless(4), "sgdm", sched, 200, 0)
    assert np.all(np.diff(rec.energy) <= 1e-12)
    assert rec.energy[-1] < rec.energy[0]
