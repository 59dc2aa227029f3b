import math

import numpy as np
import pytest

from sgdmlab import continuous
from sgdmlab.continuous import OdeParams, ode_integrate
from sgdmlab.lyapunov import (
    DescentReport,
    check_descent,
    continuous_energy,
    descent_rhs_along,
    energy_along,
    noise_terms,
)
from sgdmlab.optimizers import StepSchedule, run_ensemble, run_trajectory, schedule_eval
from sgdmlab.problems import NoiseModel, quadratic_new
from sgdmlab.seeding import rng_for

from reference import descent_rhs, discrete_energy, reference_ensemble
from test_problems import random_spd


class TestDiscreteEnergy:
    """The term-by-term oracle in tests/reference.py, and energy_along on
    the same hand-made steps."""

    def test_hand_computed_value(self):
        # k=2, x3=[0.5], x2=[0.7], eta=0.04, f_gap=0.3, x*=[0]:
        # v = 0.5 + 3*(0.5-0.7) = -0.1; E = 0.01 + 4*sqrt(3*0.04)*0.3
        expect = 0.01 + 1.2 * math.sqrt(0.12)
        val = discrete_energy(np.array([0.5]), np.array([0.7]), 2, 0.04, 0.3,
                              np.array([0.0]))
        assert val == pytest.approx(expect, rel=1e-14)
        vec = energy_along(np.array([[0.7], [0.5]]), np.array([0.04]), np.array([0.3]),
                           np.array([0.0]), k0=2)
        assert vec[0] == pytest.approx(expect, rel=1e-14)

    def test_zero_at_optimum(self):
        xs = np.array([1.0, -2.0])
        assert discrete_energy(xs, xs, 5, 0.1, 0.0, xs) == 0.0
        assert energy_along(np.stack([xs, xs]), np.array([0.1]), np.zeros(1), xs, k0=5)[0] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="eta"):
            discrete_energy(np.zeros(1), np.zeros(1), 1, 0.0, 0.1, np.zeros(1))
        with pytest.raises(ValueError, match="optimum"):
            discrete_energy(np.zeros(1), np.zeros(1), 1, 0.1, -1e-6, np.zeros(1))

    def test_energy_along_matches_scalar_version(self):
        obj = quadratic_new(random_spd(3, 0))
        sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
        noise = NoiseModel.gaussian(3, 1.0)
        rec = run_trajectory(obj, noise, "sgdm", sched, 20, 0)
        x = reference_ensemble(obj, noise, sched, 20, 1, 0, record=("x",))[0]["x"][:, 0]
        for k in (0, 1, 7, 20):
            expect = discrete_energy(x[k + 1], x[k], k, rec.eta[k], rec.f_gap[k], obj.xstar)
            assert rec.energy[k] == pytest.approx(expect, rel=1e-12)

    def test_initial_energy_with_duplicated_start(self):
        # x_0 = x_1 makes E(0) = ||x_1 - x*||^2 + 4 sqrt(eta_0) f_gap(x_0)
        obj = quadratic_new(np.eye(2))
        sched = StepSchedule(kind="anytime_log2", L=1.0)
        rec = run_trajectory(obj, NoiseModel.noiseless(2), "sgdm", sched, 3, 0)
        x0 = np.ones(2)
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
        with pytest.raises(ValueError):  # one grid time of several
            continuous_energy(np.zeros((2, 1)), np.zeros((2, 1)), np.array([1.0, 0.0]),
                              1.0, 1.5, np.zeros(2), np.zeros(1))

    @pytest.mark.parametrize("p, alpha", [(1.0, 1.5), (2.0, 1.0)])
    def test_is_the_energy_of_a_batched_ode_solution(self, p, alpha, monkeypatch):
        """ode_integrate takes its energy from continuous_energy, bit for bit,
        one block of grid points at a time, and each grid point agrees with
        the formula written out for it."""
        calls = []

        def spy(X, V, t, p_, alpha_, f_gap, xstar):
            energy = continuous_energy(X, V, t, p_, alpha_, f_gap, xstar)
            calls.append((X.copy(), V.copy(), np.array(t), np.array(f_gap), energy))
            return energy

        monkeypatch.setattr(continuous, "continuous_energy", spy)
        obj = quadratic_new(random_spd(3, 2))
        params = OdeParams(p=p, alpha=alpha, T0=1.0, T=1.5, dt=1e-3)
        X0 = np.stack([np.ones(3), -0.5 * np.ones(3)])
        sol = ode_integrate(obj, params, X0, np.zeros((2, 3)))
        X, V, t, f_gap, got = (np.concatenate(parts) for parts in zip(*calls))
        assert len(calls) == 2  # 500 steps: t_0 and the first block, then the rest
        np.testing.assert_array_equal(X, sol.X)
        np.testing.assert_array_equal(f_gap, sol.f_gap)
        np.testing.assert_array_equal(t[:, 0], sol.t)
        np.testing.assert_array_equal(got, sol.energy)
        whole = continuous_energy(X, V, t, p, alpha, f_gap, obj.xstar)
        np.testing.assert_array_equal(whole, sol.energy)  # blocks change no bit
        for i, b in ((0, 0), (20, 1), (256, 0), (257, 1), (500, 0)):
            w = p * sol.X[i, b] + sol.t[i] * V[i, b] - p * obj.xstar
            expect = float(w @ w) + 2.0 * (p + 1.0) * sol.t[i] ** (2.0 - alpha) * float(
                obj.f_gap(sol.X[i, b]))
            assert got[i, b] == pytest.approx(expect, rel=1e-12)


class TestDescentRhs:
    """The term-by-term oracle in tests/reference.py, and descent_rhs_along
    against it."""

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
        noise = NoiseModel.gaussian(3, 1.0)
        path = ("x", "g", "grad", "f_gap")
        ref, _, _ = reference_ensemble(obj, noise, sched, 20, 3, 0, record=path)
        x, g, grad, f_gap = (ref[name] for name in path)
        # run i alone, on its own generator
        ones = [run_ensemble(obj, noise, sched, 20, 1, None, record=("energy", "descent"),
                             rngs=[rng_for(0, i)]).collect("energy", "descent_rhs")
                for i in range(3)]
        eta = schedule_eval(sched, np.arange(21))
        energy = energy_along(x, eta, f_gap, obj.xstar)
        theta_tau = noise_terms(x[:-1], g, grad, obj.xstar)[1]
        rhs = descent_rhs_along(np.sum(g * g, axis=-1), np.sum(grad * grad, axis=-1), theta_tau,
                                f_gap[1:], eta[1:], obj.lipschitz)
        for i, (one_energy, one_rhs) in enumerate(ones):
            np.testing.assert_allclose(energy[:, i], one_energy[:, 0], rtol=1e-14)
            np.testing.assert_allclose(rhs[:, i], one_rhs[:, 0], rtol=1e-12, atol=1e-15)

    def test_vectorized_matches_scalar(self):
        obj = quadratic_new(random_spd(3, 1))
        sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
        path = ("x", "g", "grad", "f_gap")
        ref, _, _ = reference_ensemble(obj, NoiseModel.gaussian(3, 2.0), sched, 15, 1, 3,
                                       record=path)
        x, g, grad, f_gap = (ref[name][:, 0] for name in path)
        eta = np.asarray(schedule_eval(sched, np.arange(16)))
        # a segment of the path, steps k = 8..15, as the engine passes it
        theta_sq, theta_tau = noise_terms(x[7:16], g[7:], grad[7:], obj.xstar, k0=7)
        vec = descent_rhs_along(np.sum(g[7:] ** 2, axis=1), np.sum(grad[7:] ** 2, axis=1),
                                theta_tau, f_gap[8:], eta[8:], obj.lipschitz, k0=7)
        for k in (8, 11, 15):
            scalar = descent_rhs(x[k], x[k - 1], g[k - 1], grad[k - 1],
                                 f_gap[k], k, eta[k], obj.lipschitz, obj.xstar)
            assert vec[k - 8] == pytest.approx(scalar, rel=1e-12)
            theta = grad[k - 1] - g[k - 1]
            tau = k * (x[k] - x[k - 1]) + (x[k] - obj.xstar)
            assert theta_sq[k - 8] == pytest.approx(theta @ theta, rel=1e-12)
            assert theta_tau[k - 8] == pytest.approx(theta @ tau, rel=1e-12)

    def test_rejects_k_below_one(self):
        z = np.zeros(2)
        with pytest.raises(ValueError):
            descent_rhs(z, z, z, z, 0.0, 0, 0.1, 1.0, z)


def descent_stream(obj, noise, sched, K, M, seed, **kw):
    """The stream check_descent folds."""
    return run_ensemble(obj, noise, sched, K, M, seed, record=("energy", "descent"), **kw)


def checked(stream):
    """check_descent of a stream folding its own blocks."""
    return check_descent(stream, stream)


class TestCheckDescent:
    def test_holds_pathwise_with_noise(self):
        obj = quadratic_new(random_spd(5, 0))
        sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
        rep = checked(descent_stream(obj, NoiseModel.gaussian(5, 4.0), sched, 500, 4, 1))
        assert rep.passed
        assert rep.n_violations == 0
        assert rep.max_residual <= 1e-10

    def test_refuses_non_monotone_schedule(self):
        obj = quadratic_new(np.eye(2))
        sched = StepSchedule(kind="custom", fn=lambda k: 0.01 * (1.0 + 0.0 * k))
        stream = descent_stream(obj, NoiseModel.noiseless(2), sched, 5, 1, 0)
        with pytest.raises(ValueError, match="monotone"):
            check_descent(stream, stream)
        assert next(iter(stream)).hi == 6  # refused before a step was taken

    def test_warns_for_other_algorithms(self):
        obj = quadratic_new(np.eye(2))
        sched = StepSchedule(kind="sqrt_k", scale=0.1)
        stream = descent_stream(obj, NoiseModel.noiseless(2), sched, 5, 1, 0, algorithm="sgd")
        with pytest.warns(UserWarning, match="momentum"):
            check_descent(stream, stream)

    def test_report_flags_injected_violation(self):
        residuals = np.array([[-1.0], [5e-11], [2e-3], [-0.5]])
        energy = np.array([[10.0], [9.0], [8.0], [7.0], [6.0]])
        rep = DescentReport(tol=1e-10)
        rep.add(residuals, energy[1:])
        assert not rep.passed
        assert rep.n_violations == 1
        assert rep.argmax_k == 3
        assert rep.max_residual == pytest.approx(2e-3)

    def test_report_locates_worst_run_and_step(self):
        residuals = np.full((4, 3), -1.0)
        residuals[2, 1] = 3e-3  # k = 3, run 1
        residuals[0, 2] = 1e-3
        energy = np.full((5, 3), 10.0)
        rep = DescentReport(tol=1e-10)
        rep.add(residuals, energy[1:])
        assert (rep.argmax_k, rep.run) == (3, 1)
        assert rep.max_residual == pytest.approx(3e-3)
        assert rep.n_violations == 2

    def test_report_folds_blocks_as_one_array(self):
        """Folding step blocks gives the report of all steps at once: the
        first maximum wins, and a NaN is the maximum."""
        residuals = np.full((6, 2), -1.0)
        residuals[1, 0] = residuals[4, 1] = 2e-3  # a tie: k = 2 comes first
        energy = np.full((6, 2), 10.0)
        whole, folded = DescentReport(tol=1e-10), DescentReport(tol=1e-10)
        whole.add(residuals, energy)
        for lo, hi in ((0, 3), (3, 6)):
            folded.add(residuals[lo:hi], energy[lo:hi], k0=lo + 1)
        assert vars(folded) == vars(whole) == {
            "tol": 1e-10, "max_residual": 2e-3, "argmax_k": 2, "run": 0, "n_violations": 2}
        residuals[3, 1] = np.nan
        folded = DescentReport(tol=1e-10)
        for lo, hi in ((0, 3), (3, 6)):
            folded.add(residuals[lo:hi], energy[lo:hi], k0=lo + 1)
        assert math.isnan(folded.max_residual) and (folded.argmax_k, folded.run) == (4, 1)

    def test_batch_check_matches_per_run_checks(self):
        obj = quadratic_new(random_spd(4, 3))
        noise = NoiseModel.gaussian(4, 9.0)
        sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
        batch = checked(descent_stream(obj, noise, sched, 80, 4, 3))
        ones = [checked(descent_stream(obj, noise, sched, 80, 1, None, rngs=[rng_for(3, i)]))
                for i in range(4)]
        worst = int(np.argmax([one.max_residual for one in ones]))
        assert batch.max_residual == ones[worst].max_residual
        assert (batch.run, batch.argmax_k) == (worst, ones[worst].argmax_k)
        assert batch.n_violations == sum(one.n_violations for one in ones)

    def test_stream_check_equals_the_whole_array_check(self):
        """E(k-1) is carried across the blocks of a stream: its fold equals
        the residuals of the whole recorded trace folded at once."""
        obj = quadratic_new(random_spd(3, 5))
        noise = NoiseModel.gaussian(3, 9.0)
        sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
        stream = descent_stream(obj, noise, sched, 100, 1000, 2)
        seen = []

        def counted(blocks):
            for b in blocks:
                seen.append(b.lo)
                yield b

        rep = check_descent(stream, counted(stream), tol=-1.0)
        assert len(seen) > 2
        whole_stream = descent_stream(obj, noise, sched, 100, 1000, 2)
        energy, rhs = whole_stream.collect("energy", "descent_rhs")
        whole = DescentReport(tol=-1.0)
        whole.add(np.diff(energy, axis=0) - rhs, energy[1:])
        assert vars(rep) == vars(whole)

    def test_check_needs_energy_and_descent(self):
        obj = quadratic_new(np.eye(2))
        sched = StepSchedule(kind="anytime_log2", L=1.0)
        with pytest.raises(ValueError, match="energy and descent"):
            checked(run_ensemble(obj, NoiseModel.noiseless(2), sched, 5, 2, 0))

    def test_report_tolerance_scales_with_energy(self):
        # a residual of 5e-10 is acceptable when |E(k)| ~ 10
        rep = DescentReport(tol=1e-10)
        rep.add(np.array([[5e-10]]), np.array([[10.0]]))
        assert rep.passed


def test_descent_bound_is_tight_direction():
    """The right-hand side must be negative once the iterates settle, so
    the energy actually decreases (not just bounded)."""
    obj = quadratic_new(random_spd(4, 4))
    sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
    rec = run_trajectory(obj, NoiseModel.noiseless(4), "sgdm", sched, 200, 0)
    assert np.all(np.diff(rec.energy) <= 1e-12)
    assert rec.energy[-1] < rec.energy[0]
