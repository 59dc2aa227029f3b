import hashlib
import math
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sgdmlab import continuous
from sgdmlab.cli import default_quadratic
from sgdmlab.continuous import (
    FINITE_CHECK_BLOCK,
    SDE_BLOCK,
    OdeParams,
    OdeSolution,
    l2_limit_estimate,
    ode_compare,
    ode_integrate,
    ode_rate_check,
    sde_sample_paths,
    sgdm_warm_start,
)
from sgdmlab.optimizers import StepSchedule, run_ensemble
from sgdmlab.problems import NoiseModel, logreg_new, quadratic_new, synthetic_blobs
from sgdmlab.seeding import rng_for

from reference import mp_rk4_first_overflow_t, ode_mode_path, reference_ensemble
from test_problems import random_spd


def rk4_first_nonfinite_t(grad, p, alpha, T0, dt, n, x, v):
    """Plain per-step RK4 loop: the first grid time whose state is not
    finite, or None."""
    c = p + 1.0

    def acc(t, x, v):
        return -(c / t) * v - (c / t**alpha) * grad(x)

    for i in range(n + 1):
        t = T0 + dt * i
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            return t
        k1x, k1v = v, acc(t, x, v)
        k2x = v + 0.5 * dt * k1v
        k2v = acc(t + 0.5 * dt, x + 0.5 * dt * k1x, k2x)
        k3x = v + 0.5 * dt * k2v
        k3v = acc(t + 0.5 * dt, x + 0.5 * dt * k2x, k3x)
        k4x = v + dt * k3v
        k4v = acc(t + dt, x + dt * k3x, k4x)
        x = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        v = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return None


class TestOdeParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="T0"):
            OdeParams(T0=0.0, T=1.0)
        with pytest.raises(ValueError, match="T"):
            OdeParams(T0=1.0, T=1.0)
        with pytest.raises(ValueError, match="dt"):
            OdeParams(T0=1.0, T=2.0, dt=-0.1)

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
        X0, V0 = np.ones(2), np.zeros(2)
        sol = ode_integrate(obj, params, X0, V0)
        assert sol.t[0] == 1.0 and sol.t[-1] == pytest.approx(2.0)
        assert len(sol.t) == 101
        assert sol.energy.shape == (101,)
        w = sol.X[0] + sol.t[0] * V0
        expect0 = w @ w + 4.0 * sol.t[0] ** 0.5 * obj.f_gap(sol.X[0])
        assert sol.energy[0] == pytest.approx(float(expect0))

    # (gradient scale, alpha, steps): a blow-up in the first step, and one
    # that stays finite past the first finiteness block. Both grow fast
    # enough per step that rounding in the stage sums cannot move the
    # overflow to a neighbouring step.
    BLOW_UPS = ((1e160, 1.5, 10), (800.0, 0.0, 400))

    def test_nonfinite_abort_names_time(self):
        """The grad path, on copies whose replaced ``grad`` drops the Hessian."""
        obj = quadratic_new(np.eye(1))
        for scale, alpha, n in self.BLOW_UPS:
            bad = replace(obj, grad=lambda x, s=scale: x * s, hessian=None)
            params = OdeParams(p=1.0, alpha=alpha, T0=1.0, T=1.0 + 0.1 * n, dt=0.1)
            with np.errstate(over="ignore", invalid="ignore"):
                t_ref = rk4_first_nonfinite_t(bad.grad, 1.0, alpha, 1.0, 0.1, n,
                                              np.ones(1), np.zeros(1))
            assert t_ref is not None
            # no NumPy warning leaks from the steps that overflow
            with pytest.raises(FloatingPointError) as err:
                ode_integrate(bad, params, np.ones(1), np.zeros(1))
            assert str(err.value) == f"ODE state became non-finite at t={t_ref:.6g} in run(s) [0]"
        assert (t_ref - 1.0) / 0.1 > FINITE_CHECK_BLOCK

    def test_nonfinite_abort_names_time_mode_path(self):
        """The mode path names the first grid time whose exact RK4 state
        exceeds the float maximum: t = 1.1 and 35.9. The grad path names
        35.7 for the second, where its stage sums overflow first."""
        for scale, alpha, n in self.BLOW_UPS:
            obj = quadratic_new([[scale]])
            params = OdeParams(p=1.0, alpha=alpha, T0=1.0, T=1.0 + 0.1 * n, dt=0.1)
            t_ref = mp_rk4_first_overflow_t(scale, 1.0, alpha, 1.0, 0.1, n, 1.0, 0.0)
            assert t_ref is not None
            with pytest.raises(FloatingPointError) as err:
                ode_integrate(obj, params, np.ones(1), np.zeros(1))
            assert str(err.value) == f"ODE state became non-finite at t={t_ref:.6g} in run(s) [0]"
        assert (t_ref - 1.0) / 0.1 > FINITE_CHECK_BLOCK

    def test_rejects_dt_not_dividing_window(self):
        obj = quadratic_new(np.eye(1))
        # (1.0105 - 1) / 0.003 = 3.5 steps: the grid would stop at t = 1.009
        with pytest.raises(ValueError, match=r"dt=0.003 does not divide the window \[1, 1.0105\]"):
            ode_integrate(obj, OdeParams(T0=1.0, T=1.0105, dt=0.003), np.ones(1), np.zeros(1))
        sol = ode_integrate(obj, OdeParams(T0=1.0, T=1.0105, dt=0.0015), np.ones(1), np.zeros(1))
        assert sol.t[-1] == pytest.approx(1.0105, rel=1e-12)

    def test_rejects_step_longer_than_window(self):
        """9e-10 steps of dt = 1e10 in [1, 10] round to none: the grid would
        be the one point T0 and never reach T."""
        obj = quadratic_new(np.eye(1))
        with pytest.raises(ValueError, match=r"\[1, 10\] is shorter than one step of dt=1e\+10 "
                                             r"\(9e-10 steps\)"):
            ode_integrate(obj, OdeParams(T0=1.0, T=10.0, dt=1e10), np.ones(1), np.zeros(1))

    def test_batched_columns_match_single_calls(self):
        obj = quadratic_new(random_spd(3, 4))
        params = OdeParams(p=2.0, alpha=1.5, T0=1.0, T=2.0, dt=2e-3)
        rng = np.random.default_rng(3)
        X0, V0 = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
        sol = ode_integrate(obj, params, X0, V0)
        assert sol.X.shape == (501, 4, 3)
        assert sol.f_gap.shape == sol.energy.shape == (501, 4)
        for b in range(4):
            one = ode_integrate(obj, params, X0[b], V0[b])
            np.testing.assert_allclose(sol.X[:, b], one.X, rtol=1e-12, atol=1e-300)
            np.testing.assert_allclose(sol.f_gap[:, b], one.f_gap, rtol=1e-12, atol=1e-300)
            np.testing.assert_allclose(sol.energy[:, b], one.energy, rtol=1e-12)

    def test_rejects_state_of_wrong_dimension(self):
        obj = quadratic_new(np.eye(2))
        with pytest.raises(ValueError, match="shape"):
            ode_integrate(obj, OdeParams(T0=1.0, T=2.0, dt=0.1), np.ones(3), np.zeros(3))

    def test_csv_output(self, tmp_path):
        obj = quadratic_new(np.eye(2))
        sol = ode_integrate(obj, OdeParams(T0=1.0, T=1.1, dt=0.01), np.ones(2), np.zeros(2))
        path = tmp_path / "ode.csv"
        sol.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,f_gap,energy"
        assert len(lines) == 12
        cols = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(cols, np.column_stack([sol.t, sol.f_gap, sol.energy]))

    def test_transient_memory_is_one_block(self):
        """Beyond the arrays it returns, ode_integrate holds one block of
        FINITE_CHECK_BLOCK steps: 0.50 MB here on a quadratic's mode path,
        0.25 MB on the grad path; building the whole grid's RK4 weights and
        (x, v) path at once held 5.9 MB at these 10 000 steps."""
        obj = default_quadratic(10, 0)
        for o in (obj, replace(obj, hessian=None)):
            tracemalloc.start()
            try:
                sol = ode_integrate(o, OdeParams(T0=1.0, T=11.0, dt=1e-3), np.ones(10),
                                    np.zeros(10))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            kept = sum(a.nbytes for a in (sol.t, sol.X, sol.f_gap, sol.energy))
            assert len(sol.t) == 10_001
            assert peak - kept < 1e6


# test_02's (p, alpha) pairs
PAIRS = ((1.0, 1.5), (1.0, 2.0), (2.0, 1.0), (2.0, 1.5))


class TestModePath:
    """``ode_integrate`` on an objective with a ``hessian``, which steps the
    eigenmodes without calling ``grad``."""

    def test_calls_no_grad(self):
        def no_grad(x):
            raise AssertionError("grad was called")

        obj = replace(quadratic_new(random_spd(3, 0)), grad=no_grad)  # keeps the hessian
        ode_integrate(obj, OdeParams(T0=1.0, T=1.5, dt=1e-3), np.ones(3), np.zeros(3))

    @pytest.mark.parametrize("p,alpha", PAIRS)
    def test_agrees_with_grad_path(self, p, alpha):
        """On [1, 20] both paths run the same RK4 steps; they differ by
        rounding only (at most 1.3e-14 of max|X|, and 5.1e-14 relative in
        f_gap and energy)."""
        obj = default_quadratic(10, 0)
        params = OdeParams(p=p, alpha=alpha, T0=1.0, T=20.0, dt=1e-3)
        rng = np.random.default_rng(5)
        for X0, V0 in ((np.ones(10), np.zeros(10)),
                       (rng.standard_normal((3, 10)), rng.standard_normal((3, 10)))):
            got = ode_integrate(obj, params, X0, V0)
            want = ode_integrate(replace(obj, hessian=None), params, X0, V0)
            assert got.X.shape == want.X.shape
            np.testing.assert_array_equal(got.X[0], np.broadcast_to(X0, want.X[0].shape))
            assert np.max(np.abs(got.X - want.X)) <= 1e-12 * np.max(np.abs(want.X))
            np.testing.assert_allclose(got.f_gap, want.f_gap, rtol=1e-11, atol=0)
            np.testing.assert_allclose(got.energy, want.energy, rtol=1e-11, atol=0)

    def test_matches_closed_form(self):
        """Each eigenmode solved in closed form (Bessel functions for
        alpha < 2, Euler's equation at alpha = 2) at five grid points of
        [1, 20], dt = 1e-3. The tolerance, 5e-11 of max|X|, was set before
        the run from the 2.4e-12 to 7.6e-12 that RK4 at this step showed on
        [1, 100]; the largest error here is 1.8e-12, and test_power's two
        RK4 mutants are off by 0.11 to 0.71."""
        lams = np.array([1.0, 10.0])
        q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((2, 2)))
        obj = quadratic_new(q @ np.diag(lams) @ q.T)
        X0, V0 = np.array([1.0, -0.5]), np.array([0.0, 0.3])
        z0, w0 = X0 @ q, V0 @ q
        for p, alpha in PAIRS:
            sol = ode_integrate(obj, OdeParams(p=p, alpha=alpha, T0=1.0, T=20.0, dt=1e-3),
                                X0, V0)
            rows = np.linspace(0, len(sol.t) - 1, 5).astype(int)
            modes = [ode_mode_path(lam, p, alpha, 1.0, z0[i], w0[i], sol.t[rows])
                     for i, lam in enumerate(lams)]
            want = np.stack(modes, axis=1) @ q.T
            assert np.max(np.abs(sol.X[rows] - want)) <= 5e-11 * np.max(np.abs(want)), (p, alpha)


class TestOdeRateCheck:
    @pytest.mark.parametrize("p,alpha", PAIRS)
    def test_energy_monotone_and_rate(self, p, alpha):
        obj = quadratic_new(random_spd(4, 1))
        params = OdeParams(p=p, alpha=alpha, T0=1.0, T=20.0, dt=1e-3)
        sol = ode_integrate(obj, params, np.ones(4), np.zeros(4))
        rep = ode_rate_check(sol, obj, params)
        assert rep["passed"], rep

    @pytest.mark.parametrize("f_gap, first, worst", [
        ([0.5, 0.6, 0.2, 0.45], None, 3),  # ratios 0.5, 0.85, 0.35, 0.9
        ([0.5, 0.8, 0.2, 0.45], 1, 1),  # 0.8 > 1/sqrt(2): ratio 1.13
    ], ids=["holds", "violated"])
    def test_locators(self, f_gap, first, worst):
        """On the grid t = 1..4 at (p, alpha) = (1, 3/2) with E(T0) = 4 the
        bound is 1/sqrt(t); the energy rises the most into t = 3."""
        t = np.arange(1.0, 5.0)
        sol = OdeSolution(t, np.zeros((4, 1)), np.array(f_gap), np.array([4.0, 3.0, 3.5, 3.2]))
        rep = ode_rate_check(sol, None, OdeParams(T0=1.0, T=4.0, dt=1.0))
        assert (rep["max_energy_increase"], rep["max_energy_increase_t"]) == (0.5, 3.0)
        assert rep["first_violation_t"] == (None if first is None else t[first])
        assert rep["max_ratio_t"] == t[worst]
        assert rep["max_ratio"] == pytest.approx(f_gap[worst] * np.sqrt(t[worst]), rel=1e-15)
        assert rep["rate_bound_holds"] is (first is None) and rep["energy_monotone"] is False

    def test_one_point_grid_has_no_energy_rise(self):
        sol = OdeSolution(np.ones(1), np.zeros((1, 1)), np.zeros(1), np.ones(1))
        rep = ode_rate_check(sol, None, OdeParams(T0=1.0, T=4.0, dt=1.0))
        assert (rep["max_energy_increase"], rep["max_energy_increase_t"]) == (0.0, None)
        assert (rep["max_ratio"], rep["max_ratio_t"]) == (0.0, 1.0)

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
        t, X, VT = sde_sample_paths(obj, eta, 1.0, 2.0, 1, 0, np.array([1.0]), np.array([0.5]))
        X = X[:, 0]
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
        # every earlier v is pinned through the next x
        assert VT.shape == (1, 1)
        assert VT[0, 0] == pytest.approx(v, rel=1e-12)

    def test_chunked_noise_matches_per_step_draws(self):
        obj = quadratic_new(random_spd(2, 3))
        eta, M, seed = 0.01, 3, 8
        n = 70  # not a multiple of the block
        assert n % SDE_BLOCK != 0
        x0, v0 = np.array([1.0, -0.5]), np.array([0.2, 0.0])
        t, X, VT = sde_sample_paths(obj, eta, 1.0, 1.0 + n * eta, M, seed, x0, v0,
                                    noise_scale=0.7)
        assert len(t) == n + 1
        # reference: every path draws one increment per step
        Xr, Vr = np.empty_like(X), np.empty_like(X)
        Xr[0], Vr[0] = x0, v0
        rngs = [rng_for(seed, i) for i in range(M)]
        sq = np.sqrt(eta)
        for j in range(n):
            tk = t[j]
            dw = np.empty((M, 2))
            for i, rng in enumerate(rngs):
                dw[i] = sq * rng.standard_normal(2)
            dw *= 0.7
            Xr[j + 1] = Xr[j] + eta * Vr[j]
            Vr[j + 1] = (Vr[j] - (2.0 * eta / tk) * Vr[j]
                         - (2.0 * eta / tk**1.5) * obj.grad(Xr[j])
                         - (2.0 * sq / tk**1.5) * dw)

        def digest(a):
            return hashlib.sha256(a.tobytes()).hexdigest()

        assert (digest(X), digest(VT)) == (digest(Xr), digest(Vr[-1]))

    def test_draws_on_the_calling_thread(self, monkeypatch):
        """The increments are drawn by the ensemble's per-run fill, without
        its helper thread."""
        def start(self):
            raise AssertionError("sde_sample_paths started a thread")

        monkeypatch.setattr(threading.Thread, "start", start)
        obj = quadratic_new(np.eye(2))
        sde_sample_paths(obj, 0.01, 1.0, 1.0 + 2 * SDE_BLOCK * 0.01, 3, 0, np.ones(2),
                         np.zeros(2))

    @pytest.mark.parametrize("lam,past_first_block", [(1e30, False), (3e4, True)])
    def test_nonfinite_abort_names_time(self, lam, past_first_block):
        """A stiff quadratic overflows within the first block (lam = 1e30,
        21 steps) and past it (lam = 3e4, 468 steps); the noise does not move
        the first non-finite grid time of the noiseless hand loop."""
        obj = quadratic_new(np.diag([lam] * 3))
        eta, T0, T = 0.5, 1.0, 300.0
        x, v, t_ref = np.ones(3), np.zeros(3), None
        with np.errstate(over="ignore", invalid="ignore"):
            for tk in eta * np.arange(2, 600):  # the step from t_k to t_k + eta
                x, v = x + eta * v, v - (2 * eta / tk) * v - (2 * eta / tk**1.5) * obj.grad(x)
                if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
                    t_ref = tk + eta
                    break
        assert t_ref is not None
        # both paths, and no NumPy warning leaks from the steps that overflow
        for noise_scale in (0.0, 1.0):
            with pytest.raises(FloatingPointError) as err:
                sde_sample_paths(obj, eta, T0, T, 2, 0, np.ones(3), np.zeros(3),
                                 noise_scale=noise_scale)
            assert str(err.value) == (f"SDE state became non-finite at t={t_ref:.6g} "
                                      "in run(s) [0, 1]")
        assert ((t_ref - T0) / eta > SDE_BLOCK) == past_first_block

    def test_empty_window_scans_its_one_point(self):
        obj = quadratic_new(np.eye(2))
        with pytest.raises(FloatingPointError) as err:
            sde_sample_paths(obj, 0.1, 1.0, 1.0, 2, 0, np.full(2, np.inf), np.zeros(2))
        assert str(err.value) == "SDE state became non-finite at t=1 in run(s) [0, 1]"

    @pytest.mark.parametrize("T", [0.9, 0.5])
    def test_rejects_a_window_ending_before_it_starts(self, T):
        """T = 0.9 would leave the grid without a point and T = 0.5 give it a
        negative length; both are refused before anything is allocated."""
        obj = quadratic_new(np.eye(1))
        with pytest.raises(ValueError, match=rf"^the window \[1, {T:g}\] ends before it "
                                             r"starts \(T < T0\)$"):
            sde_sample_paths(obj, 0.1, 1.0, T, 2, 0, np.ones(1), np.zeros(1))

    def test_rejects_a_window_whose_coefficients_overflow(self):
        """Python's t**1.5 overflows above about 3.185e205: such a T is refused
        with a ValueError that names it, not an OverflowError."""
        obj = quadratic_new(np.eye(1))
        with pytest.raises(ValueError, match=r"^T=2e\+300 is too large: T\*\*1.5 overflows$"):
            sde_sample_paths(obj, 1e300, 1e300, 2e300, 2, 0, np.ones(1), np.zeros(1))

    def test_transient_memory_is_one_block(self):
        """Beyond the X path it returns, the workload-size call holds about
        one block of velocities and increments (1.2 MB); keeping the whole
        velocity path and per-step coefficient lists held 6.0 MB."""
        obj = default_quadratic(10, 0)
        tracemalloc.start()
        try:
            _, X, VT = sde_sample_paths(obj, 0.01, 1.0, 4.0, 200, 0, np.ones(10), np.zeros(10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert X.shape == (301, 200, 10) and VT.shape == (200, 10)
        assert peak - X.nbytes < 2e6

    def test_rejects_oversized_grid_before_allocating(self):
        """10^9 steps of 3 paths would keep 4e9 values; refused at once."""
        obj = quadratic_new(np.eye(1))
        with pytest.raises(ValueError, match=f"would keep more than {continuous.GRID_CAP}"):
            sde_sample_paths(obj, 1e-9, 1.0, 2.0, 3, 0, np.ones(1), np.zeros(1))

    def test_zero_noise_is_deterministic(self):
        obj = quadratic_new(np.eye(2))
        a = sde_sample_paths(obj, 0.1, 1.0, 2.0, 1, 0, np.ones(2), np.zeros(2), noise_scale=0.0)
        b = sde_sample_paths(obj, 0.1, 1.0, 2.0, 1, 99, np.ones(2), np.zeros(2),
                             noise_scale=0.0)
        np.testing.assert_array_equal(a[1][:, 0], b[1][:, 0])

    def test_grid_endpoints(self):
        obj = quadratic_new(np.eye(1))
        t, X, _ = sde_sample_paths(obj, 0.25, 1.0, 2.0, 1, 0, np.ones(1), np.zeros(1))
        np.testing.assert_allclose(t, [1.0, 1.25, 1.5, 1.75, 2.0])
        assert X[:, 0].shape == (5, 1)

    def test_rejects_eta_off_the_grid(self):
        obj = quadratic_new(np.eye(1))
        # 1/0.003 and 1.0105/0.003 are not integers: flooring them would run
        # the paths on [0.999, 1.008] instead
        with pytest.raises(ValueError, match="does not divide"):
            sde_sample_paths(obj, 0.003, 1.0, 1.0105, 2, 0, np.ones(1), np.zeros(1))
        with pytest.raises(ValueError, match="does not divide T="):
            sde_sample_paths(obj, 0.1, 1.0, 2.05, 2, 0, np.ones(1), np.zeros(1))
        # eta divides T0 = 0, but the grid would start at the singular t = 0
        with pytest.raises(ValueError,
                           match=r"^T0=0 is shorter than one step of eta=0.1 \(0 steps\)$"):
            sde_sample_paths(obj, 0.1, 0.0, 2.0, 2, 0, np.ones(1), np.zeros(1))

    @pytest.mark.parametrize("eta", [0.0, -0.25])
    def test_rejects_nonpositive_eta(self, eta):
        """Refused before T0/eta divides by zero (eta = 0) or turns negative."""
        obj = quadratic_new(np.eye(1))
        with pytest.raises(ValueError, match=f"eta must be positive \\(got eta={eta:g}\\)"):
            sde_sample_paths(obj, eta, 1.0, 2.0, 2, 0, np.ones(1), np.zeros(1))

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
        tr.collect()
        xd = tr.x_cur_final[:, 0]
        _, X, _ = sde_sample_paths(obj, eta, 1.0, 2.0, M, 2, x_cur, v0)
        xs = X[-1, :, 0]
        se_mean = math.hypot(xd.std() / math.sqrt(M), xs.std() / math.sqrt(M))
        assert abs(xd.mean() - xs.mean()) <= 3.0 * se_mean + eta
        assert abs(xd.std() / xs.std() - 1.0) <= 0.1


def reference_warm_start(obj, eta, k_stop, x0):
    """The momentum recursion written out per step, from x_0 = x_1 = x0."""
    x_prev = np.asarray(x0, dtype=float).copy()
    x_cur = x_prev.copy()
    for k in range(1, k_stop):
        g = obj.grad(x_cur)
        x_next = (
            x_cur
            + (k / (k + 2.0)) * (x_cur - x_prev)
            - (2.0 * np.sqrt(eta) / ((k + 2.0) * np.sqrt(k))) * g
        )
        x_prev, x_cur = x_cur, x_next
    return x_prev, x_cur, (x_cur - x_prev) / eta


class TestWarmStart:
    @pytest.mark.parametrize("problem", ["quadratic", "logistic"])
    @pytest.mark.parametrize("eta,k_stop", [(0.1, 10), (0.05, 20), (0.02, 50), (0.01, 100),
                                            (0.003, 334), (0.1, 2)])
    def test_equals_reference_loop(self, problem, eta, k_stop):
        if problem == "quadratic":
            obj = quadratic_new(random_spd(10, 3))
        else:
            obj = logreg_new(*synthetic_blobs(200, 10, 1))
        got = sgdm_warm_start(obj, eta, k_stop, np.ones(10))
        for a, b in zip(got, reference_warm_start(obj, eta, k_stop, np.ones(10))):
            np.testing.assert_array_equal(a, b)

    def test_single_step_stop_takes_no_step(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("k_stop = 1 must not step")

        monkeypatch.setattr(continuous, "run_ensemble", no_run)
        x0 = np.array([1.0, -2.0])
        x_prev, x_cur, v = sgdm_warm_start(quadratic_new(np.eye(2)), 0.1, 1, x0)
        np.testing.assert_array_equal(x_prev, x0)
        np.testing.assert_array_equal(x_cur, x0)
        np.testing.assert_array_equal(v, np.zeros(2))

    def test_matches_noiseless_trajectory(self):
        obj = quadratic_new(random_spd(3, 2))
        eta, k0 = 0.05, 20
        sched = StepSchedule(kind="constant", scale=eta)
        ref, _, _ = reference_ensemble(obj, NoiseModel.noiseless(3), sched, k0, 1, 0,
                                       x0=np.ones(3), record=("x",))
        x = ref["x"][:, 0]
        x_prev, x_cur, v = sgdm_warm_start(obj, eta, k0, np.ones(3))
        np.testing.assert_allclose(x_prev, x[k0 - 1], rtol=1e-12)
        np.testing.assert_allclose(x_cur, x[k0], rtol=1e-12)
        np.testing.assert_allclose(v, (x[k0] - x[k0 - 1]) / eta, rtol=1e-10)


class TestL2Limit:
    def test_rejects_eta_with_too_few_steps(self):
        obj = quadratic_new(np.eye(1))
        with pytest.raises(ValueError, match="too large"):
            l2_limit_estimate(obj, [0.5], 1.0, 2.0, 5, 0)

    def test_rejects_eta_off_the_grid(self):
        obj = quadratic_new(np.eye(1))
        # (4 - 1) / 7e-4 = 4285.71 steps: the discrete run would stop short of T
        with pytest.raises(ValueError, match="does not divide"):
            l2_limit_estimate(obj, [7e-4], 1.0, 4.0, 2, 0)

    def test_accepts_etas_dividing_the_window(self):
        obj = quadratic_new(np.eye(1))
        params = OdeParams(T0=1.0, T=4.0, dt=0.01)
        rows = ode_compare(obj, params, [0.1, 0.05, 0.02, 0.01], 2, 0)[1]
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

    def test_rows_match_per_eta_reference(self):
        """Batched ODE integration changes no row: the reference integrates
        each eta's ODE on its own. eta = 0.3 has its own window [0.9, 3.9],
        the others share [1, 4]."""
        obj = quadratic_new(random_spd(2, 2))
        etas, T0, T, M, seed = [0.3, 0.1, 0.05], 1.0, 4.0, 5, 3
        rows = ode_compare(obj, OdeParams(T0=T0, T=T, dt=1e-2), etas, M, seed)[1]
        for j, eta in enumerate(etas):
            k0, kT = math.floor(T0 / eta + 1e-9), math.floor(T / eta + 1e-9)
            x_prev, x_cur, v0 = sgdm_warm_start(obj, eta, k0, np.ones(2))
            sol = ode_integrate(obj, OdeParams(p=1.0, alpha=1.5, T0=k0 * eta, T=kT * eta,
                                               dt=1e-2), x_cur, v0)
            sub_seed = int(np.random.SeedSequence(entropy=(seed, j)).generate_state(1)[0])
            tr = run_ensemble(obj, NoiseModel.gaussian(2, 1.0),
                              StepSchedule(kind="constant", scale=eta), K=kT - k0, M=M,
                              master_seed=sub_seed, x0=x_cur, x_prev0=x_prev, k_start=k0,
                              record=())
            tr.collect()
            sq = np.sum((tr.x_cur_final - sol.X[-1]) ** 2, axis=1)
            assert rows[j]["mean_sq_dist"] == pytest.approx(np.mean(sq), rel=1e-12)
            assert rows[j]["stderr"] == pytest.approx(np.std(sq, ddof=1) / math.sqrt(M),
                                                      rel=1e-12)


def count_ode_calls(monkeypatch) -> list[int]:
    """Patch ``continuous.ode_integrate`` to record the batch size of each
    call; returns the (growing) list of sizes."""
    sizes = []
    integrate = continuous.ode_integrate

    def counted(obj, params, X0, V0):
        sizes.append(1 if np.ndim(X0) == 1 else len(X0))
        return integrate(obj, params, X0, V0)

    monkeypatch.setattr(continuous, "ode_integrate", counted)
    return sizes


class TestOdeCompare:
    params = OdeParams(p=1.0, alpha=1.5, T0=1.0, T=4.0, dt=0.01)

    def test_rate_column_matches_separate_integration(self):
        obj = quadratic_new(random_spd(3, 5))
        sol, _ = ode_compare(obj, self.params, [0.1, 0.05], 3, 0)
        ref = ode_integrate(obj, self.params, np.ones(3), np.zeros(3))
        assert sol.X.shape == ref.X.shape
        assert sol.f_gap.shape == sol.energy.shape == ref.energy.shape
        np.testing.assert_array_equal(sol.t, ref.t)
        assert np.max(np.abs(sol.X - ref.X)) <= 1e-12 * np.max(np.abs(ref.X))
        assert np.max(np.abs(sol.f_gap - ref.f_gap)) <= 1e-12 * np.max(np.abs(ref.f_gap))
        rep, ref_rep = (ode_rate_check(s, obj, self.params) for s in (sol, ref))
        assert rep.keys() == ref_rep.keys()
        for key, value in ref_rep.items():
            if isinstance(value, float):  # energies, and a difference of two
                assert rep[key] == pytest.approx(value, abs=1e-12 * ref_rep["energy_T0"])
            else:
                assert rep[key] == value

    def test_rows_match_l2_limit_estimate(self):
        """At the default step 1e-3, and whatever the checks' (p, alpha)."""
        obj = quadratic_new(random_spd(2, 2))
        etas, M, seed = [0.3, 0.1, 0.05], 5, 3
        _, rows = ode_compare(obj, OdeParams(p=2.0, alpha=1.0, T0=1.0, T=4.0), etas, M, seed)
        ref = l2_limit_estimate(obj, etas, 1.0, 4.0, M, seed)
        assert [r["eta"] for r in rows] == etas and all(r["runs"] == M for r in rows)
        for r, q in zip(rows, ref):
            assert r["mean_sq_dist"] == pytest.approx(q["mean_sq_dist"], rel=1e-12)
            assert r["stderr"] == pytest.approx(q["stderr"], rel=1e-12)

    @pytest.mark.parametrize("pair,etas,sizes", [
        ((1.0, 1.5), [0.1, 0.05, 0.02], [4]),
        ((2.0, 1.0), [0.1, 0.05], [1, 2]),
        # eta = 0.3 integrates on [0.9, 3.9], a window of its own
        ((1.0, 1.5), [0.3, 0.1], [1, 2]),
    ])
    def test_one_pass_per_distinct_ode(self, monkeypatch, pair, etas, sizes):
        calls = count_ode_calls(monkeypatch)
        params = replace(self.params, p=pair[0], alpha=pair[1])
        ode_compare(quadratic_new(random_spd(2, 0)), params, etas, 2, 0)
        assert sorted(calls) == sizes

    def test_rejects_rate_hypotheses_before_any_run(self, monkeypatch):
        calls = count_ode_calls(monkeypatch)

        def no_run(*args, **kwargs):
            raise AssertionError("no ensemble may run")

        monkeypatch.setattr(continuous, "run_ensemble", no_run)
        with pytest.raises(ValueError, match="rate check requires"):
            ode_compare(quadratic_new(np.eye(2)), replace(self.params, alpha=3.0),
                        [0.1], 2, 0)
        with pytest.raises(ValueError, match="M must be"):
            ode_compare(quadratic_new(np.eye(2)), self.params, [0.1], 0, 0)
        with pytest.raises(ValueError, match="at least one eta"):
            ode_compare(quadratic_new(np.eye(2)), self.params, [], 2, 0)
        assert calls == []
