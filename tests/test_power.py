"""Check power: momentum coefficients that are wrong but still converge, an
ODE integrated with a wrong coefficient, and noise louder than declared,
against the checks that should catch them.

Each discrete mutant replaces ``optimizers._sgdm_coefficients``, the one
source of the momentum weight k/(k+2) and the gradient gain 2 sqrt(eta_k) /
((k+2) sqrt(k)); each ODE mutant replaces ``continuous._rk4_maps``, the one
source of the RK4 weights. The energies, the descent bound and the rate
bound are computed from the schedule or (p, alpha) on their own, so they
keep describing the correct method.
"""

import dataclasses
import json

import numpy as np
import pytest

from sgdmlab import continuous, optimizers, stats
from sgdmlab.cli import default_quadratic, main
from sgdmlab.concentration import anytime_coverage
from sgdmlab.continuous import OdeParams, ode_integrate, ode_rate_check
from sgdmlab.lyapunov import check_descent
from sgdmlab.optimizers import StepSchedule, run_ensemble
from sgdmlab.problems import NoiseModel

_correct = optimizers._sgdm_coefficients


def _gain_x10(eta, k):
    momentum, gain = _correct(eta, k)
    return momentum, 10.0 * gain


def _momentum_k_over_k1(eta, k):
    k = np.asarray(k, dtype=float)
    return k / (k + 1.0), _correct(eta, k)[1]


def _no_momentum(eta, k):
    momentum, gain = _correct(eta, k)
    return np.zeros_like(momentum), gain


def _gain_index_off_by_one(eta, k):
    """Step k >= 2 takes the gain of step k - 1."""
    momentum, gain = _correct(eta, k)
    return momentum, np.concatenate([gain[:1], gain[:-1]])


OBJ = default_quadratic(10, 0)
SCHEDULE = StepSchedule(kind="anytime_log2", L=OBJ.lipschitz)


def descent_passes(noise: NoiseModel) -> bool:
    """``check_descent`` over 10 runs of K = 1000 steps at seed 3."""
    with run_ensemble(OBJ, noise, SCHEDULE, 1000, 10, 3, record=("energy", "descent")) as s:
        return check_descent(s, s, tol=1e-10).passed


@pytest.mark.parametrize("mutant, fails_noiseless, fails_noisy", [
    (_correct, False, False),
    (_gain_x10, True, True),
    (_momentum_k_over_k1, True, True),
    (_no_momentum, True, True),
    (_gain_index_off_by_one, False, True),
], ids=["correct", "gain-x10", "momentum-k-over-k1", "no-momentum", "gain-off-by-one"])
def test_descent_check_catches_the_mutants(monkeypatch, mutant, fails_noiseless, fails_noisy):
    """K = 1000, 10 runs, at noise variance 0 and 100. The off-by-one gain
    is too small an error for the noiseless inequality; under noise it fails
    at k = 2."""
    monkeypatch.setattr(optimizers, "_sgdm_coefficients", mutant)
    assert descent_passes(NoiseModel.gaussian(OBJ.dim, 0.0)) is not fails_noiseless
    assert descent_passes(NoiseModel.gaussian(OBJ.dim, 100.0)) is not fails_noisy


def test_noise_louder_than_declared_is_caught_by_no_check():
    """Noise drawn at 10 times the declared variance passes every check:
    the descent inequality holds for whatever noise was drawn, and the
    anytime and in-expectation bounds, at the variance they are told, keep
    a wide margin (at K = 10^4, M = 50: anytime margin > 0, expectation
    excess below -3 standard errors)."""
    def loud(var):
        return dataclasses.replace(NoiseModel.gaussian(OBJ.dim, var), scale=np.sqrt(10.0 * var))

    assert descent_passes(loud(100.0))
    rep = anytime_coverage(OBJ, loud(0.01), SCHEDULE, 10_000, 50, 0.05, 3)
    assert rep["passed"] and rep["n_violating"] == 0 and rep["min_margin"] > 0.0
    rep = stats.expectation_rate_check(OBJ, loud(1.0), 10_000, 50, 3)
    assert rep["passed"]
    assert np.max((rep["mean"] - rep["bound"]) / rep["stderr"]) < -stats.EXPECTATION_STDERRS


def _rk4_maps_with(damping, weight):
    """A copy of ``continuous._rk4_maps`` for the ODE V' = -damping(p, t) V
    - weight(p, alpha, t) grad f(X), X' = V."""
    def rk4_maps(t, h, p, alpha):
        n = len(t) - 1
        t0, tm, t1 = t[:-1], t[:-1] + 0.5 * h, t[1:]
        basis = np.broadcast_to(np.eye(6), (n, 6, 6))
        x, v, g = basis[:, 0], basis[:, 1], basis[:, 2:]

        def v_dot(tk, vk, k):
            return -damping(p, tk)[:, None] * vk - weight(p, alpha, tk)[:, None] * g[:, k]

        hh = 0.5 * h
        k1x, k1v = v, v_dot(t0, v, 0)
        k2x = v + hh * k1v
        k2v = v_dot(tm, k2x, 1)
        k3x = v + hh * k2v
        k3v = v_dot(tm, k3x, 2)
        k4x = v + h * k3v
        k4v = v_dot(t1, k4x, 3)
        x2, x3, x4 = x + hh * k1x, x + hh * k2x, x + h * k3x
        x_next = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        v_next = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        return (np.ascontiguousarray(x2[:, None, :2]), np.ascontiguousarray(x3[:, None, :3]),
                np.ascontiguousarray(x4[:, None, :4]), np.stack([x_next, v_next], axis=1))

    return rk4_maps


def _damping(p, t):
    return (p + 1.0) / t


def _weight(p, alpha, t):
    return (p + 1.0) / t**alpha


_ode_correct = _rk4_maps_with(_damping, _weight)
_ode_damping_p = _rk4_maps_with(lambda p, t: p / t, _weight)
_ode_weight_one_power_short = _rk4_maps_with(_damping, lambda p, a, t: (p + 1.0) / t ** (a - 1.0))

# test_02's (p, alpha) pairs
PAIRS = ((1.0, 1.5), (1.0, 2.0), (2.0, 1.0), (2.0, 1.5))


def test_local_rk4_copy_is_the_library_one(monkeypatch):
    for p, alpha in PAIRS:
        params = OdeParams(p=p, alpha=alpha, T0=1.0, T=1.5, dt=1e-3)
        want = ode_integrate(OBJ, params, np.ones(OBJ.dim), np.zeros(OBJ.dim))
        with monkeypatch.context() as m:
            m.setattr(continuous, "_rk4_maps", _ode_correct)
            got = ode_integrate(OBJ, params, np.ones(OBJ.dim), np.zeros(OBJ.dim))
        np.testing.assert_array_equal(got.X, want.X)
        np.testing.assert_array_equal(got.energy, want.energy)


@pytest.mark.parametrize("mutant, energy_fails, rate_fails, compare_passes", [
    (_ode_correct, (False,) * 4, (False,) * 4, (True, True, True)),
    (_ode_damping_p, (True,) * 4, (True, False, False, False), (False, False, True)),
    (_ode_weight_one_power_short, (True,) * 4, (False,) * 4, (False, True, True)),
], ids=["correct", "damping-p-over-t", "weight-t-to-alpha-minus-1"])
def test_ode_checks_catch_the_mutants(monkeypatch, tmp_path, mutant, energy_fails, rate_fails,
                                      compare_passes):
    """At test_02's four (p, alpha) pairs on [1, 10] with dt = 1e-3, the
    energy rises under both mutants. The weaker damping breaks the rate
    bound only at (1, 3/2); the gradient weight one power of t short,
    larger for t > 1, keeps it at all four. Through ``ode-compare`` at its
    defaults the L2 table catches neither: the distance to the mutant ODE's
    X(T) still shrinks along the eta grid 0.1, 0.05, 0.02."""
    monkeypatch.setattr(continuous, "_rk4_maps", mutant)
    for (p, alpha), energy_fail, rate_fail in zip(PAIRS, energy_fails, rate_fails):
        params = OdeParams(p=p, alpha=alpha, T0=1.0, T=10.0, dt=1e-3)
        rep = ode_rate_check(ode_integrate(OBJ, params, np.ones(OBJ.dim), np.zeros(OBJ.dim)),
                             OBJ, params, energy_tol=1e-8)
        assert (rep["energy_monotone"], rep["rate_bound_holds"]) == (
            not energy_fail, not rate_fail), (p, alpha)
    assert main(["ode-compare", "--out", str(tmp_path)]) == (0 if all(compare_passes) else 1)
    checks = json.loads((tmp_path / "verdict.json").read_text())["checks"]
    assert {c["name"]: c["passed"] for c in checks} == dict(zip(
        ("energy_monotone", "rate_bound_holds", "l2_distance_decreasing"), compare_passes))
