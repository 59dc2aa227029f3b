"""Check power: momentum coefficients that are wrong but still converge, and
noise louder than declared, against the checks that should catch them.

Each mutant replaces ``optimizers._sgdm_coefficients``, the one source of
the momentum weight k/(k+2) and the gradient gain 2 sqrt(eta_k) / ((k+2)
sqrt(k)); the energy and the descent bound are computed from the schedule
on their own, so they keep describing the correct method.
"""

import dataclasses

import numpy as np
import pytest

from sgdmlab import optimizers, stats
from sgdmlab.cli import default_quadratic
from sgdmlab.concentration import anytime_coverage
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
