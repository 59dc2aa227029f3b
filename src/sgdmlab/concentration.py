"""High-probability machinery for the momentum iteration.

Computes certified two-sided brackets for the series gamma1 = sum_k a_k and
the product gamma2 = prod_k (1 + a_k sigma^2) with a_k = 16 eta_k / k,
assembles the anytime deviation bound

    f(x_k) - f* <= (C1 + C2 log(1/beta)) log(k+2) / sqrt(k+1),

runs the Monte-Carlo coverage experiment for that bound, traces the
exponential supermartingale that drives its proof, and provides samplers
that stress-test the two scalar concentration lemmas (a sub-Gaussian MGF
bound and a weighted chi-square-type tail bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lyapunov import energy_along
from .optimizers import StepSchedule, run_ensemble, schedule_eval
from .problems import NoiseModel, Objective
from .seeding import rng_for

__all__ = [
    "GammaBrackets",
    "gamma_constants",
    "AnytimeConstants",
    "anytime_constants",
    "anytime_bound",
    "anytime_coverage",
    "supermartingale_trace",
    "mgf_lemma_check",
    "tail_lemma_check",
]

_LOG_POWERS = {"anytime_log2": 2.0, "expectation_log2": 2.0}


def a_sequence(schedule: StepSchedule, k) -> np.ndarray:
    """Weights a_k = 16 eta_k / k entering both series (k >= 1)."""
    k = np.asarray(k, dtype=float)
    return 16.0 * schedule_eval(schedule, k) / k


def _series_params(schedule: StepSchedule) -> tuple[float, float]:
    """(A, q) such that a_k = A / (k log^q(k+2)) exactly."""
    if schedule.kind in _LOG_POWERS:
        q = _LOG_POWERS[schedule.kind]
    elif schedule.kind == "epsilon_log":
        q = 1.0 + schedule.epsilon
    else:
        raise ValueError(
            f"schedule kind '{schedule.kind}' has a divergent weight series; "
            "gamma constants exist only for logarithmic schedules"
        )
    A = 16.0 * schedule_eval(schedule, 1.0) * np.log(3.0) ** q
    return float(A), q


@dataclass(frozen=True)
class GammaBrackets:
    """Certified enclosures for gamma1 and gamma2, with the truncation point.

    Tail control: for x >= K, 1/(x log^q(x+2)) is sandwiched between
    1/((x+2) log^q(x+2)) and (1+2/K)/((x+2) log^q(x+2)), and the latter
    integrates in closed form to 1/((q-1) log^{q-1}(a+2)).
    """

    gamma1_lower: float
    gamma1_upper: float
    gamma2_lower: float
    gamma2_upper: float
    k_trunc: int
    sigma2: float

    @property
    def gamma1_width(self) -> float:
        return self.gamma1_upper - self.gamma1_lower

    @property
    def gamma2_width(self) -> float:
        return self.gamma2_upper - self.gamma2_lower


# Relative rounding error, in units of _EPS, allowed for each computed term:
# a_k takes about ten roundings (log, power, products, quotient),
# log1p(a_k sigma2) a few more, and the closed-form tails about as many as
# a_k; 32 leaves room for a few ulps in each library function.
_TERM_ULPS = 32
_EPS = float(np.finfo(float).eps)


def _head_sum(terms: np.ndarray) -> tuple[float, float]:
    """Sum of non-negative terms and an a-priori bound on its rounding error.

    The terms are summed in blocks of b = ceil(sqrt(n)), then the block sums
    and the remainder are added. In whatever order NumPy adds within each
    level, every term passes through fewer than 2b rounded additions, so the
    computed sum is within (2b + c) _EPS sum(terms) of the exact sum of the
    exact terms, c covering each term's own rounding. Compared with the
    (n + c) _EPS bound of a flat sum, the widening shrinks from 2e-10 to
    5e-13 of the sum at n = 10^6.
    """
    n = terms.size
    b = math.isqrt(n - 1) + 1
    full = (n // b) * b
    total = float(np.sum(terms[:full].reshape(-1, b).sum(axis=1)) + np.sum(terms[full:]))
    return total, (2.0 * b + _TERM_ULPS) * _EPS * total


def _down(x: float) -> float:
    return float(np.nextafter(x, -np.inf))


def _up(x: float) -> float:
    return float(np.nextafter(x, np.inf))


def gamma_constants(
    schedule: StepSchedule, sigma2: float, k_trunc: int = 1_000_000
) -> GammaBrackets:
    """Bracket gamma1 = sum_{k>=1} a_k and gamma2 = prod_{k>=1} (1 + a_k sigma2)
    by truncated summation plus integral tail enclosures.

    Rounding is accounted for: the head sums are widened by their a-priori
    error bound (see :func:`_head_sum`), the tails by a per-term relative
    error, and every endpoint, including those of exp, is stepped one ulp
    outward."""
    if sigma2 < 0:
        raise ValueError("sigma2 must be non-negative")
    A, q = _series_params(schedule)
    K = int(k_trunc)
    if K < 1:
        raise ValueError("k_trunc must be >= 1")
    ks = np.arange(1, K + 1, dtype=float)
    a = a_sequence(schedule, ks)
    shrink, grow = 1.0 - _TERM_ULPS * _EPS, 1.0 + _TERM_ULPS * _EPS

    def tail_integral(lo: float) -> float:
        return 1.0 / ((q - 1.0) * np.log(lo + 2.0) ** (q - 1.0))

    tail_lo = shrink * A * tail_integral(K + 1.0)
    tail_hi = grow * A * (1.0 + 2.0 / K) * tail_integral(float(K))

    s_head, s_err = _head_sum(a)
    g1_lo = _down(s_head - s_err + tail_lo)
    g1_hi = _up(s_head + s_err + tail_hi)

    log_head, log_err = _head_sum(np.log1p(a * sigma2))
    # log(1+u) in [u - u^2/2, u] and sum_{k>K} a_k^2 <= a_{K+1} sum_{k>K} a_k
    a_next = float(a_sequence(schedule, K + 1.0))
    log_tail_hi = grow * sigma2 * tail_hi
    log_tail_lo = max(0.0, shrink * (sigma2 * tail_lo - 0.5 * sigma2 * a_next * log_tail_hi))
    # math.exp is within 1 ulp, so one step outward covers it
    try:
        g2_lo = _down(math.exp(_down(log_head - log_err + log_tail_lo)))
        g2_hi = _up(math.exp(_up(log_head + log_err + log_tail_hi)))
    except OverflowError:
        raise ValueError(
            "gamma2 = prod(1 + a_k sigma2) overflows a float: the stepsizes or the "
            "noise scale are too large for a finite bound"
        ) from None
    return GammaBrackets(g1_lo, g1_hi, g2_lo, g2_hi, K, float(sigma2))


@dataclass(frozen=True)
class AnytimeConstants:
    """Deviation-bound constants built from the upper gamma endpoints."""

    C1: float
    C2: float
    log_power: float  # exponent on log(k+2) in the bound
    brackets: GammaBrackets
    L: float
    E0: float


def anytime_constants(
    schedule: StepSchedule, E0: float, L: float, sigma2: float, k_trunc: int = 1_000_000
) -> AnytimeConstants:
    br = gamma_constants(schedule, sigma2, k_trunc)
    g1, g2 = br.gamma1_upper, br.gamma2_upper
    cross = L * sigma2 * (1.0 + sigma2 * g1 * g2) * g1
    C1 = L * g2 * E0 + cross
    C2 = L * g2 + cross
    power = 1.0 if schedule.kind != "epsilon_log" else 0.5 * (1.0 + schedule.epsilon)
    return AnytimeConstants(float(C1), float(C2), power, br, float(L), float(E0))


def anytime_bound(const: AnytimeConstants, k, beta: float) -> np.ndarray:
    """Evaluate the high-probability envelope at iteration(s) k; the envelope
    covers all k simultaneously with probability at least 1 - 2 beta."""
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    k = np.asarray(k, dtype=float)
    coef = const.C1 + const.C2 * np.log(1.0 / beta)
    return coef * np.log(k + 2.0) ** const.log_power / np.sqrt(k + 1.0)


def initial_energy(obj: Objective, schedule: StepSchedule, x0: np.ndarray) -> float:
    """E(0) = ||x0 - x*||^2 + 4 sqrt(eta_0) (f(x0) - f*) for the x_0 = x_1 start."""
    x0 = np.asarray(x0, dtype=float)
    eta0 = np.atleast_1d(schedule_eval(schedule, 0.0))
    return float(energy_along(np.stack([x0, x0]), eta0, np.atleast_1d(obj.f_gap(x0)),
                              obj.xstar)[0])


def anytime_coverage(
    obj: Objective,
    noise: NoiseModel,
    schedule: StepSchedule,
    K: int,
    M: int,
    beta: float,
    master_seed: int,
    x0: np.ndarray | None = None,
    k_trunc: int = 1_000_000,
) -> dict:
    """Fraction of independent runs whose suboptimality ever exceeds the
    anytime envelope over k = 1..K. The noise variance proxy fed into the
    constants is the certified MGF bound, not the raw second moment. The
    lowest-indexed violating run and its first violating k are reported
    (None when no run violates), with the smallest margin over all runs."""
    x0 = np.ones(obj.dim) if x0 is None else np.asarray(x0, dtype=float)
    sigma2 = noise.hp_sigma2
    const = anytime_constants(
        schedule, initial_energy(obj, schedule, x0), obj.lipschitz, sigma2, k_trunc
    )
    bound = anytime_bound(const, np.arange(1, K + 1), beta)
    tr = run_ensemble(obj, noise, schedule, K=K, M=M, master_seed=master_seed,
                      x0=x0, record=("f_gap",))
    f_gap = tr.f_gap[1:, :]  # (K, M), rows k = 1..K
    slack = bound[:, None] - f_gap
    above = slack < 0.0  # f_gap > bound, for finite values
    violated = np.any(above, axis=0)
    margin = float(np.min(slack))
    first_run = first_k = None
    if violated.any():
        first_run = int(np.argmax(violated))
        first_k = int(np.argmax(above[:, first_run])) + 1
    return {
        "fraction_violating": float(np.mean(violated)),
        "n_violating": int(np.sum(violated)),
        "first_violating_run": first_run,
        "first_violating_k": first_k,
        "runs": M,
        "beta": float(beta),
        "nominal_level": 2.0 * float(beta),
        "C1": const.C1,
        "C2": const.C2,
        "min_margin": margin,
        "passed": bool(np.mean(violated) <= 2.0 * beta),
    }


def supermartingale_trace(
    obj: Objective,
    noise: NoiseModel,
    schedule: StepSchedule,
    K: int,
    M: int,
    master_seed: int,
    x0: np.ndarray | None = None,
    t: float | None = None,
    k_trunc: int = 1_000_000,
    pathwise_tol: float = 1e-10,
) -> dict:
    """Monte-Carlo trace of the exponential supermartingale

        N(k) = exp( P(k) t M(k) - t sigma^2 gamma2 sum_{l<=k} a_l S(l-1) ),

    where M(k) = E(k) - S(k), S(k) = sum_{l<=k} a_l ||theta_l||^2 subtracts
    the accumulated noise energy, theta_l is the gradient-noise vector, and
    P(k) = prod_{l>k} (1 + a_l sigma^2) is the remaining product. Valid for
    t <= 1/gamma2, which is certified only up to 1/gamma2_upper; that
    endpoint is the default and the largest t accepted. Also checks
    the pathwise drift inequality M(k) - M(k-1) <= sqrt(a_k) <theta_k, tau_k>
    on every run, which requires eta_k <= k / (16 L^2).
    """
    x0 = np.ones(obj.dim) if x0 is None else np.asarray(x0, dtype=float)
    sigma2 = noise.hp_sigma2
    br = gamma_constants(schedule, sigma2, k_trunc)
    g2 = br.gamma2_upper
    t = 1.0 / g2 if t is None else float(t)
    if t > 1.0 / g2:
        raise ValueError(f"t must not exceed 1/gamma2_upper = {1.0 / g2:.17g}")
    ks = np.arange(1, K + 1, dtype=float)
    a = a_sequence(schedule, ks)
    if np.any(a > 1.0 / obj.lipschitz**2 + 1e-12):
        raise ValueError("drift inequality needs eta_k <= k / (16 L^2) for all k")

    tr = run_ensemble(obj, noise, schedule, K=K, M=M, master_seed=master_seed,
                      x0=x0, record=("energy", "theta"))
    S = np.zeros((K + 1, M))
    S[1:] = np.cumsum(a[:, None] * tr.theta_sq, axis=0)
    mart = tr.energy - S  # M(k), (K+1, M)

    drift = mart[1:] - mart[:-1] - np.sqrt(a)[:, None] * tr.theta_tau
    rel = drift / (1.0 + np.abs(mart[1:]))
    max_residual = float(np.max(rel))

    # P(k) = gamma2 / prod_{l<=k}(1+a_l sigma^2), in log space
    log_partial = np.concatenate([[0.0], np.cumsum(np.log1p(a * sigma2))])
    tail_prod = np.exp(np.log(g2) - log_partial)  # (K+1,)
    penalty = np.zeros((K + 1, M))
    penalty[1:] = np.cumsum(a[:, None] * S[:-1], axis=0)
    log_n = tail_prod[:, None] * t * mart - t * sigma2 * g2 * penalty
    overflow = bool(np.any(log_n > 700.0))
    n_vals = np.exp(np.minimum(log_n, 700.0))
    return {
        "k": np.arange(K + 1),
        "mean": np.mean(n_vals, axis=1),
        "stderr": np.std(n_vals, axis=1, ddof=1) / np.sqrt(M),
        "t": t,
        "gamma2_upper": g2,
        "overflow_clamped": overflow,
        "pathwise_max_residual": max_residual,
        "pathwise_ok": bool(max_residual <= pathwise_tol),
    }


def mgf_lemma_check(
    lambdas,
    n_samples: int = 1_000_000,
    seed: int = 0,
    dim: int = 5,
    per_coord_var: float = 1.0,
) -> list[dict]:
    """Empirically probe the scalar MGF lemma: for Gamma = <theta, w> with
    theta Gaussian, |Gamma| <= ||w|| * ||theta||, and sigma^2 the certified
    MGF constant for ||theta||^2, the lemma asserts

        E exp(lambda Gamma / (||w|| sigma)) <= exp(3 lambda^2 / 4).

    Returns one row per lambda with the Monte-Carlo mean, its standard
    error, and the asserted ceiling.
    """
    noise = NoiseModel.gaussian(dim, per_coord_var)
    sigma = np.sqrt(noise.hp_sigma2)
    rng = rng_for(seed, 0)
    w = rng.standard_normal(dim)
    w /= np.linalg.norm(w)
    gamma = noise.sample(rng, n_samples) @ w  # |Gamma| <= ||theta|| since ||w|| = 1
    rows = []
    for lam in lambdas:
        vals = np.exp(float(lam) * gamma / sigma)
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / np.sqrt(n_samples))
        ceiling = float(np.exp(0.75 * float(lam) ** 2))
        rows.append({
            "lambda": float(lam),
            "mean": mean,
            "stderr": se,
            "ceiling": ceiling,
            "passed": bool(mean <= ceiling + 3.0 * se),
        })
    return rows


def tail_lemma_check(
    omegas,
    n_terms: int = 20,
    n_samples: int = 100_000,
    seed: int = 0,
) -> list[dict]:
    """Empirically probe the weighted square-sum tail lemma: for independent
    scalars Phi_l with certified E exp(Phi_l^2 / sigma_l^2) <= e and weights
    c_l >= 0,

        Pr( sum c_l Phi_l^2 >= (1 + Omega) sum c_l sigma_l^2 ) <= exp(-Omega).

    Uses Gaussian Phi_l with heterogeneous scales and weights c_l = 1/l.
    """
    rng = rng_for(seed, 0)
    ls = np.arange(1, n_terms + 1, dtype=float)
    c = 1.0 / ls
    scales = 1.0 + 0.5 * np.sin(ls)  # heterogeneous but fixed standard deviations
    sigma2 = 2.0 * scales**2 / (1.0 - np.exp(-2.0))  # certified scalar MGF constants
    phi = rng.standard_normal((n_samples, n_terms)) * scales
    stat = phi**2 @ c
    budget = float(c @ sigma2)
    rows = []
    for om in omegas:
        frac = float(np.mean(stat >= (1.0 + float(om)) * budget))
        level = float(np.exp(-float(om)))
        se = float(np.sqrt(max(level * (1.0 - level), frac * (1.0 - frac)) / n_samples))
        rows.append({
            "omega": float(om),
            "fraction": frac,
            "level": level,
            "stderr": se,
            "passed": bool(frac <= level + 3.0 * se),
        })
    return rows
