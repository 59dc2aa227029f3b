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


# Blocks of _head_sums' terms evaluated at once: at n = 10^6 a slab of 16
# blocks is 16 000 terms, 128 kB per array, so a slab's terms and their
# temporaries stay in a 1 MB L2 cache (64 blocks measured 40% slower).
_SLAB_BLOCKS = 16


def _head_sums(terms_of, n: int) -> list[tuple[float, float]]:
    """Sums over k = 1..n of families of non-negative terms, each with an
    a-priori bound on its rounding error.

    ``terms_of(ks)`` returns one array of terms per family at the float
    indices ``ks``. Each family is summed in blocks of b = ceil(sqrt(n)),
    then the block sums and the remainder are added. In whatever order NumPy
    adds within each level, every term passes through fewer than 2b rounded
    additions, so the computed sum is within (2b + c) _EPS sum(terms) of the
    exact sum of the exact terms, c covering each term's own rounding.
    Compared with the (n + c) _EPS bound of a flat sum, the widening shrinks
    from 2e-10 to 5e-13 of the sum at n = 10^6.

    The terms are evaluated _SLAB_BLOCKS blocks at a time and only the block
    sums are kept, so the working memory is O(sqrt(n)); the blocks, and hence
    every rounding and the bound, are those of summing the full arrays.
    """
    b = math.isqrt(n - 1) + 1
    full = (n // b) * b
    rest = terms_of(np.arange(full + 1, n + 1, dtype=float))
    block_sums = np.empty((len(rest), n // b))
    for lo in range(0, full, _SLAB_BLOCKS * b):
        hi = min(lo + _SLAB_BLOCKS * b, full)
        for sums, terms in zip(block_sums, terms_of(np.arange(lo + 1, hi + 1, dtype=float))):
            terms.reshape(-1, b).sum(axis=1, out=sums[lo // b:hi // b])
    totals = [float(np.sum(sums) + np.sum(tail)) for sums, tail in zip(block_sums, rest)]
    return [(total, (2.0 * b + _TERM_ULPS) * _EPS * total) for total in totals]


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
    error bound (see :func:`_head_sums`), the tails by a per-term relative
    error, and every endpoint, including those of exp, is stepped one ulp
    outward. The head terms a_k and log1p(a_k sigma2) are evaluated a slab
    at a time, so the call needs O(sqrt(k_trunc)) memory."""
    if sigma2 < 0:
        raise ValueError("sigma2 must be non-negative")
    A, q = _series_params(schedule)
    K = int(k_trunc)
    if K < 1:
        raise ValueError("k_trunc must be >= 1")

    def terms_of(ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a = a_sequence(schedule, ks)
        return a, np.log1p(a * sigma2)

    (s_head, s_err), (log_head, log_err) = _head_sums(terms_of, K)
    shrink, grow = 1.0 - _TERM_ULPS * _EPS, 1.0 + _TERM_ULPS * _EPS

    def tail_integral(lo: float) -> float:
        return 1.0 / ((q - 1.0) * np.log(lo + 2.0) ** (q - 1.0))

    tail_lo = shrink * A * tail_integral(K + 1.0)
    tail_hi = grow * A * (1.0 + 2.0 / K) * tail_integral(float(K))

    g1_lo = _down(s_head - s_err + tail_lo)
    g1_hi = _up(s_head + s_err + tail_hi)

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
    k_trunc: int = 1_000_000,
) -> dict:
    """Fraction of independent runs from x_0 = x_1 = (1, ..., 1) whose
    suboptimality ever exceeds the anytime envelope over k = 1..K. The
    noise variance proxy fed into the constants is the certified MGF bound,
    not the raw second moment. The lowest-indexed violating run and its
    first violating k are reported (None when no run violates), with the
    smallest margin over all runs."""
    sigma2 = noise.hp_sigma2
    e0 = initial_energy(obj, schedule, np.ones(obj.dim))
    const = anytime_constants(schedule, e0, obj.lipschitz, sigma2, k_trunc)
    bound = anytime_bound(const, np.arange(1, K + 1), beta)
    tr = run_ensemble(obj, noise, schedule, K=K, M=M, master_seed=master_seed,
                      record=("f_gap",))
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
) -> dict:
    """Monte-Carlo trace of the exponential supermartingale

        N(k) = exp( P(k) t M(k) - t sigma^2 gamma2 sum_{l<=k} a_l S(l-1) ),

    where M(k) = E(k) - S(k), S(k) = sum_{l<=k} a_l ||theta_l||^2 subtracts
    the accumulated noise energy, theta_l is the gradient-noise vector, and
    P(k) = prod_{l>k} (1 + a_l sigma^2) is the remaining product. Valid for
    t <= 1/gamma2, which is certified only up to 1/gamma2_upper; that
    endpoint is the default and the largest t accepted. Also checks
    the pathwise drift inequality M(k) - M(k-1) <= sqrt(a_k) <theta_k, tau_k>
    on every run (to 1e-10 of 1 + |M(k)|), which requires
    eta_k <= k / (16 L^2).

    Beyond the ensemble's recorded (K+1, M) fields (energy, ||theta||^2 and
    <theta, tau>), the trace works in row blocks of about 2^16 values,
    carrying S(k-1), the penalty sum and M(k-1) from block to block; the
    running sums add row after row exactly as ``np.cumsum`` does, so the
    result is that of the full-array formulas. A standard error needs
    M >= 2. Where ``overflow_clamped`` is true, N(k) is clamped at
    exp(700), and a row whose spread overflows reports ``stderr = inf``,
    without a NumPy overflow warning.
    """
    if M < 2:
        raise ValueError("M must be >= 2: a standard error needs at least two runs")
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
    # P(k) = gamma2 / prod_{l<=k}(1+a_l sigma^2), in log space
    log_partial = np.concatenate([[0.0], np.cumsum(np.log1p(a * sigma2))])
    mart_coef = np.exp(np.log(g2) - log_partial)[:, None] * t  # P(k) t, (K+1, 1)
    pen_coef = t * sigma2 * g2
    sqrt_a = np.sqrt(a)

    rows = max(1, 2**16 // M)
    # row 0 of S, pen and mart carries row lo-1 of S(k), the penalty
    # sum_{l<=k} a_l S(l-1) and M(k) = E(k) - S(k) into the block of rows lo..hi-1
    S, pen, mart, log_n, work = np.zeros((5, rows + 1, M))
    mart[0] = tr.energy[0]
    mean, sd = np.empty((2, K + 1))
    row_residual = np.empty(K)
    overflow = False
    for lo in range(1, K + 1, rows):
        hi = min(lo + rows, K + 1)
        n, ak = hi - lo, a[lo - 1:hi - 1, None]
        Sb, pb, mb = S[:n + 1], pen[:n + 1], mart[:n + 1]
        np.multiply(ak, tr.theta_sq[lo - 1:hi - 1], out=Sb[1:])
        np.cumsum(Sb, axis=0, out=Sb)
        np.multiply(ak, Sb[:-1], out=pb[1:])
        np.cumsum(pb, axis=0, out=pb)
        np.subtract(tr.energy[lo:hi], Sb[1:], out=mb[1:])

        drift = np.subtract(mb[1:], mb[:-1], out=log_n[:n])
        drift -= np.multiply(sqrt_a[lo - 1:hi - 1, None], tr.theta_tau[lo - 1:hi - 1],
                             out=work[:n])
        drift /= np.add(1.0, np.abs(mb[1:], out=work[:n]), out=work[:n])
        np.max(drift, axis=1, out=row_residual[lo - 1:hi - 1])

        s = 0 if lo == 1 else 1  # row k = 0 enters the statistics with the first block
        ln = np.multiply(mart_coef[lo - 1 + s:hi], mb[s:], out=log_n[:n + 1 - s])
        ln -= np.multiply(pen_coef, pb[s:], out=work[:n + 1 - s])
        overflow |= bool(np.any(ln > 700.0))
        np.exp(np.minimum(ln, 700.0, out=ln), out=ln)
        np.mean(ln, axis=1, out=mean[lo - 1 + s:hi])
        with np.errstate(over="ignore"):  # a clamped N(k) may square to inf
            np.std(ln, axis=1, ddof=1, out=sd[lo - 1 + s:hi])
        S[0], pen[0], mart[0] = Sb[n], pb[n], mb[n]
    max_residual = float(np.max(row_residual))
    return {
        "k": np.arange(K + 1),
        "mean": mean,
        "stderr": sd / np.sqrt(M),
        "t": t,
        "gamma2_upper": g2,
        "overflow_clamped": overflow,
        "pathwise_max_residual": max_residual,
        "pathwise_ok": bool(max_residual <= 1e-10),
    }


def mgf_lemma_check(
    lambdas,
    n_samples: int = 1_000_000,
    seed: int = 0,
) -> list[dict]:
    """Empirically probe the scalar MGF lemma: for Gamma = <theta, w> with
    theta ~ N(0, I_5) and w a seeded random unit vector, |Gamma| <= ||w||
    ||theta||, and sigma^2 the certified MGF constant for ||theta||^2, the
    lemma asserts

        E exp(lambda Gamma / (||w|| sigma)) <= exp(3 lambda^2 / 4).

    Returns one row per lambda with the Monte-Carlo mean, its standard
    error, and the asserted ceiling.
    """
    noise = NoiseModel.gaussian(5, 1.0)
    sigma = np.sqrt(noise.hp_sigma2)
    rng = rng_for(seed, 0)
    w = rng.standard_normal(5)
    w /= np.linalg.norm(w)
    # |Gamma| <= ||theta|| since ||w|| = 1; the noise is drawn and projected
    # 2^16 samples at a time, the same draws in the same order as one batch
    gamma = np.empty(n_samples)
    for lo in range(0, n_samples, 2**16):
        hi = min(lo + 2**16, n_samples)
        np.matmul(noise.sample(rng, hi - lo), w, out=gamma[lo:hi])
    rows = []
    for lam in lambdas:
        # a large lambda overflows the ceiling (past ~30.8) or the samples'
        # moments to inf, quietly: a non-finite value is reported as such
        with np.errstate(over="ignore", invalid="ignore"):
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
