"""Statistical experiments over ensembles of optimizer runs: the
in-expectation convergence-rate check, the noiseless subsequence decay
diagnostic, and the trajectory-smoothness comparison between the momentum
method and plain SGD.
"""

from __future__ import annotations

import numpy as np

from ._csv import write_csv
from .optimizers import (
    StepSchedule,
    run_ensemble,
    sgdm_noise_multiplier,
)
from .problems import NoiseModel, Objective
from .seeding import rngs_for

__all__ = [
    "log_spaced_checkpoints",
    "ensemble_summary",
    "save_ensemble_csv",
    "expectation_rate_check",
    "subsequence_rate_check",
    "smoothness_comparison",
]


def log_spaced_checkpoints(K: int) -> np.ndarray:
    """1, 2, 5, 10, 20, 50, ... up to and including K."""
    pts = []
    base = 1
    while base <= K:
        for m in (1, 2, 5):
            v = m * base
            if v <= K:
                pts.append(v)
        base *= 10
    if pts[-1] != K:
        pts.append(K)
    return np.array(sorted(set(pts)), dtype=int)


# values per row block of ensemble_summary
_SUMMARY_BLOCK = 1 << 16


def ensemble_summary(values: np.ndarray) -> dict:
    """Per-iteration mean, standard error, and 10/50/90 quantiles of a
    (K+1, M) ensemble array.

    The rows are summarized a block of about 2^16 values at a time, so no
    temporary grows with K. Each block is sorted along its rows before
    ``np.quantile`` partitions it in place. The results are those of the
    same NumPy calls over the whole array, ties and non-finite entries
    included.
    """
    n, M = values.shape
    mean, sd, q10, q50, q90 = np.empty((5, n))
    rows = max(1, _SUMMARY_BLOCK // M)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        block = values[lo:hi]
        np.mean(block, axis=1, out=mean[lo:hi])
        np.std(block, axis=1, ddof=1, out=sd[lo:hi])
        sorted_block = np.sort(block, axis=1)
        q10[lo:hi], q50[lo:hi], q90[lo:hi] = np.quantile(
            sorted_block, [0.1, 0.5, 0.9], axis=1, overwrite_input=True)
    return {
        "k": np.arange(n),
        "mean": mean,
        "stderr": sd / np.sqrt(M),
        "q10": q10,
        "q50": q50,
        "q90": q90,
    }


def save_ensemble_csv(path, summary: dict) -> None:
    cols = np.column_stack(
        [summary["k"], summary["mean"], summary["stderr"],
         summary["q10"], summary["q50"], summary["q90"]]
    )
    write_csv(path, cols, "k,mean,stderr,q10,q50,q90")


def expectation_rate_bound(obj: Objective, sigma2: float, x0: np.ndarray, k) -> np.ndarray:
    """In-expectation ceiling (3 L ||x0 - x*||^2 + 4 sigma^2 / L)
    log(k+2) / (2 sqrt(k+1)) for the proof's stepsize choice."""
    k = np.asarray(k, dtype=float)
    L = obj.lipschitz
    d2 = float(np.sum((np.asarray(x0, dtype=float) - obj.xstar) ** 2))
    return (3.0 * L * d2 + 4.0 * sigma2 / L) * np.log(k + 2.0) / (2.0 * np.sqrt(k + 1.0))


def expectation_rate_check(
    obj: Objective,
    noise: NoiseModel,
    K: int,
    M: int,
    master_seed: int,
    c: float = 0.25,
) -> dict:
    """Compare the ensemble-mean suboptimality of runs from
    x_0 = x_1 = (1, ..., 1) against the in-expectation rate at
    logarithmically spaced checkpoints; a checkpoint passes when the mean
    is within 3 standard errors of the bound. The stepsize is the one the
    rate is proved for: eta_k = c / (L^2 log^2(k+2)) with c = 1/4, and the
    noise budget sigma^2 is the raw second moment E||xi||^2."""
    if M < 2:
        raise ValueError("M must be >= 2: a standard error needs at least two runs")
    sched = StepSchedule(kind="expectation_log2", L=obj.lipschitz, scale=c)
    tr = run_ensemble(obj, noise, sched, K=K, M=M, master_seed=master_seed,
                      record=("f_gap",))
    checkpoints = log_spaced_checkpoints(K)
    summary = ensemble_summary(tr.f_gap)
    mean, se = summary["mean"][checkpoints], summary["stderr"][checkpoints]
    bound = expectation_rate_bound(obj, noise.sigma2, np.ones(obj.dim), checkpoints)
    ok = mean <= bound + 3.0 * se
    return {
        "checkpoints": checkpoints,
        "mean": mean,
        "stderr": se,
        "bound": bound,
        "passed": bool(np.all(ok)),
        "first_failure_k": int(checkpoints[np.argmin(ok)]) if not np.all(ok) else None,
        "summary": summary,
    }


def subsequence_rate_check(obj: Objective, K: int, checkpoints=(100,)) -> dict:
    """Noiseless decay of the weighted running minimum

        m(K) = min_{k <= K} sqrt(k) log(log(k+2)) (f(x_k) - f*),

    which the theory sends to zero along a subsequence, for the run from
    x_0 = x_1 = (1, ..., 1) with eta_k = 1 / (4 L^2 log^2(k+2)). Reports m
    at the requested checkpoints and at K so callers can verify strict
    decrease."""
    schedule = StepSchedule(kind="expectation_log2", L=obj.lipschitz, scale=0.25)
    tr = run_ensemble(obj, NoiseModel.noiseless(obj.dim), schedule, K, 1, 0)
    ks = np.arange(1, K + 1, dtype=float)
    weighted = np.sqrt(ks) * np.log(np.log(ks + 2.0)) * tr.f_gap[1:, 0]
    running_min = np.minimum.accumulate(weighted)
    at = {int(cp): float(running_min[cp - 1]) for cp in checkpoints if cp <= K}
    at[int(K)] = float(running_min[-1])
    return {"running_min": running_min, "at": at, "m_final": float(running_min[-1])}


def _quarter_start(K: int) -> int:
    """First step k of the last quarter of a K-step horizon, where the
    smoothness comparison measures increments."""
    return max(1, (3 * K) // 4)


def _increment_variances(f_gap: np.ndarray, start: int | None = None) -> np.ndarray:
    """Per-run variance of successive suboptimality increments over rows
    ``start``.. of ``f_gap`` (rows, M). By default f_gap holds k = 0..K and
    the rows are the last quarter's, k = _quarter_start(K) .. K."""
    if start is None:
        start = _quarter_start(f_gap.shape[0] - 1)
    inc = np.diff(f_gap[start:], axis=0)
    return np.var(inc, axis=0, ddof=1)


def _late_gaps(obj: Objective, noise: NoiseModel, schedule: StepSchedule, K: int,
               M: int, master_seed: int, **kw) -> np.ndarray:
    """f(x_k) - f* of M runs at k = _quarter_start(K) .. K, shape
    (K - start + 1, M), for K >= 3. Steps before the quarter call the
    gradient alone, and the quarter continues them on the same generators,
    so the rows equal those of one ``run_ensemble(..., record=("f_gap",))``
    call over all K steps."""
    start = _quarter_start(K)
    rngs = rngs_for(master_seed, M)
    head = run_ensemble(obj, noise, schedule, K=start - 1, M=M, master_seed=master_seed,
                        record=(), rngs=rngs, **kw)
    tail = run_ensemble(obj, noise, schedule, K=K - start + 1, M=M, master_seed=master_seed,
                        k_start=start, x0=head.x_cur_final, x_prev0=head.x_prev_final,
                        record=("f_gap",), rngs=rngs, **kw)
    return tail.f_gap[1:]


def smoothness_comparison(
    obj: Objective,
    noise: NoiseModel,
    K: int,
    M: int,
    master_seed: int,
    schedule: StepSchedule | None = None,
    sgd_scale: float = 1.0,
) -> dict:
    """Compare late-horizon trajectory roughness of the momentum method
    against plain SGD with stepsize sgd_scale / sqrt(k), both from
    x_0 = x_1 = (1, ..., 1) and under the same noise. Roughness is the
    per-run variance of successive suboptimality increments over the last
    quarter of iterations; medians across runs are compared. Also reports
    the ratio of effective per-step noise multipliers at k = K as a
    deterministic cross-check of why the gap appears.

    Only the last quarter's gaps are evaluated: each ensemble runs its
    earlier steps on gradients alone and continues them, on the same
    generators, over the quarter with ``f_gap`` recorded. The medians are
    bitwise those of recording ``f_gap`` over the whole horizon.
    """
    if K < 5:
        raise ValueError("smoothness needs K >= 5, so that the last quarter "
                         "holds two increments")
    if noise.sigma2 == 0.0:
        return {"skipped": True,
                "reason": "noiseless runs have zero increment variance for both methods"}
    if schedule is None:
        schedule = StepSchedule(kind="expectation_log2", L=obj.lipschitz, scale=0.25)
    var_m = _increment_variances(
        _late_gaps(obj, noise, schedule, K, M, master_seed, algorithm="sgdm"), 0)
    var_s = _increment_variances(
        _late_gaps(obj, noise, schedule, K, M, master_seed + 1, algorithm="sgd",
                   sgd_scale=sgd_scale), 0)
    med_m, med_s = float(np.median(var_m)), float(np.median(var_s))
    mult_ratio = float(sgdm_noise_multiplier(schedule, K) / (sgd_scale / np.sqrt(K)))
    out = {
        "skipped": False,
        "median_var_sgdm": med_m,
        "median_var_sgd": med_s,
        "noise_multiplier_ratio": mult_ratio,
        "passed": bool(med_m < med_s),
    }
    if med_m == med_s:
        out["note"] = ("medians are exactly equal; increase runs or horizon "
                       "to separate the methods")
    return out
