"""Statistical experiments over ensembles of optimizer runs: the
in-expectation convergence-rate check, the noiseless subsequence decay
diagnostic, and the trajectory-smoothness comparison between the momentum
method and plain SGD.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ._csv import write_csv
from .optimizers import GRID_CAP, StepSchedule, run_ensemble, sgdm_noise_multiplier
from .problems import NoiseModel, Objective

__all__ = [
    "log_spaced_checkpoints",
    "ensemble_summary",
    "save_ensemble_csv",
    "EXPECTATION_STDERRS",
    "expectation_rate_check",
    "subsequence_rate_check",
    "smoothness_comparison",
]


def log_spaced_checkpoints(K: int) -> np.ndarray:
    """1, 2, 5, 10, 20, 50, ... up to and including K."""
    pts = {m * 10**e for e in range(len(str(K))) for m in (1, 2, 5) if m * 10**e <= K}
    return np.array(sorted(pts | {K}), dtype=int)


def ensemble_summary(blocks: Iterable[np.ndarray]) -> dict:
    """Per-iteration mean, standard error, and 10/50/90 quantiles of a
    (K+1, M) ensemble array, and its ``final`` row, from its row blocks in
    order (``[values]`` for a whole array). The working memory is a block
    and its sorted copy, which ``np.quantile`` partitions in place. The results
    are those of the NumPy calls over the whole array, ties and non-finite included;
    a spread that overflows is inf or nan, without a NumPy warning.
    """
    parts = []
    for block in blocks:
        q = np.quantile(np.sort(block, axis=1), [0.1, 0.5, 0.9], axis=1, overwrite_input=True)
        with np.errstate(over="ignore", invalid="ignore"):
            parts.append((np.mean(block, axis=1), np.std(block, axis=1, ddof=1), *q))
    mean, sd, q10, q50, q90 = (np.concatenate(p) for p in zip(*parts))
    return {
        "k": np.arange(len(mean)),
        "mean": mean,
        "stderr": sd / np.sqrt(block.shape[1]),
        "q10": q10,
        "q50": q50,
        "q90": q90,
        "final": block[-1].copy(),
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


# a checkpoint of the expectation check passes when the ensemble mean is
# within this many standard errors above the rate bound
EXPECTATION_STDERRS = 3.0


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
    is within :data:`EXPECTATION_STDERRS` standard errors of the bound. The
    stepsize is the one the rate is proved for: eta_k = c / (L^2 log^2(k+2))
    with c = 1/4, and the noise budget sigma^2 is the raw second moment
    E||xi||^2. The gaps are summarized as the ensemble yields them."""
    if M < 2:
        raise ValueError("M must be >= 2: a standard error needs at least two runs")
    sched = StepSchedule(kind="expectation_log2", L=obj.lipschitz, scale=c)
    with run_ensemble(obj, noise, sched, K, M, master_seed) as stream:
        summary = ensemble_summary(b.f_gap for b in stream)
    checkpoints = log_spaced_checkpoints(K)
    mean, se = summary["mean"][checkpoints], summary["stderr"][checkpoints]
    bound = expectation_rate_bound(obj, noise.sigma2, np.ones(obj.dim), checkpoints)
    ok = mean <= bound + EXPECTATION_STDERRS * se
    return {
        "checkpoints": checkpoints,
        "mean": mean,
        "stderr": se,
        "bound": bound,
        "passed": bool(np.all(ok)),
        "first_failure_k": int(checkpoints[np.argmin(ok)]) if not np.all(ok) else None,
        "summary": summary,
    }


def subsequence_rate_check(obj: Objective, K: int) -> dict:
    """Noiseless decay of the weighted running minimum

        m(K) = min_{k <= K} sqrt(k) log(log(k+2)) (f(x_k) - f*),

    which the theory sends to zero along a subsequence, for the run from
    x_0 = x_1 = (1, ..., 1) with eta_k = 1 / (4 L^2 log^2(k+2)). Reports m
    at k = 100 and at K so callers can verify strict decrease."""
    schedule = StepSchedule(kind="expectation_log2", L=obj.lipschitz, scale=0.25)
    f_gap = run_ensemble(obj, NoiseModel.noiseless(obj.dim), schedule, K, 1, 0).collect("f_gap")
    ks = np.arange(1, K + 1, dtype=float)
    weighted = np.sqrt(ks) * np.log(np.log(ks + 2.0)) * f_gap[0][1:, 0]
    running_min = np.minimum.accumulate(weighted)
    at = {100: float(running_min[99])} if K >= 100 else {}
    at[int(K)] = float(running_min[-1])
    return {"running_min": running_min, "at": at}


def _quarter_start(K: int) -> int:
    """First step k of the last quarter of a K-step horizon, where the
    smoothness comparison measures increments."""
    return max(1, (3 * K) // 4)


def _increment_variances(f_gap: np.ndarray) -> np.ndarray:
    """Per-run variance of successive suboptimality increments over the rows
    of ``f_gap`` (rows, M); one that overflows is inf or nan, without a
    NumPy warning, and the comparison of the medians then fails."""
    inc = np.diff(f_gap, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.var(inc, axis=0, ddof=1)


def _late_gaps(obj: Objective, noise: NoiseModel, schedule: StepSchedule, K: int,
               M: int, master_seed: int, **kw) -> np.ndarray:
    """f(x_k) - f* of M runs at k = _quarter_start(K) .. K, shape
    (K - start + 1, M), for K >= 3. Steps before the quarter call the
    gradient alone, and the quarter continues them on the same generators,
    so the rows equal those of one stream recording ``f_gap`` over all K
    steps. Raises ``ValueError`` if the rows would keep more than
    ``GRID_CAP`` values: after the head's own checks, so that an M over the
    run cap is reported as such, and before any step."""
    start = _quarter_start(K)
    head = run_ensemble(obj, noise, schedule, K=start - 1, M=M, master_seed=master_seed,
                        record=(), **kw)
    rows = K - start + 2  # k = start - 1 .. K, before the first is dropped
    if rows * M > GRID_CAP:
        raise ValueError(f"the last quarter's f_gap, {rows} rows of M={M} runs, would keep "
                         f"more than {GRID_CAP} values")
    head.collect()
    tail = run_ensemble(obj, noise, schedule, K=K - start + 1, M=M, master_seed=master_seed,
                        k_start=start, x0=head.x_cur_final, x_prev0=head.x_prev_final,
                        rngs=head.rngs, **kw)
    return tail.collect("f_gap")[0][1:]


def smoothness_comparison(
    obj: Objective,
    noise: NoiseModel,
    K: int,
    M: int,
    master_seed: int,
    schedule: StepSchedule,
    sgd_scale: float = 1.0,
) -> dict:
    """Compare late-horizon trajectory roughness of the momentum method
    against plain SGD with stepsize sgd_scale / sqrt(k), both from
    x_0 = x_1 = (1, ..., 1) and under the same noise. Roughness is the
    per-run variance of successive suboptimality increments over the last
    quarter of iterations; medians across runs are compared. Also reports
    the ratio of effective per-step noise multipliers at k = K as a
    deterministic cross-check of why the gap appears, and the run with the
    largest momentum increment variance.

    Only the last quarter's gaps are evaluated: each ensemble runs its
    earlier steps on gradients alone and continues them, on the same
    generators, over the quarter with ``f_gap`` recorded. The medians are
    bitwise those of recording ``f_gap`` over the whole horizon. K < 5 or a
    noiseless model raises ``ValueError``.
    """
    if K < 5:
        raise ValueError("smoothness needs K >= 5, so that the last quarter "
                         "holds two increments")
    if noise.sigma2 == 0.0:
        raise ValueError("smoothness needs a stochastic noise model: noiseless runs "
                         "have zero increment variance for both methods")
    var_m = _increment_variances(
        _late_gaps(obj, noise, schedule, K, M, master_seed, algorithm="sgdm"))
    var_s = _increment_variances(
        _late_gaps(obj, noise, schedule, K, M, master_seed + 1, algorithm="sgd",
                   sgd_scale=sgd_scale))
    med_m, med_s = float(np.median(var_m)), float(np.median(var_s))
    with np.errstate(divide="ignore", over="ignore"):  # an SGD multiplier may underflow
        mult_ratio = float(sgdm_noise_multiplier(schedule, K) / (sgd_scale / np.sqrt(K)))
    return {
        "median_var_sgdm": med_m,
        "median_var_sgd": med_s,
        "noise_multiplier_ratio": mult_ratio,
        "argmax_run_sgdm": int(np.argmax(var_m)),
        "passed": bool(med_m < med_s),
    }
