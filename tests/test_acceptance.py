"""Acceptance suite: one test per claim, each printing a PASS/FAIL line.

Every criterion runs at the scale and tolerance stated for it, including a
wall-clock budget; nothing is down-scaled here.
"""

import json
import math
import time

import numpy as np
import pytest

from sgdmlab.cli import default_quadratic, main
from sgdmlab.concentration import (
    anytime_coverage,
    gamma_constants,
    mgf_lemma_check,
    supermartingale_trace,
    tail_lemma_check,
)
from sgdmlab.continuous import OdeParams, l2_limit_estimate, ode_integrate, ode_rate_check
from sgdmlab.lyapunov import check_descent
from sgdmlab.optimizers import StepSchedule, run_ensemble
from sgdmlab.problems import NoiseModel, logreg_new, quadratic_new, synthetic_blobs
from sgdmlab.stats import (
    expectation_rate_check,
    smoothness_comparison,
    subsequence_rate_check,
)


def report(idx, name, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {idx:02d} {name}: {status} ({elapsed:.1f}s / {budget:.0f}s budget) {detail}")
    assert ok, f"criterion {idx} ({name}) failed: {detail}"
    assert elapsed < budget, f"criterion {idx} exceeded {budget:.0f}s ({elapsed:.1f}s)"


def test_01_pathwise_descent():
    t0 = time.time()
    quad = default_quadratic(10, 0)
    X, y = synthetic_blobs(200, 10, seed=1)
    logreg = logreg_new(X, y)
    worst = -np.inf
    ok = True
    for obj in (quad, logreg):
        sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
        for var in (0.0, 100.0):
            # runs 0..49 of one batch: run i draws from the stream of rng_for(7, i)
            stream = run_ensemble(obj, NoiseModel.gaussian(10, var), sched, 1000, 50, 7,
                                  record=("energy", "descent"))
            rep = check_descent(stream, stream, tol=1e-10)
            worst = max(worst, rep.max_residual)
            ok = ok and rep.passed
    report(1, "pathwise descent inequality", ok, time.time() - t0, 60.0,
           f"max residual {worst:.2e}")


def test_02_continuous_energy_and_rate():
    t0 = time.time()
    obj = default_quadratic(10, 0)
    ok = True
    details = []
    for p, alpha in ((1.0, 1.5), (1.0, 2.0), (2.0, 1.0), (2.0, 1.5)):
        params = OdeParams(p=p, alpha=alpha, T0=1.0, T=100.0, dt=1e-3)
        sol = ode_integrate(obj, params, np.ones(10), np.zeros(10))
        rep = ode_rate_check(sol, obj, params, energy_tol=1e-8)
        ok = ok and rep["passed"]
        details.append(f"({p:g},{alpha:g}):{rep['max_energy_increase']:.1e}")
    report(2, "continuous energy decay + rate bound", ok, time.time() - t0, 60.0,
           " ".join(details))


def test_03_l2_continuous_discrete_limit():
    t0 = time.time()
    ok = True
    detail = []
    for dim, pseed in ((1, 0), (10, 0)):
        obj = default_quadratic(dim, pseed)
        rows = l2_limit_estimate(obj, [0.1, 0.05, 0.02, 0.01], 1.0, 4.0, 200, 21)
        for a, b in zip(rows, rows[1:]):
            gate = 2.0 * math.hypot(a["stderr"], b["stderr"])
            if not b["mean_sq_dist"] < a["mean_sq_dist"] + gate:
                ok = False
        detail.append(f"{dim}d:" + ">".join(f"{r['mean_sq_dist']:.3g}" for r in rows))
    report(3, "L2 continuous-discrete limit", ok, time.time() - t0, 300.0,
           " ".join(detail))


def test_04_expectation_rate():
    t0 = time.time()
    obj = default_quadratic(10, 0)
    noise = NoiseModel.gaussian(10, 1.0)  # exact second moment: dim * 1
    rep = expectation_rate_check(obj, noise, K=10_000, M=200, master_seed=4, c=0.25)
    report(4, "in-expectation convergence rate", rep["passed"], time.time() - t0,
           300.0, f"worst checkpoint k={rep['first_failure_k']}")


def test_05_anytime_coverage():
    t0 = time.time()
    obj = default_quadratic(10, 0)
    noise = NoiseModel.gaussian(10, 0.01)
    sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
    rep = anytime_coverage(obj, noise, sched, K=10_000, M=500, beta=0.05,
                           master_seed=5)
    report(5, "anytime bound coverage", rep["passed"], time.time() - t0, 600.0,
           f"violating fraction {rep['fraction_violating']:.3f} <= 0.10 "
           f"(min margin {rep['min_margin']:.3g})")


def test_06_supermartingale():
    t0 = time.time()
    obj = quadratic_new(np.array([[1.0]]))
    noise = NoiseModel.gaussian(1, 0.01)
    sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
    rep = supermartingale_trace(obj, noise, sched, K=100, M=10_000, master_seed=6)
    m, se = rep["mean"], rep["stderr"]
    slack = 3.0 * np.hypot(se[1:], se[:-1])
    mono = bool(np.all(np.diff(m) <= slack))
    ok = mono and rep["pathwise_ok"] and not rep["overflow_clamped"]
    report(6, "exponential supermartingale", ok, time.time() - t0, 120.0,
           f"pathwise residual {rep['pathwise_max_residual']:.2e}, "
           f"max mean increase {np.max(np.diff(m) - slack):.2e}")


def test_07_concentration_lemmas():
    t0 = time.time()
    mgf = mgf_lemma_check([0.25, 0.5, 1.0, 1.33], n_samples=1_000_000, seed=7)
    tail = tail_lemma_check([0.5, 1.0, 2.0, 3.0], n_samples=100_000, seed=7)
    ok = all(r["passed"] for r in mgf) and all(r["passed"] for r in tail)
    report(7, "scalar concentration lemmas", ok, time.time() - t0, 120.0,
           f"max mgf mean {max(r['mean'] for r in mgf):.4f}")


def test_08_gamma_constants():
    t0 = time.time()
    sched = StepSchedule(kind="anytime_log2", L=1.0, scale=1.0)
    br = gamma_constants(sched, sigma2=1.0, k_trunc=1_000_000)
    ok = (br.gamma1_width <= 1e-4 and br.gamma2_width <= 1e-4
          and br.gamma1_upper <= 4.0)
    report(8, "gamma series brackets", ok, time.time() - t0, 60.0,
           f"gamma1 in [{br.gamma1_lower:.6f}, {br.gamma1_upper:.6f}] (<= 4)")


def test_09_smoothness_comparison():
    t0 = time.time()
    obj = default_quadratic(10, 0)
    noise = NoiseModel.gaussian(10, 100.0)
    sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
    rep = smoothness_comparison(obj, noise, K=2000, M=10, master_seed=9,
                                schedule=sched, sgd_scale=1.0)
    ok = rep["passed"]
    report(9, "momentum trajectories are smoother than SGD", ok, time.time() - t0,
           60.0, f"medians {rep['median_var_sgdm']:.3g} < {rep['median_var_sgd']:.3g}")


def test_10_subsequence_decay():
    t0 = time.time()
    obj = default_quadratic(10, 0)
    rep = subsequence_rate_check(obj, K=10_000)
    ok = rep["at"][10_000] < rep["at"][100]
    report(10, "weighted running-minimum decay", ok, time.time() - t0, 30.0,
           f"m(1e4)={rep['at'][10_000]:.3g} < m(1e2)={rep['at'][100]:.3g}")


def test_11_reproducibility(tmp_path):
    t0 = time.time()
    dirs = [tmp_path / n for n in ("a", "b", "c")]
    base = ["run", "--steps", "200", "--runs", "8", "--seed", "13"]
    assert main(base + ["--out", str(dirs[0]), "--workers", "1"]) == 0
    assert main(base + ["--out", str(dirs[1]), "--workers", "1"]) == 0
    assert main(base + ["--out", str(dirs[2]), "--workers", "4"]) == 0
    files = ["ensemble.csv", "verdict.json", "config_resolved.json"]
    rerun_ok = all(
        (dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes() for f in files[:2]
    )
    parallel_ok = (dirs[0] / "ensemble.csv").read_bytes() == (
        dirs[2] / "ensemble.csv"
    ).read_bytes()

    out_d = tmp_path / "d1"
    out_d2 = tmp_path / "d2"
    for out in (out_d, out_d2):
        assert main(["verify-descent", "--out", str(out), "--steps", "100",
                     "--runs", "3", "--seed", "2"]) == 0
    descent_ok = (out_d / "verdict.json").read_bytes() == (
        out_d2 / "verdict.json"
    ).read_bytes()
    ok = rerun_ok and parallel_ok and descent_ok
    report(11, "byte-identical reruns, serial == parallel", ok, time.time() - t0,
           120.0, "")
