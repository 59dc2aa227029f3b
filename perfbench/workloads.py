"""The four benchmark workloads.

A workload is a list of units, each one CLI invocation or one library call,
run in order as one *pass*. A unit returns its exit code and its verdict as
bytes: the ``verdict.json`` a CLI invocation writes, or for a library call
the same ``{subcommand, passed, checks}`` document built by the benchmark.
Sizes follow the acceptance tests' shapes, with run counts scaled down so
that one pass takes about two seconds on a 2-core host and a timed run
holds several passes (see README.md for the scaling of each unit).

Every Monte-Carlo seed is derived from the benchmark's ``--seed``; problem
instances are fixed, so their build cost and every seed-free value (ODE
energies, gamma constants, noiseless descent runs) are the same for all
seeds and are compared against the stored references on every run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from sgdmlab import cli, concentration, continuous
from sgdmlab.optimizers import StepSchedule
from sgdmlab.problems import NoiseModel, logreg_new, quadratic_new, synthetic_blobs

NAMES = ("descent", "coverage", "ode", "logreg")

DESCENT_RUNS = 10  # test_01 uses 50 runs per setting
ANYTIME_RUNS = 200  # test_05 uses 500
EXPECTATION_RUNS = 100  # test_04 uses 200
SUPERMART_RUNS = 10_000
ODE_PAIRS = ((1.0, 1.5), (1.0, 2.0), (2.0, 1.0), (2.0, 1.5))
ODE_T = 5.0  # test_02 integrates to T = 100
L2_ETAS = (0.1, 0.05, 0.02, 0.01)
L2_RUNS = 200
SDE_PATHS = 200
LOGREG_SAMPLES = 500
LOGREG_STEPS = 2000
LOGREG_EXPECTATION_RUNS = 20
LOGREG_SMOOTHNESS_RUNS = 10


@dataclass
class Unit:
    name: str
    seeded: bool  # False: the verdict does not depend on the benchmark seed
    steps: int  # run-steps, RK4 steps and SDE steps, counted from the arguments
    run: Callable[["Context"], tuple[int, bytes]]


@dataclass
class Context:
    """What a unit may use: its output directory, the problems built at
    set-up, and the entry points (swapped for traced ones in a traced pass)."""

    work: Path
    problems: dict
    main: Callable = cli.main
    objective: Callable = lambda obj: obj  # noqa: E731


def unit_seed(seed: int, unit: str) -> int:
    """Non-negative 31-bit seed for one unit, derived from the benchmark seed."""
    digest = hashlib.sha256(f"{seed}:{unit}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def build(name: str) -> dict:
    """Construct the workload's problems with the public constructors (the
    set-up the ``setup_s`` metric times)."""
    if name == "descent":
        X, y = synthetic_blobs(200, 10, 1)
        return {"quadratic": cli.default_quadratic(10, 0), "logreg": logreg_new(X, y)}
    if name == "coverage":
        return {"quadratic": cli.default_quadratic(10, 0),
                "scalar": quadratic_new(np.array([[1.0]]))}
    if name == "ode":
        return {"quadratic": cli.default_quadratic(10, 0)}
    if name == "logreg":
        X, y = synthetic_blobs(LOGREG_SAMPLES, 10, 1)
        return {"logreg": logreg_new(X, y)}
    raise ValueError(f"unknown workload {name!r}")


def write_ini(path: Path, **common) -> str:
    lines = ["[common]"] + [f"{k} = {v}" for k, v in common.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def cli_unit(name: str, seeded: bool, steps: int, argv: list[str]) -> Unit:
    def run(ctx: Context) -> tuple[int, bytes]:
        out = ctx.work / name.replace("/", "_")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = ctx.main(argv + ["--out", str(out)])
        return rc, (out / "verdict.json").read_bytes()

    return Unit(name, seeded, steps, run)


def check(name: str, passed: bool, value, threshold) -> dict:
    return {"name": name, "passed": bool(passed),
            "value": None if value is None else float(value),
            "threshold": None if threshold is None else float(threshold)}


def library_unit(name: str, seeded: bool, steps: int, fn) -> Unit:
    """Wrap a library call whose ``fn(ctx)`` returns a list of checks."""
    def run(ctx: Context) -> tuple[int, bytes]:
        checks = fn(ctx)
        passed = all(c["passed"] for c in checks)
        doc = {"subcommand": name, "passed": passed, "checks": checks}
        raw = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
        return (0 if passed else 1), raw.encode()

    return Unit(name, seeded, steps, run)


def grid_indices(eta: float, t0: float, t: float) -> tuple[int, int]:
    """The discrete grid the library puts on [t0, t] for stepsize eta."""
    return int(np.floor(t0 / eta + 1e-9)), int(np.floor(t / eta + 1e-9))


def units(name: str, seed: int, work: Path) -> list[Unit]:
    return {"descent": _descent, "coverage": _coverage, "ode": _ode,
            "logreg": _logreg}[name](seed, work)


def _descent(seed: int, work: Path) -> list[Unit]:
    out = []
    for problem, extra in (("quadratic", {}), ("logreg", {"n_samples": 200, "problem_seed": 1})):
        for noise, var in (("none", 0.0), ("gaussian", 100.0)):
            name = f"descent/{problem}-{noise}"
            ini = write_ini(work / f"{problem}-{noise}.ini", problem=problem, dim=10,
                            noise=noise, noise_var=var, **extra)
            argv = ["verify-descent", "--config", ini, "--steps", "1000",
                    "--runs", str(DESCENT_RUNS), "--workers", "1",
                    "--seed", str(unit_seed(seed, name))]
            out.append(cli_unit(name, noise != "none", 1000 * DESCENT_RUNS, argv))
    return out


def _coverage(seed: int, work: Path) -> list[Unit]:
    anytime = write_ini(work / "anytime.ini", problem="quadratic", dim=10,
                        noise="gaussian", noise_var=0.01)
    expect = write_ini(work / "expectation.ini", problem="quadratic", dim=10,
                       noise="gaussian", noise_var=1.0)
    K = 10_000

    def supermartingale(ctx: Context) -> list[dict]:
        obj = ctx.objective(ctx.problems["scalar"])
        sched = StepSchedule(kind="anytime_log2", L=obj.lipschitz)
        rep = concentration.supermartingale_trace(
            obj, NoiseModel.gaussian(1, 0.01), sched, K=100, M=SUPERMART_RUNS,
            master_seed=unit_seed(seed, "coverage/supermartingale"))
        m, se = rep["mean"], rep["stderr"]
        excess = float(np.max(np.diff(m) - 3.0 * np.hypot(se[1:], se[:-1])))
        return [check("pathwise_max_residual", rep["pathwise_ok"],
                      rep["pathwise_max_residual"], 1e-10),
                check("max_mean_increase_over_slack", excess <= 0.0, excess, 0.0),
                check("no_overflow", not rep["overflow_clamped"], None, None)]

    return [
        cli_unit("coverage/verify-anytime", True, K * ANYTIME_RUNS,
                 ["verify-anytime", "--config", anytime, "--steps", str(K),
                  "--runs", str(ANYTIME_RUNS), "--beta", "0.05",
                  "--seed", str(unit_seed(seed, "coverage/verify-anytime"))]),
        cli_unit("coverage/verify-expectation", True, K * EXPECTATION_RUNS,
                 ["verify-expectation", "--config", expect, "--steps", str(K),
                  "--runs", str(EXPECTATION_RUNS),
                  "--seed", str(unit_seed(seed, "coverage/verify-expectation"))]),
        cli_unit("coverage/constants", False, 0, ["constants", "--config", expect]),
        library_unit("coverage/supermartingale", True, 100 * SUPERMART_RUNS, supermartingale),
    ]


def _ode(seed: int, work: Path) -> list[Unit]:
    dt = 1e-3
    out = []
    for p, alpha in ODE_PAIRS:
        def pair(ctx: Context, p=p, alpha=alpha) -> list[dict]:
            obj = ctx.objective(ctx.problems["quadratic"])
            params = continuous.OdeParams(p=p, alpha=alpha, T0=1.0, T=ODE_T, dt=dt)
            sol = continuous.ode_integrate(obj, params, np.ones(10), np.zeros(10))
            rep = continuous.ode_rate_check(sol, obj, params, energy_tol=1e-8)
            return [check("energy_monotone", rep["energy_monotone"],
                          rep["max_energy_increase"], 1e-8 * rep["energy_T0"]),
                    check("rate_bound_holds", rep["rate_bound_holds"], None, None),
                    check("energy_T0", True, rep["energy_T0"], None),
                    check("final_f_gap", True, obj.f_gap(sol.X[-1]), None)]

        out.append(library_unit(f"ode/pair-{p:g}-{alpha:g}", False,
                                round((ODE_T - 1.0) / dt), pair))

    t0, t1 = 1.0, 4.0
    steps = round((t1 - t0) / dt)  # the subcommand's own energy/rate integration
    for eta in L2_ETAS:
        k0, kT = grid_indices(eta, t0, t1)
        steps += (k0 - 1) + round((kT - k0) * eta / dt) + (kT - k0) * L2_RUNS
    out.append(cli_unit(
        "ode/ode-compare", True, steps,
        ["ode-compare", "--eta-grid", ",".join(f"{e:g}" for e in L2_ETAS),
         "--runs", str(L2_RUNS), "--t0", str(t0), "--t", str(t1), "--dt", str(dt),
         "--seed", str(unit_seed(seed, "ode/ode-compare"))]))

    eta = 0.01
    k0, kT = grid_indices(eta, t0, t1)

    def sde(ctx: Context) -> list[dict]:
        obj = ctx.objective(ctx.problems["quadratic"])
        x0, v0 = np.ones(10), np.zeros(10)
        _, X, _ = continuous.sde_sample_paths(obj, eta, t0, t1, SDE_PATHS,
                                              unit_seed(seed, "ode/sde"), x0, v0)
        # the frozen-coefficient SDE is linear on a quadratic, so its mean
        # path is the noiseless recursion
        _, X_det, _ = continuous.sde_sample_paths(obj, eta, t0, t1, 1, 0, x0, v0,
                                                  noise_scale=0.0)
        XT = X[-1]
        se = np.std(XT, axis=0, ddof=1) / np.sqrt(SDE_PATHS)
        z = float(np.max(np.abs(np.mean(XT, axis=0) - X_det[-1, 0]) / se))
        return [check("mean_within_5_stderr", np.isfinite(z) and z <= 5.0, z, 5.0),
                check("mean_sq_norm_XT", True, np.mean(np.sum(XT * XT, axis=1)), None)]

    out.append(library_unit("ode/sde", True, (kT - k0) * (SDE_PATHS + 1), sde))
    return out


def _logreg(seed: int, work: Path) -> list[Unit]:
    ini = write_ini(work / "logreg.ini", problem="logreg", dim=10,
                    n_samples=LOGREG_SAMPLES, problem_seed=1, noise="gaussian",
                    noise_var=1.0)
    K = LOGREG_STEPS
    return [
        cli_unit("logreg/verify-expectation", True, K * LOGREG_EXPECTATION_RUNS,
                 ["verify-expectation", "--config", ini, "--steps", str(K),
                  "--runs", str(LOGREG_EXPECTATION_RUNS),
                  "--seed", str(unit_seed(seed, "logreg/verify-expectation"))]),
        cli_unit("logreg/smoothness", True, 2 * K * LOGREG_SMOOTHNESS_RUNS,
                 ["smoothness", "--config", ini, "--steps", str(K),
                  "--runs", str(LOGREG_SMOOTHNESS_RUNS),
                  "--seed", str(unit_seed(seed, "logreg/smoothness"))]),
    ]
