"""Command-line harness: wires a flat INI config (plus flag overrides) to
the experiment functions, runs all Monte-Carlo runs of an invocation as one
batch with counter-based per-run seeding, and writes CSV artifacts plus a
machine-readable ``verdict.json`` into the output directory.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 config error
(including a ``ValueError`` raised by the library on the resolved values, and
a logistic optimum that :func:`~sgdmlab.problems.fstar_refine` cannot reach),
3 divergence: an iterate or ODE state left the finite range, or a recorded
gap or energy did while the iterates stayed finite, reported on one
``diverged: ...`` line that names the run(s) and the first non-finite step.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import concentration as conc
from . import continuous as cont
from . import stats
from ._csv import write_csv
from .lyapunov import check_descent
from .optimizers import PATH_FIELDS, StepSchedule, TrajectoryRecord, run_ensemble, run_trajectory
from .problems import (
    NoiseModel,
    Objective,
    OptimumNotReached,
    load_csv_dataset,
    logreg_new,
    quadratic_new,
    synthetic_blobs,
)
from .seeding import seed_split

SUBCOMMANDS = (
    "run", "verify-descent", "verify-expectation", "verify-anytime",
    "ode-compare", "concentration", "smoothness", "constants",
)

_DEFAULTS = {
    "problem": "quadratic",
    "dim": "10",
    "problem_seed": "0",
    "n_samples": "200",
    "algorithm": "sgdm",
    "schedule": "anytime_log2",
    "scale": "1.0",
    "epsilon": "0.5",
    "noise": "gaussian",
    "noise_var": "1.0",
    "steps": "1000",
    "runs": "1",
    "seed": "0",
    "out": "out",
    "workers": "1",
    "beta": "0.05",
    "eta_grid": "0.1,0.05,0.02",
    "p": "1.0",
    "alpha": "1.5",
    "t0": "1.0",
    "t": "4.0",
    "dt": "0.001",
    "lambda_grid": "0.25,0.5,1.0,1.33",
    "omega_grid": "0.5,1.0,2.0,3.0",
    "mgf_samples": "100000",
    "tail_samples": "100000",
    "k_trunc": "1000000",
    "tol": "1e-10",
    "width_tol": "1e-4",
    "sgd_scale": "1.0",
    "c": "0.25",
}


class ConfigError(Exception):
    pass


def load_config(subcommand: str, path: str | None, overrides: dict) -> dict:
    """Merge defaults <- [common] section <- subcommand section <- CLI flags,
    with type validation. Returns a plain dict of resolved values."""
    raw = dict(_DEFAULTS)
    if path is not None:
        cp = configparser.ConfigParser()
        read = cp.read(path)
        if not read:
            raise ConfigError(f"config file not found or unreadable: {path}")
        for section in ("common", subcommand):
            if cp.has_section(section):
                for key, val in cp.items(section):
                    if key not in _DEFAULTS:
                        raise ConfigError(f"unknown config key '{key}' in [{section}]")
                    raw[key] = val
    for key, val in overrides.items():
        if val is not None:
            raw[key] = str(val)

    cfg: dict = {"subcommand": subcommand}
    try:
        cfg["problem"] = raw["problem"]
        cfg["dim"] = int(raw["dim"])
        cfg["problem_seed"] = int(raw["problem_seed"])
        cfg["n_samples"] = int(raw["n_samples"])
        cfg["algorithm"] = raw["algorithm"]
        cfg["schedule"] = raw["schedule"]
        cfg["scale"] = float(raw["scale"])
        cfg["epsilon"] = float(raw["epsilon"])
        cfg["noise"] = raw["noise"]
        cfg["noise_var"] = float(raw["noise_var"])
        cfg["steps"] = int(raw["steps"])
        cfg["runs"] = int(raw["runs"])
        cfg["seed"] = int(raw["seed"])
        cfg["out"] = raw["out"]
        cfg["workers"] = int(raw["workers"])  # validated; all runs share one batch
        cfg["beta"] = float(raw["beta"])
        cfg["eta_grid"] = [float(v) for v in str(raw["eta_grid"]).split(",") if v]
        cfg["p"] = float(raw["p"])
        cfg["alpha"] = float(raw["alpha"])
        cfg["t0"] = float(raw["t0"])
        cfg["t"] = float(raw["t"])
        cfg["dt"] = float(raw["dt"])
        cfg["lambda_grid"] = [float(v) for v in str(raw["lambda_grid"]).split(",") if v]
        cfg["omega_grid"] = [float(v) for v in str(raw["omega_grid"]).split(",") if v]
        cfg["mgf_samples"] = int(raw["mgf_samples"])
        cfg["tail_samples"] = int(raw["tail_samples"])
        cfg["k_trunc"] = int(raw["k_trunc"])
        cfg["tol"] = float(raw["tol"])
        cfg["width_tol"] = float(raw["width_tol"])
        cfg["sgd_scale"] = float(raw["sgd_scale"])
        cfg["c"] = float(raw["c"])
    except ValueError as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc

    if cfg["problem"] not in ("quadratic", "logreg") and not cfg["problem"].startswith("csv:"):
        raise ConfigError(f"problem must be quadratic, logreg, or csv:PATH (got '{cfg['problem']}')")
    if cfg["algorithm"] not in ("sgdm", "sgd", "acsa"):
        raise ConfigError(f"algorithm must be sgdm, sgd, or acsa (got '{cfg['algorithm']}')")
    if cfg["noise"] not in ("gaussian", "bounded", "none"):
        raise ConfigError(f"noise must be gaussian, bounded, or none (got '{cfg['noise']}')")
    if cfg["steps"] < 1 or cfg["runs"] < 1 or cfg["workers"] < 1:
        raise ConfigError("steps, runs, and workers must be positive")
    if not 0.0 < cfg["beta"] < 1.0:
        raise ConfigError("beta must lie in (0, 1)")
    return cfg


def default_quadratic(dim: int, seed: int) -> Objective:
    """Seeded SPD quadratic with eigenvalues spread linearly over [1, 10]."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = np.linspace(1.0, 10.0, dim)
    return quadratic_new(q @ np.diag(eigs) @ q.T)


def build_problem(cfg: dict) -> Objective:
    if cfg["problem"] == "quadratic":
        return default_quadratic(cfg["dim"], cfg["problem_seed"])
    if cfg["problem"] == "logreg":
        X, y = synthetic_blobs(cfg["n_samples"], cfg["dim"], cfg["problem_seed"])
        return logreg_new(X, y)
    X, y = load_csv_dataset(cfg["problem"][4:])
    return logreg_new(X, y)


def build_noise(cfg: dict, dim: int) -> NoiseModel:
    if cfg["noise"] == "gaussian":
        return NoiseModel.gaussian(dim, cfg["noise_var"])
    if cfg["noise"] == "bounded":
        return NoiseModel.bounded_uniform(dim, np.sqrt(cfg["noise_var"]))
    return NoiseModel.noiseless(dim)


def build_schedule(cfg: dict, L: float) -> StepSchedule:
    return StepSchedule(kind=cfg["schedule"], L=L, scale=cfg["scale"],
                        epsilon=cfg["epsilon"])


def _finite(x) -> float | None:
    """``float(x)``, or None where x is None or not finite (an overflowed run)."""
    return None if x is None or not math.isfinite(x) else float(x)


def _check(name: str, passed: bool, value, threshold) -> dict:
    """One verdict entry. A value or threshold that is not finite is written
    as null and fails the check, so the verdict stays strict JSON."""
    finite = all(x is None or math.isfinite(x) for x in (value, threshold))
    return {
        "name": name,
        "passed": bool(passed) and finite,
        "value": _finite(value),
        "threshold": _finite(threshold),
    }


def write_verdict(out: Path, subcommand: str, checks: list[dict]) -> bool:
    passed = all(c["passed"] for c in checks)
    verdict = {"subcommand": subcommand, "passed": passed, "checks": checks}
    # strict JSON: a NaN or infinite value raises instead of being written
    text = json.dumps(verdict, indent=2, sort_keys=True, allow_nan=False)
    (out / "verdict.json").write_text(text + "\n")
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"[{status}] {c['name']}: value={c['value']} threshold={c['threshold']}")
    return passed


def _simulate(cfg: dict, obj: Objective, record):
    """All ``runs`` trajectories of the configured algorithm in one batch;
    run i draws its noise from ``rng_for(seed, i)``."""
    return run_ensemble(obj, build_noise(cfg, obj.dim), build_schedule(cfg, obj.lipschitz),
                        cfg["steps"], cfg["runs"], cfg["seed"], algorithm=cfg["algorithm"],
                        record=record, sgd_scale=cfg["sgd_scale"])


def cmd_run(cfg: dict, out: Path) -> list[dict]:
    obj = build_problem(cfg)
    single = cfg["runs"] == 1
    if cfg["algorithm"] == "acsa":
        noise = build_noise(cfg, obj.dim)
        sched = build_schedule(cfg, obj.lipschitz)
        recs = [run_trajectory(obj, noise, "acsa", sched, cfg["steps"],
                               seed_split(cfg["seed"], i)) for i in range(cfg["runs"])]
        f_gap = np.column_stack([r.f_gap for r in recs])
        rec0 = recs[0]
    else:
        trace = _simulate(cfg, obj, PATH_FIELDS if single else ("f_gap",))
        f_gap = trace.f_gap
        rec0 = TrajectoryRecord.from_trace(obj, trace) if single else None
    if single:
        rec0.to_csv(out / "trajectory.csv")
    else:
        stats.save_ensemble_csv(out / "ensemble.csv", stats.ensemble_summary(f_gap))
    finite = bool(np.all(np.isfinite(f_gap)))
    return [_check("all_finite", finite, None, None),
            _check("final_f_gap_run0", finite, f_gap[-1, 0], None)]


def cmd_verify_descent(cfg: dict, out: Path) -> list[dict]:
    if cfg["algorithm"] != "sgdm":
        raise ConfigError("verify-descent applies to the sgdm algorithm only")
    obj = build_problem(cfg)
    trace = _simulate(cfg, obj, PATH_FIELDS)
    TrajectoryRecord.from_trace(obj, trace).to_csv(out / "trajectory.csv")
    rep = check_descent(trace, obj.lipschitz, obj.xstar, obj.fstar, tol=cfg["tol"])
    check = _check("max_descent_residual", rep.max_residual <= cfg["tol"],
                   rep.max_residual, cfg["tol"])
    return [dict(check, run=rep.run, argmax_k=rep.argmax_k)]


def cmd_verify_expectation(cfg: dict, out: Path) -> list[dict]:
    if cfg["runs"] < 2:
        raise ConfigError("verify-expectation needs runs >= 2 to estimate a standard error")
    obj = build_problem(cfg)
    noise = build_noise(cfg, obj.dim)
    rep = stats.expectation_rate_check(obj, noise, cfg["steps"], cfg["runs"],
                                       cfg["seed"], c=cfg["c"])
    stats.save_ensemble_csv(out / "ensemble.csv", rep["summary"])
    excess = np.max((rep["mean"] - rep["bound"]) / np.maximum(rep["stderr"], 1e-300))
    check = _check("max_excess_stderr_units", rep["passed"], excess, 3.0)
    return [dict(check, first_failure_k=rep["first_failure_k"])]


def cmd_verify_anytime(cfg: dict, out: Path) -> list[dict]:
    obj = build_problem(cfg)
    noise = build_noise(cfg, obj.dim)
    if noise.sigma2 == 0.0:
        raise ConfigError("verify-anytime requires a stochastic noise model")
    sched = build_schedule(cfg, obj.lipschitz)
    rep = conc.anytime_coverage(obj, noise, sched, cfg["steps"], cfg["runs"],
                                cfg["beta"], cfg["seed"], k_trunc=cfg["k_trunc"])
    check = _check("fraction_violating", rep["passed"], rep["fraction_violating"],
                   rep["nominal_level"])
    return [dict(check, n_violating=rep["n_violating"], min_margin=_finite(rep["min_margin"]),
                 run=rep["first_violating_run"], k=rep["first_violating_k"])]


def cmd_ode_compare(cfg: dict, out: Path) -> list[dict]:
    obj = build_problem(cfg)
    params = cont.OdeParams(p=cfg["p"], alpha=cfg["alpha"], T0=cfg["t0"],
                            T=cfg["t"], dt=cfg["dt"])
    # the checks' trajectory and the L2 table's ODE starts share one RK4 pass
    sol, rows = cont.ode_compare(obj, params, cfg["eta_grid"], cfg["runs"], cfg["seed"])
    sol.to_csv(out / "ode.csv", obj)
    rep = cont.ode_rate_check(sol, obj, params)
    checks = [
        _check("energy_monotone", rep["energy_monotone"],
               rep["max_energy_increase"], 1e-8 * rep["energy_T0"]),
        dict(_check("rate_bound_holds", rep["rate_bound_holds"], None, None),
             first_violation_t=rep["first_violation_t"]),
    ]
    table = np.array([[r["eta"], r["mean_sq_dist"], r["stderr"], r["runs"]] for r in rows])
    write_csv(out / "l2_table.csv", table, "eta,mean_sq_dist,stderr,runs")
    failing = next(([a["eta"], b["eta"]] for a, b in zip(rows, rows[1:])
                    if not b["mean_sq_dist"] < a["mean_sq_dist"]
                    + 2.0 * np.hypot(a["stderr"], b["stderr"])), None)
    order, order_se = _observed_order(rows)
    check = _check("l2_distance_decreasing", failing is None,
                   rows[-1]["mean_sq_dist"], rows[0]["mean_sq_dist"])
    checks.append(dict(check, first_failing_pair=failing, observed_order=_finite(order),
                       observed_order_stderr=_finite(order_se)))
    return checks


def _observed_order(rows) -> tuple[float | None, float | None]:
    """Least-squares slope of log ``mean_sq_dist`` against log ``eta`` over
    the L2 table, and its standard error. Either is None where the fit is
    not defined: a distance that is not finite and positive, or fewer than
    two distinct etas; the error also needs a third row."""
    x = np.log([r["eta"] for r in rows])
    msd = np.array([r["mean_sq_dist"] for r in rows])
    xc = x - x.mean()
    sxx = float(xc @ xc)
    if not (np.all(np.isfinite(msd)) and np.all(msd > 0.0)) or sxx == 0.0:
        return None, None
    y = np.log(msd)
    yc = y - y.mean()
    slope = float(xc @ yc) / sxx
    if len(rows) < 3:
        return slope, None
    resid = yc - slope * xc
    return slope, math.sqrt(float(resid @ resid) / (len(rows) - 2) / sxx)


def cmd_concentration(cfg: dict, out: Path) -> list[dict]:
    checks = []
    for row in conc.mgf_lemma_check(cfg["lambda_grid"], cfg["mgf_samples"], cfg["seed"]):
        checks.append(_check(f"mgf_lambda_{row['lambda']:g}", row["passed"],
                             row["mean"], row["ceiling"] + 3.0 * row["stderr"]))
    for row in conc.tail_lemma_check(cfg["omega_grid"], 20, cfg["tail_samples"], cfg["seed"]):
        checks.append(_check(f"tail_omega_{row['omega']:g}", row["passed"],
                             row["fraction"], row["level"] + 3.0 * row["stderr"]))
    return checks


def cmd_smoothness(cfg: dict, out: Path) -> list[dict]:
    obj = build_problem(cfg)
    noise = build_noise(cfg, obj.dim)
    sched = build_schedule(cfg, obj.lipschitz)
    rep = stats.smoothness_comparison(obj, noise, cfg["steps"], cfg["runs"],
                                      cfg["seed"], schedule=sched,
                                      sgd_scale=cfg["sgd_scale"])
    if rep.get("skipped"):
        raise ConfigError(f"smoothness comparison skipped: {rep['reason']}")
    return [_check("sgdm_median_below_sgd", rep["passed"],
                   rep["median_var_sgdm"], rep["median_var_sgd"])]


def cmd_constants(cfg: dict, out: Path) -> list[dict]:
    obj = build_problem(cfg)
    noise = build_noise(cfg, obj.dim)
    sched = build_schedule(cfg, obj.lipschitz)
    sigma2 = noise.hp_sigma2
    const = conc.anytime_constants(
        sched, conc.initial_energy(obj, sched, np.ones(obj.dim)),
        obj.lipschitz, sigma2, cfg["k_trunc"])
    br = const.brackets
    return [
        _check("gamma1_width", br.gamma1_width <= cfg["width_tol"],
               br.gamma1_width, cfg["width_tol"]),
        _check("gamma2_width", br.gamma2_width <= cfg["width_tol"],
               br.gamma2_width, cfg["width_tol"]),
        _check("gamma1_upper", True, br.gamma1_upper, None),
        _check("gamma2_upper", True, br.gamma2_upper, None),
        _check("C1", True, const.C1, None),
        _check("C2", True, const.C2, None),
    ]


_HANDLERS = {
    "run": cmd_run,
    "verify-descent": cmd_verify_descent,
    "verify-expectation": cmd_verify_expectation,
    "verify-anytime": cmd_verify_anytime,
    "ode-compare": cmd_ode_compare,
    "concentration": cmd_concentration,
    "smoothness": cmd_smoothness,
    "constants": cmd_constants,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgdmlab",
        description="Numerical verification lab for a momentum-SGD method: "
                    "trajectory runs, Lyapunov descent checks, rate and "
                    "coverage experiments, and ODE/SDE comparisons.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--workers", type=int, default=None,
                        help="accepted for existing configs; has no effect")
        sp.add_argument("--beta", type=float, default=None)
        sp.add_argument("--steps", type=int, default=None)
        sp.add_argument("--runs", type=int, default=None)
        sp.add_argument("--eta-grid", dest="eta_grid", default=None)
        sp.add_argument("--p", type=float, default=None)
        sp.add_argument("--alpha", type=float, default=None)
        sp.add_argument("--t0", type=float, default=None)
        sp.add_argument("--t", type=float, default=None)
        sp.add_argument("--dt", type=float, default=None)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first invocation of the process and reused:
    building it costs about as much as the rest of a small invocation's
    fixed cost, and ``parse_args`` keeps no state between calls."""
    return build_parser()


# every file a subcommand may write into its output directory
_ARTIFACTS = ("config_resolved.json", "verdict.json", "trajectory.csv", "ensemble.csv",
             "ode.csv", "l2_table.csv")


def _clear_artifacts(out: Path) -> None:
    """Delete a previous invocation's artifacts, so that none is left stale
    when this one stops early. Unlinking before rewriting is also much
    cheaper than truncating a just-written file, which ext4 (the
    ``auto_da_alloc`` default) flushes to disk first."""
    for name in _ARTIFACTS:
        (out / name).unlink(missing_ok=True)


def _fail(kind: str, exc: Exception, code: int) -> int:
    """Report ``exc`` on one ``kind: ...`` line of stderr; return ``code``."""
    msg = " ".join(str(exc).split())
    print(f"{kind}: {msg}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors (including unknown subcommands)
        return int(exc.code) if exc.code else 0
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("subcommand", "config")}
    try:
        cfg = load_config(args.subcommand, args.config, overrides)
    except ConfigError as exc:
        return _fail("config error", exc, 2)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    _clear_artifacts(out)
    with open(out / "config_resolved.json", "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")
    try:
        checks = _HANDLERS[args.subcommand](cfg, out)
    except (ConfigError, ValueError, OptimumNotReached) as exc:
        # library validation of the resolved values is a config error too,
        # and so is a dataset whose optimum the refinement cannot reach
        return _fail("config error", exc, 2)
    except FloatingPointError as exc:
        return _fail("diverged", exc, 3)
    passed = write_verdict(out, args.subcommand, checks)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
