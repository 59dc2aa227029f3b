"""One workload in one fresh process: time set-up, run passes, gate outputs.

Started by ``run.py`` with BLAS pinned to one thread and the checkout's
``src`` on ``PYTHONPATH``; writes its findings as JSON to ``--result``.

    python3 perfbench/worker.py --workload descent --seed 0 --seconds 25 \
        --trace 0 --work DIR --result FILE [--setup-only] [--references FILE]

Set-up is the import of sgdmlab plus building the workload's problems.
Passes then repeat until ``--seconds`` have gone by. With ``--trace 1``
untraced and traced passes alternate, so the tracing overhead is measured
in the same process, and the per-layer figures come from the traced pass of
median duration.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def strict_json(raw: bytes):
    """Parse ``raw`` as strict JSON: NaN and Infinity are errors."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(raw, parse_constant=reject)


def matches(value, ref, threshold, rel_tol: float) -> bool:
    """A value matches its reference when they differ by at most ``rel_tol``
    of the larger of |reference| and |threshold|, so rounding-level changes
    pass and a changed result does not."""
    if value is None or ref is None:
        return value is None and ref is None
    scale = max(abs(ref), abs(threshold) if threshold is not None else 0.0)
    return abs(value - ref) <= rel_tol * scale


class Gate:
    """Judges unit outcomes; a unit that fails any test is counted once."""

    def __init__(self, references: dict | None, seed: int, seeded: dict[str, bool]):
        self.refs = references or {}
        self.rel_tol = float(self.refs.get("rel_tol", 0.0))
        self.check_all = bool(self.refs) and seed == self.refs.get("seed")
        self.seeded = seeded
        self.digests: dict[str, str] = {}
        self.checks: dict[str, list] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def judge(self, name: str, outcome) -> None:
        self.attempted += 1
        problem = self._problem(name, outcome)
        if problem:
            self.failures.append(f"{name}: {problem}")

    def _problem(self, name, outcome) -> str | None:
        if isinstance(outcome, BaseException):
            return f"raised {type(outcome).__name__}: {outcome}"
        rc, raw = outcome
        if rc != 0:
            return f"exit code {rc}"
        try:
            verdict = strict_json(raw)
        except ValueError as exc:
            return f"verdict is not strict JSON ({exc})"
        if verdict.get("passed") is not True:
            return "verdict has passed != true"
        checks = [[c["name"], c["value"], c["threshold"]] for c in verdict["checks"]]
        digest = hashlib.sha256(raw).hexdigest()
        first = self.digests.setdefault(name, digest)
        self.checks.setdefault(name, checks)
        if digest != first:
            return "verdict bytes differ from this run's first pass"
        ref = self.refs.get("units", {}).get(name)
        if ref is not None and (self.check_all or not self.seeded[name]):
            if [c[0] for c in checks] != [c[0] for c in ref]:
                return "check names differ from the reference"
            for (cname, value, thr), (_, rvalue, _) in zip(checks, ref):
                if not matches(value, rvalue, thr, self.rel_tol):
                    return f"{cname} = {value!r}, reference {rvalue!r}"
        return None


def run_pass(units, ctx, gate) -> float:
    """Run every unit once; returns the pass wall time (set-up excluded)."""
    outcomes = []
    t0 = time.perf_counter()
    for unit in units:
        try:
            outcomes.append(unit.run(ctx))
        except Exception as exc:  # a unit that raises is a failed unit
            outcomes.append(exc)
    wall = time.perf_counter() - t0
    for unit, outcome in zip(units, outcomes):
        gate.judge(unit.name, outcome)
    return wall


def layer_metrics(stats: dict, overhead_pct: float) -> dict:
    """The per-layer metrics of one traced pass, from its layer statistics."""
    from tracer import LayerStats

    empty = LayerStats()

    def get(name):
        return stats.get(name, empty)

    def per(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    m = {}
    for layer in ("problems.grad", "problems.eval", "lyapunov.check_descent",
                  "concentration.gamma_constants", "seeding.rng_for"):
        m[f"{layer}.calls"] = get(layer).calls
        m[f"{layer}.busy_s"] = get(layer).busy_ns * 1e-9
    m["problems.noise.rows"] = get("problems.noise").count
    m["problems.noise.busy_s"] = get("problems.noise").busy_ns * 1e-9
    m["problems.build.calls"] = get("problems.build").calls
    m["problems.build.busy_s"] = get("problems.build").busy_ns * 1e-9
    for layer in ("optimizers.run_trajectory", "optimizers.run_ensemble",
                  "continuous.ode_integrate"):
        m[f"{layer}.calls"] = get(layer).calls
        m[f"{layer}.busy_s"] = get(layer).busy_ns * 1e-9
        m[f"{layer}.self_s"] = get(layer).self_ns * 1e-9
    run_steps = get("optimizers.run_trajectory").count + get("optimizers.run_ensemble").count
    step_self_ns = get("optimizers.run_trajectory").self_ns + get("optimizers.run_ensemble").self_ns
    m["optimizers.run_steps"] = run_steps
    m["optimizers.self_ns_per_run_step"] = per(step_self_ns, run_steps)
    rk4 = get("continuous.ode_integrate")
    m["continuous.rk4_steps"] = rk4.count
    m["continuous.self_us_per_rk4_step"] = per(rk4.self_ns, rk4.count, 1e-3)
    m["continuous.sgdm_warm_start.busy_s"] = get("continuous.sgdm_warm_start").busy_ns * 1e-9
    m["continuous.l2_limit_estimate.self_s"] = get("continuous.l2_limit_estimate").self_ns * 1e-9
    m["continuous.sde_sample_paths.busy_s"] = get("continuous.sde_sample_paths").busy_ns * 1e-9
    for layer in ("concentration.anytime_coverage", "concentration.supermartingale_trace",
                  "stats.expectation_rate_check", "stats.smoothness_comparison"):
        m[f"{layer}.self_s"] = get(layer).self_ns * 1e-9
    main = get("cli.main")
    m["cli.main.calls"] = main.calls
    m["cli.main.self_s"] = main.self_ns * 1e-9
    m["cli.build_problem.per_invocation"] = per(get("problems.build").calls, main.calls)
    m["cli.write.busy_s"] = get("cli.write").busy_ns * 1e-9
    m["cli.write.bytes"] = get("cli.write").count
    m["trace_overhead_pct"] = overhead_pct
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--references", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    src = Path.cwd() / "src"

    t0 = time.perf_counter()
    import sgdmlab
    import workloads

    problems = workloads.build(args.workload)
    setup_s = time.perf_counter() - t0

    if Path(sgdmlab.__file__).resolve().parent != (src / "sgdmlab").resolve():
        print(f"sgdmlab was imported from {sgdmlab.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(run_workload(args, problems))
    Path(args.result).write_text(json.dumps(result, allow_nan=False))
    return 0


def run_workload(args, problems) -> dict:
    import numpy as np
    import workloads
    from tracer import Instrumentation, Tracer

    work = Path(args.work)
    units = workloads.units(args.workload, args.seed, work)
    refs = json.loads(Path(args.references).read_text()) if args.references else None
    gate = Gate(refs, args.seed, {u.name: u.seeded for u in units})
    ctx = workloads.Context(work=work, problems=problems)

    untraced, traced = [], []  # pass walls; traced holds (wall, tracer)
    deadline = time.perf_counter() + args.seconds
    while True:
        if args.trace and len(untraced) > len(traced):
            tracer = Tracer()
            with Instrumentation(tracer) as inst:
                traced_ctx = dataclasses.replace(
                    ctx, main=inst.main, objective=tracer.instrument_objective)
                wall = run_pass(units, traced_ctx, gate)
            traced.append((wall, tracer))
        else:
            untraced.append(run_pass(units, ctx, gate))
        if time.perf_counter() >= deadline and len(traced) >= args.trace:
            break

    out = {
        "passes": len(untraced) + len(traced),
        "untraced_walls": untraced,
        "steps_per_pass": sum(u.steps for u in units),
        "attempted": gate.attempted,
        "failures": gate.failures,
        "digests": gate.digests,
        "checks": gate.checks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "blas": np.__config__.CONFIG["Build Dependencies"]["blas"],
    }
    if traced:
        traced.sort(key=lambda wt: wt[0])
        wall, tracer = traced[(len(traced) - 1) // 2]
        base = statistics.median(untraced)
        overhead = 100.0 * (statistics.median(w for w, _ in traced) - base) / base
        out["traced_walls"] = [w for w, _ in traced]
        out["traced_wall_s"] = wall
        out["exclusive_s"] = tracer.exclusive_s()
        out["layers"] = layer_metrics(tracer.stats, overhead)
        out["spans"] = tracer.span_records()
    return out


if __name__ == "__main__":
    sys.exit(main())
