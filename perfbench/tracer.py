"""Per-layer tracing from outside the program.

The tracer wraps the public functions of each sgdmlab module (and the
Objective/NoiseModel instances handed to them) for the duration of one
traced pass, then restores the originals. Every wrapped call is a span:
it adds its duration to the layer's busy time and, if it ran inside
another span, to that parent's child time, so a layer's self time is its
busy time minus what its child spans covered. Hot-loop calls (oracles,
noise draws, generator construction) are aggregated into counts and busy
time only; the coarser spans are also kept as (name, start, end, parent)
records so one pass can be written out for inspection.
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path
from time import perf_counter_ns

# Hot-loop layers: aggregated, not recorded span by span.
LEAVES = ("problems.grad", "problems.eval", "problems.noise", "seeding.rng_for")


class LayerStats:
    __slots__ = ("calls", "busy_ns", "self_ns", "count")

    def __init__(self):
        self.calls = 0
        self.busy_ns = 0
        self.self_ns = 0
        self.count = 0


class Tracer:
    """Span bookkeeping for one traced pass."""

    def __init__(self):
        self.stats: dict[str, LayerStats] = {}
        self.spans: list[tuple[str, int, int, int]] = []
        self._stack: list[list[int]] = []  # [child_ns, span index]
        self._active: dict[str, int] = {}

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` timed as a span of layer ``name``.

        ``count(args, kwargs, result)`` adds work units (steps, rows, bytes)
        to the layer. A call re-entering the same layer (a writer calling
        ``np.savetxt``) is passed through so it is not counted twice.
        """
        stats = self.stats.setdefault(name, LayerStats())
        stack, active, spans = self._stack, self._active, self.spans
        record = name not in LEAVES

        def traced(*args, **kwargs):
            if active.get(name):
                return fn(*args, **kwargs)
            active[name] = 1
            frame = [0, len(spans)]
            parent = stack[-1][1] if stack else -1
            if record:
                spans.append((name, 0, 0, parent))
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                active[name] = 0
                dt = t1 - t0
                stats.calls += 1
                stats.busy_ns += dt
                stats.self_ns += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if record:
                    spans[frame[1]] = (name, t0, t1, parent)
            if count is not None:
                stats.count += count(args, kwargs, result)
            return result

        return traced

    def instrument_objective(self, obj):
        """Copy of ``obj`` whose ``eval``/``grad`` oracles are traced."""
        return dataclasses.replace(
            obj,
            eval=self.wrap("problems.eval", obj.eval),
            grad=self.wrap("problems.grad", obj.grad),
        )

    def exclusive_s(self) -> float:
        """Sum of self times over all layers: the time spent inside spans."""
        return sum(s.self_ns for s in self.stats.values()) * 1e-9

    def span_records(self) -> list[dict]:
        t_ref = min((s[1] for s in self.spans), default=0)
        return [{"name": n, "start_ns": a - t_ref, "end_ns": b - t_ref, "parent": p}
                for n, a, b, p in self.spans]


def _rows(args, kwargs, result):
    n = args[2] if len(args) > 2 else kwargs.get("n")
    return 1 if n is None else int(n)


def _trajectory_steps(args, kwargs, result):
    return int(args[4] if len(args) > 4 else kwargs["K"])


def _ensemble_steps(args, kwargs, result):
    return int(result.K) * int(result.M)


def _rk4_steps(args, kwargs, result):
    return len(result.t) - 1


def _file_bytes(path) -> int:
    return os.path.getsize(path)


def _verdict_bytes(args, kwargs, result):
    return _file_bytes(Path(args[0]) / "verdict.json")


def _method_path_bytes(args, kwargs, result):
    return _file_bytes(args[1])


def _path_bytes(args, kwargs, result):
    return _file_bytes(args[0])


class Instrumentation:
    """Installs a tracer's wrappers on the sgdmlab modules and removes them.

    Only module and class attributes are replaced, so the program itself is
    unchanged; call :meth:`remove` (or use the instance as a context
    manager) to restore every original.
    """

    def __init__(self, tracer: Tracer):
        import numpy as np
        from sgdmlab import cli, concentration, continuous, optimizers, problems, stats

        t = tracer
        self._saved: list[tuple[object, str, object]] = []
        self._plan = [
            # problems: built objectives are instrumented on the way out
            (cli, "build_problem", t.wrap(
                "problems.build",
                lambda cfg, _f=cli.build_problem: t.instrument_objective(_f(cfg)))),
            (problems.NoiseModel, "sample",
             t.wrap("problems.noise", problems.NoiseModel.sample, _rows)),
            # optimizers, through every module that calls them
            (cli, "run_trajectory",
             t.wrap("optimizers.run_trajectory", optimizers.run_trajectory, _trajectory_steps)),
        ]
        ens = t.wrap("optimizers.run_ensemble", optimizers.run_ensemble, _ensemble_steps)
        self._plan += [(m, "run_ensemble", ens) for m in (stats, concentration, continuous)]
        rng = t.wrap("seeding.rng_for", optimizers.rng_for)
        self._plan += [(m, "rng_for", rng) for m in (optimizers, concentration, continuous)]
        self._plan += [
            (cli, "check_descent", t.wrap("lyapunov.check_descent", cli.check_descent)),
            (continuous, "ode_integrate",
             t.wrap("continuous.ode_integrate", continuous.ode_integrate, _rk4_steps)),
            (continuous, "sgdm_warm_start",
             t.wrap("continuous.sgdm_warm_start", continuous.sgdm_warm_start)),
            (continuous, "l2_limit_estimate",
             t.wrap("continuous.l2_limit_estimate", continuous.l2_limit_estimate)),
            (continuous, "sde_sample_paths",
             t.wrap("continuous.sde_sample_paths", continuous.sde_sample_paths)),
            (concentration, "gamma_constants",
             t.wrap("concentration.gamma_constants", concentration.gamma_constants)),
            (concentration, "anytime_coverage",
             t.wrap("concentration.anytime_coverage", concentration.anytime_coverage)),
            (concentration, "supermartingale_trace",
             t.wrap("concentration.supermartingale_trace", concentration.supermartingale_trace)),
            (stats, "expectation_rate_check",
             t.wrap("stats.expectation_rate_check", stats.expectation_rate_check)),
            (stats, "smoothness_comparison",
             t.wrap("stats.smoothness_comparison", stats.smoothness_comparison)),
            # artifact writers
            (cli, "write_verdict", t.wrap("cli.write", cli.write_verdict, _verdict_bytes)),
            (stats, "save_ensemble_csv",
             t.wrap("cli.write", stats.save_ensemble_csv, _path_bytes)),
            (optimizers.TrajectoryRecord, "to_csv",
             t.wrap("cli.write", optimizers.TrajectoryRecord.to_csv, _method_path_bytes)),
            (continuous.OdeSolution, "to_csv",
             t.wrap("cli.write", continuous.OdeSolution.to_csv, _method_path_bytes)),
            (np, "savetxt", t.wrap("cli.write", np.savetxt, _path_bytes)),
        ]
        self.main = t.wrap("cli.main", cli.main)

    def install(self) -> None:
        for owner, attr, wrapper in self._plan:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False
