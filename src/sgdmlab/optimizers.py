"""Discrete algorithms: momentum SGD, plain SGD, and the three-sequence
accelerated stochastic-approximation method, plus step-size schedules and
trajectory runners.

The momentum recursion is

    x_{k+1} = x_k + k/(k+2) (x_k - x_{k-1}) - 2 sqrt(eta_k) / ((k+2) sqrt(k)) g_k

with initialization x_0 = x_1. :func:`run_ensemble` is the only code that
steps it (and plain SGD); :func:`run_trajectory` is one column of it.
"""

from __future__ import annotations

import collections
import threading
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from ._csv import write_csv
from .problems import NoiseModel, Objective
from .seeding import rng_for, rngs_for  # noqa: F401 (perfbench's tracer patches rng_for here)

__all__ = [
    "StepSchedule",
    "AcsaState",
    "TrajectoryRecord",
    "schedule_eval",
    "acsa_step",
    "run_trajectory",
    "EnsembleTrace",
    "run_ensemble",
    "sgdm_noise_multiplier",
]

_SCHEDULE_KINDS = (
    "anytime_log2",
    "expectation_log2",
    "epsilon_log",
    "sqrt_k",
    "constant",
    "custom",
)
_MONOTONE_KINDS = ("anytime_log2", "expectation_log2", "epsilon_log", "sqrt_k", "constant")


@dataclass(frozen=True)
class StepSchedule:
    """Rule k -> eta_k. ``scale`` multiplies the base formula (default 1)."""

    kind: str
    L: float = 1.0
    scale: float = 1.0
    epsilon: float = 1.0  # only used by epsilon_log, must lie in (0, 1]
    fn: Callable[[np.ndarray], np.ndarray] | None = None  # only for kind="custom"

    def __post_init__(self):
        if self.kind not in _SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.scale <= 0:
            raise ValueError("schedule scale must be positive")
        if self.kind == "epsilon_log" and not (0.0 < self.epsilon <= 1.0):
            raise ValueError("epsilon must lie in (0, 1]")
        if self.kind == "custom" and self.fn is None:
            raise ValueError("custom schedule requires fn")

    @property
    def monotone(self) -> bool:
        """Non-increasing in k by construction (required by the descent lemma)."""
        return self.kind in _MONOTONE_KINDS

    def __call__(self, k) -> np.ndarray:
        return schedule_eval(self, k)


def schedule_eval(s: StepSchedule, k) -> np.ndarray:
    """Evaluate eta_k (natural log throughout); accepts scalars or arrays, k >= 0."""
    k = np.asarray(k, dtype=float)
    if np.any(k < 0):
        raise ValueError("iteration index must be >= 0")
    c, L = s.scale, s.L
    if s.kind == "anytime_log2":
        out = c / (16.0 * L * L * np.log(k + 2.0) ** 2)
    elif s.kind == "expectation_log2":
        out = c / (L * L * np.log(k + 2.0) ** 2)
    elif s.kind == "epsilon_log":
        out = c / (16.0 * L * L * np.log(k + 2.0) ** (1.0 + s.epsilon))
    elif s.kind == "sqrt_k":
        out = c / np.sqrt(np.maximum(k, 1.0))
    elif s.kind == "constant":
        out = c * np.ones_like(k)
    else:
        out = np.asarray(s.fn(k), dtype=float)
    return out if out.ndim else float(out)


@dataclass
class AcsaState:
    """Three-sequence accelerated stochastic approximation state."""

    x: np.ndarray
    z: np.ndarray
    gamma_scale: float
    L: float
    k: int = 1
    simplified_gamma: bool = False  # drop the 2L/k term (large-k form)

    @staticmethod
    def initial(
        x0: np.ndarray, gamma_scale: float, L: float, simplified_gamma: bool = False
    ) -> "AcsaState":
        x0 = np.asarray(x0, dtype=float)
        return AcsaState(
            x=x0.copy(), z=x0.copy(), gamma_scale=gamma_scale, L=L,
            k=1, simplified_gamma=simplified_gamma,
        )


def acsa_step(state: AcsaState, grad_oracle: Callable[[np.ndarray], np.ndarray]) -> AcsaState:
    """One step of the (y, z, x) scheme with alpha_k = 2/(k+1) and
    1/gamma_k = 2L/k + gamma sqrt(k) (full form; simplified_gamma uses
    gamma_k = 1/(gamma sqrt(k)) instead)."""
    k = state.k
    if k < 1:
        raise ValueError("iteration index must be >= 1")
    if state.gamma_scale <= 0:
        raise ValueError("gamma_scale must be positive")
    alpha = 2.0 / (k + 1.0)
    if state.simplified_gamma:
        gamma_k = 1.0 / (state.gamma_scale * np.sqrt(k))
    else:
        gamma_k = 1.0 / (2.0 * state.L / k + state.gamma_scale * np.sqrt(k))
    y = (1.0 - alpha) * state.x + alpha * state.z
    z_new = state.z - gamma_k * np.asarray(grad_oracle(y), dtype=float)
    x_new = (1.0 - alpha) * state.x + alpha * z_new
    return AcsaState(
        x=x_new, z=z_new, gamma_scale=state.gamma_scale, L=state.L,
        k=k + 1, simplified_gamma=state.simplified_gamma,
    )


# The trace fields a TrajectoryRecord is derived from (see from_trace).
PATH_FIELDS = ("x", "g", "grad", "f_gap")


@dataclass
class TrajectoryRecord:
    """Per-iteration log of one run.

    Index conventions: ``x`` holds x_0 .. x_{K+1}; arrays of length K+1
    (``f_gap``, ``eta``, ``energy``) are indexed by k = 0..K; arrays of
    length K (``g``, ``grad``, ``theta``, ``descent_lhs``,
    ``descent_rhs``) correspond to steps k = 1..K.
    """

    algorithm: str
    K: int
    x: np.ndarray
    g: np.ndarray
    grad: np.ndarray
    eta: np.ndarray
    f_gap: np.ndarray
    energy: np.ndarray
    descent_lhs: np.ndarray
    descent_rhs: np.ndarray
    theta: np.ndarray
    fstar: float = 0.0
    schedule: StepSchedule | None = None

    @classmethod
    def from_path(
        cls,
        obj: Objective,
        algorithm: str,
        schedule: StepSchedule,
        x: np.ndarray,
        g: np.ndarray,
        grad: np.ndarray,
        f_gap: np.ndarray,
        eta: np.ndarray,
    ) -> "TrajectoryRecord":
        """Derive every logged quantity of one run from its iterates
        x_0..x_{K+1}, realized and exact gradients (steps 1..K), and the
        gaps and stepsizes at k = 0..K."""
        from . import lyapunov  # late import: lyapunov consumes records

        K = g.shape[0]
        energy = lyapunov.energy_along(x, eta, f_gap, obj.xstar)
        descent_rhs = lyapunov.descent_rhs_along(
            x, g, grad, f_gap, eta, obj.lipschitz, obj.xstar
        )
        return cls(
            algorithm=algorithm, K=K, x=x, g=g, grad=grad, eta=eta,
            f_gap=f_gap, energy=energy, descent_lhs=energy[1:] - energy[:-1],
            descent_rhs=descent_rhs, theta=grad - g, fstar=obj.fstar,
            schedule=schedule,
        )

    @classmethod
    def from_trace(cls, obj: Objective, trace: "EnsembleTrace") -> "TrajectoryRecord":
        """The record of column 0 of a trace of the fields in :data:`PATH_FIELDS`."""
        col = (trace.x[:, 0], trace.g[:, 0], trace.grad[:, 0], trace.f_gap[:, 0])
        return cls.from_path(obj, trace.algorithm, trace.schedule, *col, trace.eta)

    def to_csv(self, path) -> None:
        """Write the per-step CSV (one row per step k = 1..K)."""
        ks = np.arange(1, self.K + 1)
        cols = np.column_stack(
            [
                ks,
                self.f_gap[1:],
                self.eta[1:],
                self.energy[1:],
                self.descent_lhs,
                self.descent_rhs,
                np.linalg.norm(self.grad, axis=1),
                np.linalg.norm(self.theta, axis=1),
            ]
        )
        write_csv(path, cols, "k,f_gap,eta,lyapunov,descent_lhs,descent_rhs,grad_norm,noise_norm")


def run_trajectory(
    obj: Objective,
    noise: NoiseModel,
    algorithm: str,
    schedule: StepSchedule,
    K: int,
    seed,
    sgd_scale: float = 1.0,
) -> TrajectoryRecord:
    """Run K steps of one algorithm from x_0 = x_1 = (1, ..., 1) and log
    every per-step quantity.

    Fully deterministic given the seed (an int, SeedSequence, or Generator).
    ``"sgdm"`` and ``"sgd"`` run as the one column of a :func:`run_ensemble`
    call on that seed's generator, and diverge with its ``FloatingPointError``.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if algorithm not in ("sgdm", "sgd", "acsa"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if algorithm == "acsa":
        return _run_acsa(obj, noise, schedule, K, rng)
    trace = run_ensemble(obj, noise, schedule, K, M=1, master_seed=None, algorithm=algorithm,
                         record=PATH_FIELDS, sgd_scale=sgd_scale, rngs=[rng])
    return TrajectoryRecord.from_trace(obj, trace)


def _run_acsa(obj: Objective, noise: NoiseModel, schedule: StepSchedule, K: int,
              rng: np.random.Generator) -> TrajectoryRecord:
    """K steps of ACSA with gamma = 1, in a loop of its own because its
    oracle is queried at y_k, not at the iterate x_k; ``g`` logs the
    realized query."""
    x = np.empty((K + 2, obj.dim))
    g_arr, grad_arr = np.empty((2, K, obj.dim))
    x[0] = x[1] = np.ones(obj.dim)
    state = AcsaState.initial(x[1], 1.0, obj.lipschitz)
    for k in range(1, K + 1):
        if not np.all(np.isfinite(x[k])):
            raise FloatingPointError(f"iterate became non-finite at step k={k}")
        grad_arr[k - 1] = obj.grad(x[k])

        def oracle(y, _k=k):
            gq = obj.grad(y) + noise.sample(rng)
            g_arr[_k - 1] = gq
            return gq

        state = acsa_step(state, oracle)
        x[k + 1] = state.x
    if not np.all(np.isfinite(x)):
        raise FloatingPointError("iterate became non-finite at the final step")

    eta = np.asarray(schedule_eval(schedule, np.arange(0, K + 1)), dtype=float)
    return TrajectoryRecord.from_path(obj, "acsa", schedule, x, g_arr, grad_arr,
                                      obj.f_gap(x[: K + 1]), eta)


@dataclass
class EnsembleTrace:
    """Vectorized per-step records of M runs (columns are runs).

    Only the requested fields are populated; all arrays use the same k
    indexing as :class:`TrajectoryRecord`, with the run axis after the step
    axis. ``algorithm``, ``schedule`` and ``fstar`` let
    :func:`~sgdmlab.lyapunov.check_descent` read a trace like a record.
    """

    K: int
    M: int
    eta: np.ndarray  # (K+1,)
    algorithm: str = "sgdm"
    schedule: StepSchedule | None = None
    fstar: float = 0.0
    x: np.ndarray | None = None  # (K+2, M, d): x_0 .. x_{K+1}
    g: np.ndarray | None = None  # (K, M, d): realized gradients, steps 1..K
    grad: np.ndarray | None = None  # (K, M, d): exact gradients, steps 1..K
    f_gap: np.ndarray | None = None  # (K+1, M)
    energy: np.ndarray | None = None  # (K+1, M)
    theta_sq: np.ndarray | None = None  # (K, M)
    theta_tau: np.ndarray | None = None  # (K, M)
    x_prev_final: np.ndarray | None = None  # (M, d): x_K
    x_cur_final: np.ndarray | None = None  # (M, d): x_{K+1}


def run_ensemble(
    obj: Objective,
    noise: NoiseModel,
    schedule: StepSchedule,
    K: int,
    M: int,
    master_seed: int,
    algorithm: str = "sgdm",
    x0: np.ndarray | None = None,
    record: Iterable[str] = ("f_gap",),
    sgd_scale: float = 1.0,
    k_start: int = 1,
    x_prev0: np.ndarray | None = None,
    chunk: int = 512,
    rngs: list[np.random.Generator] | None = None,
) -> EnsembleTrace:
    """Run M independent trajectories simultaneously, vectorized across runs.

    Each run i draws its noise from the generator seeded by
    (master_seed, i) (all built in one pass by :func:`rngs_for`, and none
    for a noiseless ensemble), in the same stream order as a single-run loop, so the realized randomness
    matches run-at-a-time execution regardless of batching.
    ``k_start``/``x_prev0`` allow warm-started segments (steps
    k = k_start .. k_start+K-1), used by the continuous-limit comparisons.
    ``rngs``, a list of M generators, replaces ``rngs_for(master_seed, M)``
    and is drawn from in place: a segment that starts at the step after the
    previous segment's last one (``k_start``), from its ``x_prev_final`` and
    ``x_cur_final`` (``x_prev0``, ``x0``), with the same ``rngs``, continues
    it bit for bit as one longer call would.

    ``record`` selects the fields to keep: ``"f_gap"``, ``"energy"``,
    ``"theta"``, and the full path ``"x"``, ``"g"``, ``"grad"`` (runs that
    start at k = 1 only). Each step calls the gradient alone, or the fused
    :meth:`Objective.gap_and_grad` when the objective has a
    ``value_and_grad`` and ``f_gap`` is recorded. Steps run in
    short segments whose iterates are kept (in ``x`` when the path is
    recorded); after each segment ``f_gap`` and ``energy`` are evaluated on
    all of its iterates at once.

    Steps run in chunks of ``chunk``. While one chunk is stepped, a helper
    thread draws the next chunk's noise (NumPy releases the interpreter lock
    inside the draws), and the caller draws the runs it has not reached yet
    once the chunk is done. Each run's generator is used by one thread at a
    time and in step order, so the results depend neither on ``chunk`` nor
    on which thread drew a run. An iterate that leaves the finite range
    raises ``FloatingPointError`` naming the first step k whose update made
    x_{k+1} non-finite, and the runs it hit; so does a recorded gap
    f(x_k) - f* or energy E(k) that is not finite.
    """
    from . import lyapunov  # late import: lyapunov consumes records

    if K < 1 or M < 1:
        raise ValueError("K and M must be >= 1")
    if algorithm not in ("sgdm", "sgd"):
        raise ValueError("ensemble runner supports sgdm and sgd only")
    record = set(record)
    if k_start != 1 and record & {"x", "g", "grad"}:
        raise ValueError("full-path recording needs k_start = 1")
    if rngs is None:  # a noiseless ensemble draws nothing and builds none
        rngs = rngs_for(master_seed, M) if noise.scale != 0.0 else []
    elif len(rngs) != M:
        raise ValueError(f"got {len(rngs)} generators for {M} runs")
    d = obj.dim
    xstar = obj.xstar

    ks = np.arange(k_start - 1, k_start + K)
    eta = np.atleast_1d(np.asarray(schedule_eval(schedule, ks), dtype=float))
    trace = EnsembleTrace(K=K, M=M, eta=eta, algorithm=algorithm,
                          schedule=schedule, fstar=obj.fstar)
    evaluated = bool(record & {"f_gap", "energy"})
    fused = "f_gap" in record and obj.value_and_grad is not None
    # steps per segment: a block of iterates that f_gap or energy is
    # evaluated on at once, else a few whose rows only carry the recursion
    size = _BLOCK_ELEMENTS if "energy" in record or (evaluated and not fused) else _CARRY_ELEMENTS
    seg = max(1, min(chunk, K, size // (M * d)))
    # the iterates, path row r holding x_{k_start-1+r}: the whole path, or
    # one segment's rows at a time
    if "x" in record:
        trace.x = path = np.empty((K + 2, M, d))
    else:
        path = np.empty((seg + 2, M, d))
    path[1] = np.ones(d) if x0 is None else x0
    path[0] = path[1] if x_prev0 is None else x_prev0
    if "g" in record:
        trace.g = np.empty((K, M, d))
    if "grad" in record:
        trace.grad = np.empty((K, M, d))
    if "f_gap" in record:
        trace.f_gap = np.empty((K + 1, M))
    if "energy" in record:
        trace.energy = np.empty((K + 1, M))
    if "theta" in record:
        trace.theta_sq = np.empty((K, M))
        trace.theta_tau = np.empty((K, M))

    # per-step coefficients, indexed by s = k - k_start (eta[s + 1] = eta_k)
    sgdm = algorithm == "sgdm"
    k_steps = ks[1:].astype(float)
    if sgdm:
        momentum, gain = (c.tolist() for c in _sgdm_coefficients(eta[1:], k_steps))
    else:
        momentum, gain = None, (sgd_scale / np.sqrt(k_steps)).tolist()

    f_gap, energy = trace.f_gap, trace.energy
    g_rec, grad_rec, theta_sq, theta_tau = trace.g, trace.grad, trace.theta_sq, trace.theta_tau
    if fused:  # the gap at x_{k_start-1}, which no step evaluates
        f_gap[0] = obj.f_gap(path[0])
    dx = np.empty((M, d))  # x_k - x_{k-1}, then the momentum point
    g_buf = np.empty((M, d))  # the realized gradient, then the step taken along it

    def advance(xw, first, n, xi):
        """Take steps s = first .. first+n-1 (k = k_start + s) with noise
        xi[s - first]. ``xw[j]`` holds x_{k-1} of step j, and the step writes
        x_{k+1} into ``xw[j + 2]``."""
        x_prev, x_cur = xw[0], xw[1]
        for j in range(n):
            s = first + j
            k = k_start + s
            if fused:
                f_gap[s + 1], grad = obj.gap_and_grad(x_cur)
            else:
                grad = obj.grad(x_cur)
            g = grad if xi is None else np.add(grad, xi[j], out=g_buf)
            if grad_rec is not None:
                grad_rec[s] = grad
            if g_rec is not None:
                g_rec[s] = g  # a copy, also where g aliases grad
            np.subtract(x_cur, x_prev, out=dx)
            if theta_sq is not None:
                noise_s = grad - g
                tau = k * dx + (x_cur - xstar)
                theta_sq[s] = np.sum(noise_s * noise_s, axis=1)
                theta_tau[s] = np.sum(noise_s * tau, axis=1)
            np.multiply(g, gain[s], out=g_buf)
            if sgdm:
                np.multiply(dx, momentum[s], out=dx)
                np.add(x_cur, dx, out=dx)
                x_next = np.subtract(dx, g_buf, out=xw[j + 2])
            else:
                x_next = np.subtract(x_cur, g_buf, out=xw[j + 2])
            x_prev, x_cur = x_cur, x_next

    late = None  # (k, message) of the first gap or energy that is not finite

    def evaluate(xw, first, lo, hi):
        """f_gap and energy at rows lo..hi-1 of a segment's iterates ``xw``
        (path rows first+lo ..)."""
        nonlocal late
        rows = slice(first + lo, first + hi)
        k = k_start - 1 + first + lo  # x_k is row lo
        if fused:
            fb = f_gap[rows]
        else:
            fb = obj.f_gap(xw[lo:hi])
            if f_gap is not None:
                f_gap[rows] = fb
        hits = [_nonfinite(fb, k, lambda k: f"f(x_{k}) - f*")]
        if energy is not None:
            energy[rows] = lyapunov.energy_along(xw[lo : hi + 1], eta[rows], fb, xstar, k)
            hits.append(_nonfinite(energy[rows], k, lambda k: f"energy E({k})"))
        if late is None:
            late = min(filter(None, hits), key=lambda hit: hit[0], default=None)

    xw = path
    # noise buffers (steps, runs, dim); a second one and the helper thread
    # only when there is a second chunk
    bufs, fill = [], None
    if noise.scale != 0.0:
        bufs.append(np.empty((min(chunk, K), M, d)))
        if K > chunk:
            bufs.append(np.empty((chunk, M, d)))
        fill = _NoiseFill(noise, rngs, bufs[0], helper=K > chunk)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # divergence raises below
            for c, first in enumerate(range(0, K, chunk)):
                n = min(chunk, K - first)
                xi = None
                if fill is not None:  # this chunk's draws; start the next chunk's
                    fill.wait()
                    xi, fill = bufs[c % 2][:n], None
                    rest = K - first - n
                    if rest:
                        fill = _NoiseFill(noise, rngs, bufs[(c + 1) % 2][: min(chunk, rest)],
                                          helper=True)
                for a in range(0, n, seg):
                    s0, m = first + a, min(seg, n - a)
                    if trace.x is not None:
                        xw = path[s0 : s0 + m + 2]
                    elif s0:  # carry x_{k-1}, x_k of the segment's first step
                        path[:2] = path[m_prev : m_prev + 2]
                    advance(xw, s0, m, None if xi is None else xi[a : a + m])
                    if not np.isfinite(xw[m + 1]).all():
                        raise FloatingPointError(_nonfinite(
                            xw[2 : m + 2], k_start + s0, lambda k: f"iterate x_{k + 1}")[1])
                    if evaluated:
                        evaluate(xw, s0, 1 if s0 else 0, m + 1)
                    m_prev = m
            # a diverging iterate is reported first, even where its gap
            # overflowed some steps before
            if late is not None:
                raise FloatingPointError(late[1])
    finally:
        if fill is not None:
            fill.cancel()
    trace.x_prev_final, trace.x_cur_final = xw[m], xw[m + 1]
    return trace


# steps x runs x dim elements of the iterates kept per segment: a block to
# evaluate, large enough to amortize the per-segment calls; or only a
# carry buffer, kept small because a 288 KB one (18 x 200 x 10) raised the
# peak RSS of the benchmark's ode workload by about 1 MB
_BLOCK_ELEMENTS = 1 << 15
_CARRY_ELEMENTS = 1 << 13


def _nonfinite(values: np.ndarray, k0: int, what: Callable[[int], str]) -> tuple[int, str] | None:
    """None if ``values`` (steps, runs[, dim]) is finite; else the step
    k = k0 + row of its first row holding a non-finite entry and a message
    naming the quantity ``what(k)``, k and the runs it hit."""
    ok = np.isfinite(values)
    if ok.all():
        return None
    if ok.ndim == 3:
        ok = ok.all(axis=2)
    j = int(np.argmin(ok.all(axis=1)))
    bad = np.flatnonzero(~ok[j])
    more = f" and {bad.size - 5} more" if bad.size > 5 else ""
    k = k0 + j
    return k, (f"{what(k)} became non-finite at step k={k} "
               f"in run(s) {bad[:5].tolist()}{more}")


class _NoiseFill(threading.Thread):
    """Fills ``out[:, i]`` of a ``(steps, runs, dim)`` buffer with the next
    ``steps`` draws of run i's stream, for every run.

    With ``helper=True`` a helper thread starts at once and takes runs from
    the front while the caller steps the previous chunk; :meth:`wait` has
    the caller take the runs still left from the back. Deque pops are
    atomic, so each run is drawn by one thread, and each generator is used
    by one thread at a time and in chunk order.
    """

    def __init__(self, noise: NoiseModel, rngs: list, out: np.ndarray, helper: bool):
        super().__init__(name="sgdmlab-noise")
        self._noise, self._rngs, self._out = noise, rngs, out
        self._todo = collections.deque(range(len(rngs)))
        self._error: BaseException | None = None
        if helper:
            self.start()

    def _draw(self, take) -> None:
        n = self._out.shape[0]
        while self._todo:
            try:
                i = take()
            except IndexError:  # the other thread took the last run
                return
            self._out[:, i, :] = self._noise.sample(self._rngs[i], n)

    def run(self) -> None:
        try:
            self._draw(self._todo.popleft)
        except BaseException as exc:  # re-raised in the caller by wait()
            self._error = exc

    def wait(self) -> None:
        """Draw the runs still left, join the helper, re-raise its error."""
        try:
            self._draw(self._todo.pop)
        finally:
            self.cancel()
        if self._error is not None:
            raise self._error

    def cancel(self) -> None:
        """Leave the runs not yet taken undrawn and join the helper."""
        self._todo.clear()
        if self.ident is not None:
            self.join()


def _sgdm_coefficients(eta, k) -> tuple[np.ndarray, np.ndarray]:
    """Momentum weight k/(k+2) and gradient gain 2 sqrt(eta_k) / ((k+2) sqrt(k))
    of momentum step k, elementwise over k (>= 1) and eta_k."""
    k = np.asarray(k, dtype=float)
    return k / (k + 2.0), 2.0 * np.sqrt(eta) / ((k + 2.0) * np.sqrt(k))


def sgdm_noise_multiplier(schedule: StepSchedule, k) -> np.ndarray:
    """Per-step coefficient 2 sqrt(eta_k) / ((k+2) sqrt(k)) applied to the
    gradient noise by the momentum recursion (Theta(k^-3/2 / log k) for the
    anytime schedule, versus the 1/sqrt(k) multiplier of plain SGD)."""
    k = np.asarray(k, dtype=float)
    return _sgdm_coefficients(np.asarray(schedule_eval(schedule, k)), k)[1]
