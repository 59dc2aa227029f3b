"""Discrete algorithms: momentum SGD, plain SGD, and the three-sequence
accelerated stochastic-approximation method (ACSA), plus step-size
schedules and trajectory runners.

The momentum recursion is

    x_{k+1} = x_k + k/(k+2) (x_k - x_{k-1}) - 2 sqrt(eta_k) / ((k+2) sqrt(k)) g_k

with initialization x_0 = x_1; plain SGD is x_{k+1} = x_k - (c / sqrt(k)) g_k.
ACSA queries its oracle at y_k = (1 - alpha_k) x_k + alpha_k z_k and steps

    z_{k+1} = z_k - gamma_k g_k,  x_{k+1} = (1 - alpha_k) x_k + alpha_k z_{k+1}

with z_1 = x_1, alpha_k = 2/(k+1) and gamma_k = 1/(2L/k + sqrt(k)).
:func:`run_ensemble` is the only code that steps any of the three;
:func:`run_trajectory` is one column of it.
"""

from __future__ import annotations

import collections
import inspect
import threading
from contextlib import AbstractContextManager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from . import lyapunov
from ._csv import write_csv
from .problems import NoiseModel, Objective
from .seeding import rng_for, rngs_for  # noqa: F401 (perfbench's tracer patches rng_for here)

__all__ = [
    "StepSchedule",
    "TrajectoryRecord",
    "schedule_eval",
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
        if not self.scale > 0:
            raise ValueError("schedule scale must be positive")
        if self.kind == "epsilon_log" and not (0.0 < self.epsilon <= 1.0):
            raise ValueError("epsilon must lie in (0, 1]")
        if self.log_power is not None:
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                eta0 = schedule_eval(self, 0)  # the largest step
            if not (0.0 < self.L and 0.0 < eta0 < np.inf):  # w L^2 underflowed or overflowed
                raise ValueError(f"the {self.kind} schedule needs a finite positive L for which "
                                 f"eta_0 is finite and positive (got L={self.L:g}, "
                                 f"scale={self.scale:g})")
        if self.kind == "custom" and self.fn is None:
            raise ValueError("custom schedule requires fn")

    @property
    def monotone(self) -> bool:
        """Non-increasing in k by construction (required by the descent lemma)."""
        return self.kind != "custom"

    @property
    def log_power(self) -> float | None:
        """q of a logarithmic schedule eta_k = c / (w L^2 log^q(k+2)), else None."""
        powers = {"anytime_log2": 2.0, "expectation_log2": 2.0, "epsilon_log": 1.0 + self.epsilon}
        return powers.get(self.kind)


def schedule_eval(s: StepSchedule, k) -> np.ndarray:
    """Evaluate eta_k (natural log throughout); accepts scalars or arrays, k >= 0."""
    k = np.asarray(k, dtype=float)
    if np.any(k < 0):
        raise ValueError("iteration index must be >= 0")
    c, L, q = s.scale, s.L, s.log_power
    if q is not None:
        w = 1.0 if s.kind == "expectation_log2" else 16.0
        out = c / (w * L * L * np.log(k + 2.0) ** q)
    elif s.kind == "sqrt_k":
        out = c / np.sqrt(np.maximum(k, 1.0))
    elif s.kind == "constant":
        out = c * np.ones_like(k)
    else:
        out = np.asarray(s.fn(k), dtype=float)
    return out if out.ndim else float(out)


@dataclass
class TrajectoryRecord:
    """Per-iteration log of run 0 of an ensemble stream, filled by :meth:`fold`.

    ``eta``, ``f_gap`` and ``energy`` are indexed by k = 0..K; ``descent_rhs``,
    ``grad_norm`` and ``noise_norm`` by the steps k = 1..K. ``grad_norm`` is
    the norm of the exact gradient at the step's query point (x_k for
    momentum SGD and SGD, y_k for ACSA) and ``noise_norm`` that of its
    difference to the realized gradient.
    """

    K: int
    eta: np.ndarray
    f_gap: np.ndarray
    energy: np.ndarray
    descent_rhs: np.ndarray
    grad_norm: np.ndarray
    noise_norm: np.ndarray

    RECORD = ("f_gap", "energy", "descent")  # the stream fields a record folds

    @classmethod
    def of(cls, trace: "EnsembleTrace") -> "TrajectoryRecord":
        """The empty record of run 0 of the stream whose trace is ``trace``."""
        rows, steps = np.empty((2, trace.K + 1)), np.empty((3, trace.K))
        return cls(trace.K, trace.eta, *rows, *steps)

    def fold(self, blocks):
        """Pass the blocks of a stream recorded with :attr:`RECORD` on,
        keeping run 0's rows of each."""
        for b in blocks:
            self.f_gap[b.lo : b.hi] = b.f_gap[:, 0]
            self.energy[b.lo : b.hi] = b.energy[:, 0]
            steps = slice(max(b.lo, 1) - 1, b.hi - 1)
            self.descent_rhs[steps] = b.descent_rhs[:, 0]
            np.sqrt(b.grad_sq[:, 0], out=self.grad_norm[steps])
            np.sqrt(b.theta_sq[:, 0], out=self.noise_norm[steps])
            yield b

    def to_csv(self, path) -> None:
        """Write the per-step CSV (one row per step k = 1..K)."""
        ks = np.arange(1, self.K + 1)
        cols = np.column_stack(
            [
                ks,
                self.f_gap[1:],
                self.eta[1:],
                self.energy[1:],
                np.diff(self.energy),
                self.descent_rhs,
                self.grad_norm,
                self.noise_norm,
            ]
        )
        write_csv(path, cols, "k,f_gap,eta,lyapunov,descent_lhs,descent_rhs,grad_norm,noise_norm")


def run_trajectory(
    obj: Objective,
    noise: NoiseModel,
    algorithm: str,
    schedule: StepSchedule,
    K: int,
    master_seed: int,
    sgd_scale: float = 1.0,
) -> TrajectoryRecord:
    """Run K steps of one algorithm from x_0 = x_1 = (1, ..., 1) and log
    every per-step quantity.

    The run is run 0 of the ensemble stream on ``master_seed``, drawing from
    ``rng_for(master_seed, 0)``, folded into its record; it diverges with
    the stream's ``FloatingPointError``.
    """
    stream = run_ensemble(obj, noise, schedule, K, 1, master_seed, algorithm,
                          record=TrajectoryRecord.RECORD, sgd_scale=sgd_scale)
    record = TrajectoryRecord.of(stream)
    with stream:
        collections.deque(record.fold(stream), maxlen=0)
    return record


# The fields run_ensemble can record: "theta" gives theta_sq and theta_tau,
# "descent" those and grad_sq and descent_rhs.
RECORDS = ("f_gap", "energy", "theta", "descent")

# The most float64-sized values one call may keep for its steps or its runs
# (512 MB): run_ensemble's set-up and its runs' state here, an ODE or SDE
# grid in continuous; each call counts its own
GRID_CAP = 2**26
# The float64-sized values run_ensemble's set-up peaks at per step, before
# its first step: ks, eta, the step counts and the two coefficient lists of
# Python floats (104 bytes per step by tracemalloc for sgdm, the largest)
_SETUP_VALUES = 13
# The float64-sized values one run's generator peaks at while rngs_for
# builds it (640 bytes by tracemalloc; it keeps 585)
_RNG_VALUES = 80

# A block of an ensemble's stream: rows lo..hi-1 (row r at k = k_start-1+r)
# of f_gap and energy, and the step fields of the steps k of rows
# max(lo, 1)..hi-1; None where not recorded. The next block overwrites them.
_Block = collections.namedtuple(
    "_Block", "lo hi f_gap energy theta_sq theta_tau grad_sq descent_rhs")


@dataclass(eq=False)
class EnsembleTrace(AbstractContextManager):
    """The stream of M runs that :func:`run_ensemble` returns: iterating it
    steps the runs and yields the recorded fields in :data:`_Block` s, which
    the next block overwrites; leaving its ``with`` block joins the noise
    helper, and once drained it holds the final iterates, and ``rngs`` the
    runs' generators, to continue them in a next segment. ``algorithm`` and
    ``schedule`` tell :func:`~sgdmlab.lyapunov.check_descent` its lemma."""

    K: int
    M: int
    eta: np.ndarray  # (K+1,)
    algorithm: str
    schedule: StepSchedule
    rngs: list[np.random.Generator]
    _blocks: Iterator[_Block]
    x_prev_final: np.ndarray | None = None  # (M, d): x_K
    x_cur_final: np.ndarray | None = None  # (M, d): x_{K+1}

    def __iter__(self) -> Iterator[_Block]:
        return self._blocks

    def __exit__(self, *exc) -> None:
        self._blocks.close()

    def collect(self, *names: str) -> tuple[np.ndarray, ...]:
        """Run the stream to its end and return the named block fields as full
        arrays: ``f_gap`` and ``energy`` (K+1, M) by k = 0..K, the step fields
        (K, M) by steps k = 1..K; with no names, only drain it. A stream
        iterated before raises ``ValueError``, and so, before any step, do
        names whose arrays would keep more than :data:`GRID_CAP` values."""
        if not set(names) <= set(_Block._fields[2:]):
            raise ValueError(f"unknown field name(s) in {names}")
        if inspect.getgeneratorstate(self._blocks) != inspect.GEN_CREATED:
            raise ValueError("collect needs a stream that was not iterated before")
        if len(names) * (self.K + 1) * self.M > GRID_CAP:
            raise ValueError(f"{len(names)} field(s) of K={self.K} steps and M={self.M} runs "
                             f"would keep more than {GRID_CAP} values")
        out = [np.empty((self.K + (name in ("f_gap", "energy")), self.M)) for name in names]
        with self:
            for b in self:
                for name, full in zip(names, out):
                    part = getattr(b, name)
                    if part is None:
                        raise ValueError(f"{name} is not recorded by this stream")
                    end = b.hi - (self.K + 1 - len(full))  # a step field has no row 0
                    full[end - len(part) : end] = part
        return tuple(out)


def run_ensemble(obj: Objective, noise: NoiseModel, schedule: StepSchedule, K: int, M: int,
                 master_seed: int, algorithm: str = "sgdm", x0: np.ndarray | None = None,
                 record: Iterable[str] = ("f_gap",), sgd_scale: float = 1.0,
                 k_start: int = 1, x_prev0: np.ndarray | None = None, chunk: int = 512,
                 rngs: list[np.random.Generator] | None = None) -> EnsembleTrace:
    """The stream of M independent trajectories of ``algorithm`` (``"sgdm"``,
    ``"sgd"`` or ``"acsa"``), vectorized across runs, which steps them as it
    is iterated; the arguments are checked before any step, and a K or an M
    whose steps or runs would keep more than :data:`GRID_CAP` values raises
    ``ValueError`` before anything is built for them.

    Run i draws its noise from the generator seeded by (master_seed, i) (all
    built in one pass by :func:`rngs_for`, none for a noiseless ensemble) in
    the order of a single-run loop, so batching does not change a run.
    ``k_start``/``x_prev0`` allow warm-started segments (steps
    k = k_start .. k_start+K-1); ACSA has no z_k to carry across segments,
    so it runs from k = 1 only. ``rngs``, a list of M generators, replaces
    ``rngs_for(master_seed, M)`` and is drawn from in place: a segment that
    starts at the step after the previous segment's last one (``k_start``),
    from its ``x_prev_final`` and ``x_cur_final`` (``x_prev0``, ``x0``), with
    the same ``rngs``, continues it bit for bit as one longer stream would.

    ``record`` selects the fields to keep, from :data:`RECORDS` (any other
    name raises ``ValueError``); ``"theta"`` and ``"descent"`` are the rows of
    :func:`~sgdmlab.lyapunov.noise_terms` and ``descent_rhs_along``, for the
    realized and exact gradients at the step's query point: x_k, or y_k for
    ACSA. Each step calls the gradient alone, or the fused ``value_and_grad``
    when the objective has one, ``f_gap`` is recorded and the query point is
    x_k. Steps run in short segments whose iterates (and gradients, for the
    step fields) are kept; after each segment the fields are evaluated on
    all of them at once.

    Steps run in chunks of ``chunk``. While one chunk is stepped, a helper
    thread draws the next chunk's noise (NumPy releases the interpreter lock
    inside the draws), and the caller draws the runs it has not reached yet
    once the chunk is done. Each run's generator is used by one thread at a
    time and in step order, so the results depend neither on ``chunk`` nor
    on which thread drew a run. An iterate that leaves the finite range
    raises ``FloatingPointError`` naming the first step k whose update made
    x_{k+1} non-finite, and the runs it hit; so does a recorded gap
    f(x_k) - f* or energy E(k) that is not finite: from that k on no block
    is yielded, and the error raises after the last step.
    """
    if K < 1 or M < 1:
        raise ValueError("K and M must be >= 1")
    if K * _SETUP_VALUES > GRID_CAP:
        raise ValueError(f"K={K} steps would keep more than {GRID_CAP} values")
    if algorithm not in ("sgdm", "sgd", "acsa"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    acsa = algorithm == "acsa"
    if acsa and (k_start != 1 or x_prev0 is not None):
        raise ValueError("acsa runs start at k_start = 1 with x_0 = x_1 (no x_prev0)")
    record = set(record)
    if not record <= set(RECORDS):
        raise ValueError(f"unknown record name(s) {sorted(record - set(RECORDS))}; "
                         f"accepted: {', '.join(RECORDS)}")
    d = obj.dim
    noisy = noise.scale != 0.0
    # a run's generator and noise rows (a second chunk's too), when it draws,
    # and its working rows: three of a segment's iterates, dx and g_buf
    per_run = 5 * d + (_RNG_VALUES + min(chunk, K) * d * (1 + (K > chunk)) if noisy else 0)
    if M * per_run > GRID_CAP:
        raise ValueError(f"M={M} runs would keep more than {GRID_CAP} values")
    if rngs is None:  # a noiseless ensemble draws nothing and builds none
        rngs = rngs_for(master_seed, M) if noisy else []
    elif len(rngs) != M:
        raise ValueError(f"got {len(rngs)} generators for {M} runs")
    xstar = obj.xstar

    ks = np.arange(k_start - 1, k_start + K)
    eta = np.atleast_1d(np.asarray(schedule_eval(schedule, ks), dtype=float))
    if "descent" in record:  # the bound needs the noise terms
        record.add("theta")
    theta = "theta" in record
    evaluated = bool(record)
    fused = "f_gap" in record and obj.value_and_grad is not None and not acsa
    # steps per segment, whose iterates the fields are evaluated on at once
    seg = max(1, min(chunk, K, _BLOCK_ELEMENTS // (M * d)))
    # one segment's iterates, row r holding x_{k-1} of its first step k plus r
    path = np.empty((seg + 2, M, d))
    path[1] = np.ones(d) if x0 is None else x0
    path[0] = path[1] if x_prev0 is None else x_prev0
    # and its exact and realized gradients, row j that of its step j
    grad_seg = np.empty((seg, M, d)) if theta else None
    g_seg = grad_seg if grad_seg is None or not noisy else np.empty((seg, M, d))
    # buffer row i holds block row lo + i; the first block also holds row
    # 0, x_{k_start-1}, which no step reaches and whose step fields are unset
    cap = min(max(seg, _BLOCK_ELEMENTS // M), K) + 1
    f_gap, energy, theta_sq, theta_tau, grad_sq, descent_rhs = (
        np.empty((cap, M)) if name in record else None
        for name in ("f_gap", "energy", "theta", "theta", "descent", "descent"))

    # per-step coefficients, indexed by s = k - k_start (eta[s + 1] = eta_k);
    # for ACSA ``momentum`` is alpha_k and ``gain`` gamma_k
    sgdm = algorithm == "sgdm"
    k_steps = ks[1:].astype(float)
    if sgdm:
        momentum, gain = (c.tolist() for c in _sgdm_coefficients(eta[1:], k_steps))
    elif acsa:
        momentum = (2.0 / (k_steps + 1.0)).tolist()
        gain = (1.0 / (2.0 * obj.lipschitz / k_steps + np.sqrt(k_steps))).tolist()
    else:
        momentum, gain = None, (sgd_scale / np.sqrt(k_steps)).tolist()

    dx = np.empty((M, d))  # x_k - x_{k-1}, then the momentum point
    g_buf = np.empty((M, d))  # the realized gradient, then the step taken along it
    if acsa:  # z_k, and the query point y_k, then alpha_k z_{k+1}
        z, y = path[1].copy(), np.empty((M, d))

    def advance(first, n, xi, r):
        """Take steps s = first .. first+n-1 (k = k_start + s) with noise
        xi[s - first], recording the gap into buffer rows r ... ``path[j]``
        holds x_{k-1} of step j, and the step writes x_{k+1} into ``path[j + 2]``."""
        x_prev, x_cur = path[0], path[1]
        for j in range(n):
            s = first + j
            if fused:
                f, grad = obj.value_and_grad(x_cur)
                f_gap[r + j] = f - obj.fstar
            elif acsa:  # y_k = (1 - alpha_k) x_k + alpha_k z_k
                np.multiply(x_cur, 1.0 - momentum[s], out=y)
                grad = obj.grad(np.add(y, np.multiply(z, momentum[s], out=dx), out=y))
            else:
                grad = obj.grad(x_cur)
            if grad_seg is not None:
                grad_seg[j] = grad
            g = grad if xi is None else np.add(grad, xi[j],
                                               out=g_buf if g_seg is None else g_seg[j])
            np.multiply(g, gain[s], out=g_buf)
            if sgdm:
                np.subtract(x_cur, x_prev, out=dx)
                np.multiply(dx, momentum[s], out=dx)
                np.add(x_cur, dx, out=dx)
                x_next = np.subtract(dx, g_buf, out=path[j + 2])
            elif acsa:  # x_{k+1} = (1 - alpha_k) x_k + alpha_k z_{k+1}
                np.subtract(z, g_buf, out=z)
                np.multiply(x_cur, 1.0 - momentum[s], out=path[j + 2])
                x_next = np.add(path[j + 2], np.multiply(z, momentum[s], out=y), out=path[j + 2])
            else:
                x_next = np.subtract(x_cur, g_buf, out=path[j + 2])
            x_prev, x_cur = x_cur, x_next

    late = None  # (k, message) of the first gap or energy that is not finite

    def evaluate(first, r, lo, n):
        """The recorded fields of a segment's n steps s = first .. (rows lo..n
        of ``path``, block rows r+lo ..r+n; step fields from row r+1)."""
        nonlocal late
        rows = slice(r + lo, r + n + 1)
        k = k_start - 1 + first  # x_k is path row 0
        if fused:
            fb = f_gap[rows]
        else:
            fb = obj.f_gap(path[lo : n + 1])
            if f_gap is not None:
                f_gap[rows] = fb
        hits = [_nonfinite(k + lo, lambda k: (f"f(x_{k}) - f*", f"step k={k}"), fb)]
        if energy is not None:
            energy[rows] = lyapunov.energy_along(path[lo : n + 2], eta[first + lo : first + n + 1],
                                                 fb, xstar, k + lo)
            hits.append(_nonfinite(k + lo, lambda k: (f"energy E({k})", f"step k={k}"),
                                   energy[rows]))
        if late is None:
            late = min(filter(None, hits), key=lambda hit: hit[0], default=None)
        if theta:
            steps = slice(r + 1, r + n + 1)
            g, grad = g_seg[:n], grad_seg[:n]
            theta_sq[steps], theta_tau[steps] = lyapunov.noise_terms(path[: n + 1], g, grad,
                                                                     xstar, k)
        if descent_rhs is not None:
            np.sum(grad * grad, axis=-1, out=grad_sq[steps])
            descent_rhs[steps] = lyapunov.descent_rhs_along(
                np.sum(g * g, axis=-1), grad_sq[steps], theta_tau[steps], fb[1 - lo :],
                eta[first + 1 : first + n + 1], obj.lipschitz, k)

    def blocks():
        xi, m = None, 0
        if fused:  # the gap at x_{k_start-1}, which no step evaluates
            f_gap[0] = obj.f_gap(path[0])
        # noise buffers (steps, runs, dim); a second one and the helper
        # thread only when there is a second chunk
        bufs, fill = [], None
        if noisy:
            bufs.append(np.empty((min(chunk, K), M, d)))
            if K > chunk:
                bufs.append(np.empty((chunk, M, d)))
            fill = _NoiseFill(noise, rngs, bufs[0], helper=K > chunk)
        s0 = lo = 0  # the next step; the block's first row, the buffers' row 0
        try:
            while s0 < K:
                # divergence raises below; the error state is restored at each yield
                with np.errstate(over="ignore", invalid="ignore"):
                    while s0 < K:  # whole segments, until the block is full
                        a, c = s0 % chunk, s0 // chunk  # step s0 is step a of chunk c
                        if a == 0 and fill is not None:  # its draws; start the next chunk's
                            fill.wait()
                            xi, fill = bufs[c % 2][: min(chunk, K - s0)], None
                            if K - s0 > chunk:
                                fill = _NoiseFill(noise, rngs, bufs[(c + 1) % 2][
                                    : min(chunk, K - s0 - chunk)], helper=True)
                        if s0:  # carry x_{k-1}, x_k of its first step
                            path[:2] = path[m : m + 2]
                        m = min(seg, chunk - a, K - s0)
                        advance(s0, m, None if xi is None else xi[a : a + m], s0 + 1 - lo)
                        if not np.isfinite(path[m + 1]).all():
                            raise FloatingPointError(_nonfinite(
                                k_start + s0, lambda k: (f"iterate x_{k + 1}", f"step k={k}"),
                                path[2 : m + 2])[1])
                        if evaluated:
                            evaluate(s0, s0 - lo, 1 if s0 else 0, m)
                        s0 += m
                        if s0 + 1 - lo + seg > cap:
                            break
                if late is None:
                    rows = slice(0, s0 + 1 - lo)
                    steps = slice(0 if lo else 1, s0 + 1 - lo)  # row 0 is no step's
                    yield _Block(lo, s0 + 1,
                                 *(None if f is None else f[rows] for f in (f_gap, energy)),
                                 *(None if f is None else f[steps]
                                   for f in (theta_sq, theta_tau, grad_sq, descent_rhs)))
                lo = s0 + 1
            # a diverging iterate is reported first, even where its gap
            # overflowed some steps before
            if late is not None:
                raise FloatingPointError(late[1])
        finally:
            if fill is not None:
                fill.cancel()
        trace.x_prev_final, trace.x_cur_final = path[m], path[m + 1]

    trace = EnsembleTrace(K, M, eta, algorithm, schedule, rngs, blocks())
    return trace


# the steps x runs x dim elements of the iterates a segment keeps, and the
# steps x runs values per field of an evaluated block a stream yields: each
# enough to amortize the calls made once per segment or per block
_BLOCK_ELEMENTS = 1 << 15


def _nonfinite(k0: int, what: Callable[[int], tuple[str, str]],
               *blocks: np.ndarray) -> tuple[int, str] | None:
    """None if the ``blocks`` (rows, runs, ...) are finite; else the index
    k = k0 + row of their first row holding a non-finite entry and a message
    naming the quantity and the place that ``what(k)`` gives, and the runs
    hit there. A run's entries are those on every axis after the run axis."""
    oks = [np.isfinite(b) for b in blocks]
    if all(ok.all() for ok in oks):
        return None
    ok = np.logical_and.reduce([ok.all(axis=tuple(range(2, ok.ndim))) for ok in oks])
    j = int(np.argmin(ok.all(axis=1)))
    bad = np.flatnonzero(~ok[j])
    more = f" and {bad.size - 5} more" if bad.size > 5 else ""
    k = k0 + j
    name, place = what(k)
    return k, f"{name} became non-finite at {place} in run(s) {bad[:5].tolist()}{more}"


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
