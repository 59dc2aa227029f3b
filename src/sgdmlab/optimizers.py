"""Discrete algorithms: momentum SGD, plain SGD, and the three-sequence
accelerated stochastic-approximation method, plus step-size schedules and
trajectory runners.

The momentum recursion is

    x_{k+1} = x_k + k/(k+2) (x_k - x_{k-1}) - 2 sqrt(eta_k) / ((k+2) sqrt(k)) g_k

with initialization x_0 = x_1, equivalent to a velocity form with an implicit
velocity update (solved in closed form, see :func:`sgdm_velocity_step`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from ._csv import write_csv
from .problems import NoiseModel, Objective
from .seeding import rng_for

__all__ = [
    "StepSchedule",
    "SgdmState",
    "AcsaState",
    "TrajectoryRecord",
    "schedule_eval",
    "sgdm_step",
    "sgdm_velocity_step",
    "sgd_step",
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
# non-increasing in k by construction (required by the descent lemma)
_MONOTONE_KINDS = ("anytime_log2", "expectation_log2", "epsilon_log", "sqrt_k", "constant")


@dataclass(frozen=True)
class StepSchedule:
    """Rule k -> eta_k. ``scale`` multiplies the base formula (default 1)."""

    kind: str
    L: float = 1.0
    scale: float = 1.0
    epsilon: float = 1.0  # only used by epsilon_log, must lie in (0, 1]
    fn: Callable[[np.ndarray], np.ndarray] | None = None  # only for kind="custom"
    monotone: bool | None = None

    def __post_init__(self):
        if self.kind not in _SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.scale <= 0:
            raise ValueError("schedule scale must be positive")
        if self.kind == "epsilon_log" and not (0.0 < self.epsilon <= 1.0):
            raise ValueError("epsilon must lie in (0, 1]")
        if self.kind == "custom" and self.fn is None:
            raise ValueError("custom schedule requires fn")
        if self.monotone is None:
            object.__setattr__(self, "monotone", self.kind in _MONOTONE_KINDS)

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
class SgdmState:
    """Iteration state (x_{k-1}, x_k) of the momentum recursion; starts at k=1 with x_0 = x_1."""

    x_prev: np.ndarray
    x_cur: np.ndarray
    schedule: StepSchedule
    k: int = 1

    @staticmethod
    def initial(x0: np.ndarray, schedule: StepSchedule) -> "SgdmState":
        x0 = np.asarray(x0, dtype=float)
        return SgdmState(x_prev=x0.copy(), x_cur=x0.copy(), schedule=schedule, k=1)


def sgdm_step(state: SgdmState, g: np.ndarray) -> SgdmState:
    """One momentum update consuming the realized stochastic gradient at x_k."""
    k = state.k
    if k < 1:
        raise ValueError("iteration index must be >= 1")
    g = np.asarray(g, dtype=float)
    if g.shape != state.x_cur.shape:
        raise ValueError(f"gradient shape {g.shape} != iterate shape {state.x_cur.shape}")
    eta_k = schedule_eval(state.schedule, k)
    x_next = (
        state.x_cur
        + (k / (k + 2.0)) * (state.x_cur - state.x_prev)
        - (2.0 * np.sqrt(eta_k) / ((k + 2.0) * np.sqrt(k))) * g
    )
    return SgdmState(x_prev=state.x_cur, x_cur=x_next, schedule=state.schedule, k=k + 1)


def sgdm_velocity_step(
    x: np.ndarray, v: np.ndarray, k: int, eta: float, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Velocity form of the same recursion: x' = x + eta v, then solve the
    implicit velocity equation v' - v = -(2/k) v' - (2/k) g / sqrt(k eta).

    The update is linear in v', so it is solved exactly:
    v' = (v - (2/k) g / sqrt(k eta)) / (1 + 2/k). ``g`` is the stochastic
    gradient realized at the new position x'.
    """
    if k < 1:
        raise ValueError("iteration index must be >= 1")
    if eta <= 0:
        raise ValueError("eta must be positive")
    x_new = x + eta * v
    v_new = (v - (2.0 / k) * g / np.sqrt(k * eta)) / (1.0 + 2.0 / k)
    return x_new, v_new


def sgd_step(x: np.ndarray, k: int, g: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Baseline SGD with the classic 1/sqrt(k) stepsize (scale configurable)."""
    if k < 1:
        raise ValueError("iteration index must be >= 1")
    return x - (scale / np.sqrt(k)) * np.asarray(g, dtype=float)


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


@dataclass
class TrajectoryRecord:
    """Per-iteration log of one run.

    Index conventions: ``x`` holds x_0 .. x_{K+1}; arrays of length K+1
    (``f_gap``, ``eta``, ``energy``) are indexed by k = 0..K; arrays of
    length K (``g``, ``grad``, ``theta``, ``tau``, ``descent_lhs``,
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
    tau: np.ndarray
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
        ks = np.arange(0, K + 1)
        tau = ks[1:, None] * (x[1 : K + 1] - x[0:K]) + (x[1 : K + 1] - obj.xstar)
        energy = lyapunov.energy_along(x, eta, f_gap, obj.xstar)
        descent_rhs = lyapunov.descent_rhs_along(
            x, g, grad, f_gap, eta, obj.lipschitz, obj.xstar
        )
        return cls(
            algorithm=algorithm, K=K, x=x, g=g, grad=grad, eta=eta,
            f_gap=f_gap, energy=energy, descent_lhs=energy[1:] - energy[:-1],
            descent_rhs=descent_rhs, theta=grad - g, tau=tau, fstar=obj.fstar,
            schedule=schedule,
        )

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

    def dump_states(self, path) -> None:
        """Full-state binary dump: little-endian float64, row-major x_0..x_{K+1}."""
        np.asarray(self.x, dtype="<f8").tofile(path)


def run_trajectory(
    obj: Objective,
    noise: NoiseModel,
    algorithm: str,
    schedule: StepSchedule,
    K: int,
    seed,
    x0: np.ndarray | None = None,
    sgd_scale: float = 1.0,
    acsa_gamma: float = 1.0,
) -> TrajectoryRecord:
    """Run K steps of one algorithm and log every per-step quantity.

    Fully deterministic given the seed (an int, SeedSequence, or Generator).
    Aborts with a diagnostic if an iterate leaves the finite range.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if algorithm not in ("sgdm", "sgd", "acsa"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    d = obj.dim
    x0 = np.ones(d) if x0 is None else np.asarray(x0, dtype=float)

    x = np.empty((K + 2, d))
    g_arr = np.empty((K, d))
    grad_arr = np.empty((K, d))
    x[0] = x[1] = x0
    if algorithm == "acsa":
        st_acsa = AcsaState.initial(x0, acsa_gamma, obj.lipschitz)
    for k in range(1, K + 1):
        xk = x[k]
        if not np.all(np.isfinite(xk)):
            raise FloatingPointError(f"iterate became non-finite at step k={k}")
        grad_arr[k - 1] = obj.grad(xk)
        if algorithm == "acsa":
            # the oracle is queried at y_k, not x_k; log the realized query
            def oracle(y, _k=k):
                gq = obj.grad(y) + noise.sample(rng)
                g_arr[_k - 1] = gq
                return gq

            st_acsa = acsa_step(st_acsa, oracle)
            x[k + 1] = st_acsa.x
            continue
        g = grad_arr[k - 1] + noise.sample(rng)
        g_arr[k - 1] = g
        if algorithm == "sgdm":
            eta_k = schedule_eval(schedule, k)
            x[k + 1] = (
                xk
                + (k / (k + 2.0)) * (xk - x[k - 1])
                - (2.0 * np.sqrt(eta_k) / ((k + 2.0) * np.sqrt(k))) * g
            )
        else:
            x[k + 1] = sgd_step(xk, k, g, scale=sgd_scale)
    if not np.all(np.isfinite(x)):
        raise FloatingPointError("iterate became non-finite at the final step")

    eta = np.asarray(schedule_eval(schedule, np.arange(0, K + 1)), dtype=float)
    return TrajectoryRecord.from_path(
        obj, algorithm, schedule, x, g_arr, grad_arr, obj.f_gap(x[: K + 1]), eta
    )


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
) -> EnsembleTrace:
    """Run M independent trajectories simultaneously, vectorized across runs.

    Each run i draws its noise from the generator seeded by
    (master_seed, i), in the same stream order as a single-run loop, so the
    realized randomness matches run-at-a-time execution regardless of
    batching. ``k_start``/``x_prev0`` allow warm-started segments (steps
    k = k_start .. k_start+K-1), used by the continuous-limit comparisons.

    ``record`` selects the fields to keep: ``"f_gap"``, ``"energy"``,
    ``"theta"``, and the full path ``"x"``, ``"g"``, ``"grad"`` (runs that
    start at k = 1 only). The oracle is evaluated one step at a time, so
    recording costs only the stored arrays; a step that records ``f_gap``
    or ``energy`` makes one fused :meth:`Objective.gap_and_grad` call.
    """
    if K < 1 or M < 1:
        raise ValueError("K and M must be >= 1")
    if algorithm not in ("sgdm", "sgd"):
        raise ValueError("ensemble runner supports sgdm and sgd only")
    record = set(record)
    if k_start != 1 and record & {"x", "g", "grad"}:
        raise ValueError("full-path recording needs k_start = 1")
    d = obj.dim
    x0 = np.ones(d) if x0 is None else np.asarray(x0, dtype=float)
    x_cur = np.broadcast_to(x0, (M, d)).copy() if x0.ndim == 1 else x0.astype(float).copy()
    x_prev = x_cur.copy() if x_prev0 is None else np.broadcast_to(
        np.asarray(x_prev0, dtype=float), (M, d)
    ).copy()
    xstar = obj.xstar

    ks = np.arange(k_start - 1, k_start + K)
    eta = np.atleast_1d(np.asarray(schedule_eval(schedule, ks), dtype=float))
    trace = EnsembleTrace(K=K, M=M, eta=eta, algorithm=algorithm,
                          schedule=schedule, fstar=obj.fstar)
    if "x" in record:
        trace.x = np.empty((K + 2, M, d))
        trace.x[0], trace.x[1] = x_prev, x_cur
    if "g" in record:
        trace.g = np.empty((K, M, d))
    if "grad" in record:
        trace.grad = np.empty((K, M, d))
    if "f_gap" in record:
        trace.f_gap = np.empty((K + 1, M))
        trace.f_gap[0] = obj.f_gap(x_prev)
    if "energy" in record:
        trace.energy = np.empty((K + 1, M))
        # E(k_start-1) reads x_{k_start}, x_{k_start-1}, eta_{k_start-1}, f(x_{k_start-1})
        v = x_cur + float(k_start) * (x_cur - x_prev) - xstar
        trace.energy[0] = np.sum(v * v, axis=1) + 4.0 * np.sqrt(k_start * eta[0]) * obj.f_gap(x_prev)
    if "theta" in record:
        trace.theta_sq = np.empty((K, M))
        trace.theta_tau = np.empty((K, M))

    rngs = [rng_for(master_seed, i) for i in range(M)]
    noiseless = noise.scale == 0.0
    need_f = trace.f_gap is not None or trace.energy is not None
    step = 0
    while step < K:
        n_sub = min(chunk, K - step)
        if noiseless:
            xi_chunk = None
        else:
            xi_chunk = np.empty((M, n_sub, d))
            for i, rng in enumerate(rngs):
                xi_chunk[i] = noise.sample(rng, n_sub)
        for j in range(n_sub):
            k = k_start + step + j
            idx = step + j + 1  # record row
            if need_f:
                fg, grad = obj.gap_and_grad(x_cur)
                if trace.f_gap is not None:
                    trace.f_gap[idx] = fg
            else:
                grad = obj.grad(x_cur)
            g = grad if noiseless else grad + xi_chunk[:, j, :]
            if trace.grad is not None:
                trace.grad[idx - 1] = grad
            if trace.g is not None:
                trace.g[idx - 1] = g  # a copy, also where g aliases grad
            if trace.theta_sq is not None:
                xi = grad - g
                tau = k * (x_cur - x_prev) + (x_cur - xstar)
                trace.theta_sq[idx - 1] = np.sum(xi * xi, axis=1)
                trace.theta_tau[idx - 1] = np.sum(xi * tau, axis=1)
            if algorithm == "sgdm":
                eta_k = eta[idx]
                x_next = (
                    x_cur
                    + (k / (k + 2.0)) * (x_cur - x_prev)
                    - (2.0 * np.sqrt(eta_k) / ((k + 2.0) * np.sqrt(k))) * g
                )
            else:
                x_next = x_cur - (sgd_scale / np.sqrt(k)) * g
            if trace.energy is not None:
                w = x_next + (k + 1.0) * (x_next - x_cur) - xstar
                trace.energy[idx] = np.sum(w * w, axis=1) + 4.0 * np.sqrt(
                    (k + 1.0) * eta[idx]
                ) * fg
            if trace.x is not None:
                trace.x[idx + 1] = x_next
            x_prev, x_cur = x_cur, x_next
        if not np.all(np.isfinite(x_cur)):
            bad = np.where(~np.all(np.isfinite(x_cur), axis=1))[0]
            raise FloatingPointError(
                f"iterate became non-finite by step {k_start + step + n_sub - 1} "
                f"in run(s) {bad.tolist()[:5]}"
            )
        step += n_sub
    trace.x_prev_final = x_prev
    trace.x_cur_final = x_cur
    return trace


def sgdm_noise_multiplier(schedule: StepSchedule, k) -> np.ndarray:
    """Per-step coefficient 2 sqrt(eta_k) / ((k+2) sqrt(k)) applied to the
    gradient noise by the momentum recursion (Theta(k^-3/2 / log k) for the
    anytime schedule, versus the 1/sqrt(k) multiplier of plain SGD)."""
    k = np.asarray(k, dtype=float)
    eta = np.asarray(schedule_eval(schedule, k))
    return 2.0 * np.sqrt(eta) / ((k + 2.0) * np.sqrt(k))
