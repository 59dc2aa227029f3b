"""Continuous-time side: the generalized damped-gradient ODE

    Xdd + (p+1)/t Xd + (p+1)/t^alpha grad f(X) = 0,

its fixed-step RK4 integration, the auxiliary piecewise-frozen SDE whose
grid points mirror the constant-stepsize momentum iterates, and the
small-stepsize L2 distance estimate between the discrete iterates and the
ODE trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._csv import write_csv
from .optimizers import StepSchedule, run_ensemble
from .problems import NoiseModel, Objective
from .seeding import rng_for

__all__ = [
    "OdeParams",
    "OdeSolution",
    "ode_integrate",
    "ode_rate_check",
    "sde_integrate",
    "sde_sample_paths",
    "sgdm_warm_start",
    "l2_limit_estimate",
]


@dataclass(frozen=True)
class OdeParams:
    """Damping exponent pair (p, alpha) and integration window [T0, T].

    The rate and monotonicity guarantees require alpha <= 2 and
    p + alpha >= 2; the main momentum limit is (p, alpha) = (1, 3/2).
    The system is singular at t = 0, so T0 must be positive.
    """

    p: float = 1.0
    alpha: float = 1.5
    T0: float = 1.0
    T: float = 10.0
    dt: float | None = None  # default 1e-3 * T0

    def __post_init__(self):
        if self.T0 <= 0:
            raise ValueError("T0 must be positive (the system is singular at t=0)")
        if self.T <= self.T0:
            raise ValueError("T must exceed T0")
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive")

    @property
    def step(self) -> float:
        return self.dt if self.dt is not None else 1e-3 * self.T0

    def rate_hypotheses_hold(self) -> bool:
        return self.alpha <= 2.0 and self.p + self.alpha >= 2.0


@dataclass
class OdeSolution:
    t: np.ndarray  # (n,), strictly increasing from T0 to T
    X: np.ndarray  # (n, d)
    V: np.ndarray  # (n, d)
    energy: np.ndarray  # (n,)
    params: OdeParams

    def to_csv(self, path, obj: Objective) -> None:
        cols = np.column_stack([self.t, obj.f_gap(self.X), self.energy])
        write_csv(path, cols, "t,f_gap,energy")


def ode_integrate(
    obj: Objective, params: OdeParams, X0: np.ndarray, V0: np.ndarray
) -> OdeSolution:
    """Classical fixed-step RK4 on the first-order system (X' = V,
    V' = -(p+1)/t V - (p+1)/t^alpha grad f(X)), recording the continuous
    energy at every grid point."""
    p, alpha = params.p, params.alpha
    dt = params.step
    n_steps = int(round((params.T - params.T0) / dt))
    t_grid = params.T0 + dt * np.arange(n_steps + 1)
    X = np.empty((n_steps + 1, obj.dim))
    V = np.empty((n_steps + 1, obj.dim))
    energy = np.empty(n_steps + 1)
    x = np.asarray(X0, dtype=float).copy()
    v = np.asarray(V0, dtype=float).copy()
    grad = obj.grad
    c = p + 1.0
    xstar = obj.xstar

    def acc(t, x, v):
        return -(c / t) * v - (c / t**alpha) * grad(x)

    for i in range(n_steps + 1):
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(v)):
            raise FloatingPointError(f"ODE state became non-finite at t={t_grid[i]:.6g}")
        X[i], V[i] = x, v
        t = t_grid[i]
        w = p * x + t * v - p * xstar
        energy[i] = w @ w + 2.0 * c * t ** (2.0 - alpha) * obj.f_gap(x)
        if i == n_steps:
            break
        k1x = v
        k1v = acc(t, x, v)
        k2x = v + 0.5 * dt * k1v
        k2v = acc(t + 0.5 * dt, x + 0.5 * dt * k1x, k2x)
        k3x = v + 0.5 * dt * k2v
        k3v = acc(t + 0.5 * dt, x + 0.5 * dt * k2x, k3x)
        k4x = v + dt * k3v
        k4v = acc(t + dt, x + dt * k3x, k4x)
        x = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        v = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return OdeSolution(t=t_grid, X=X, V=V, energy=energy, params=params)


def ode_rate_check(
    sol: OdeSolution, obj: Objective, params: OdeParams, energy_tol: float = 1e-8
) -> dict:
    """Check the two continuous-time guarantees along the integrated grid:
    the energy is non-increasing (within energy_tol * E(T0) per step) and

        f(X(t)) - f* <= E(T0) / (2 (p+1) t^(2-alpha))

    holds at every grid point. Reports the first violating grid point."""
    if not params.rate_hypotheses_hold():
        raise ValueError("rate check requires alpha <= 2 and p + alpha >= 2")
    e0 = sol.energy[0]
    increases = np.diff(sol.energy)
    max_increase = float(np.max(increases)) if len(increases) else 0.0
    mono_ok = max_increase <= energy_tol * max(e0, 1e-300)
    bound = e0 / (2.0 * (params.p + 1.0) * sol.t ** (2.0 - params.alpha))
    f_gap = obj.f_gap(sol.X)
    viol = np.where(f_gap > bound)[0]
    report = {
        "energy_T0": float(e0),
        "max_energy_increase": max_increase,
        "energy_monotone": bool(mono_ok),
        "rate_bound_holds": bool(len(viol) == 0),
        "first_violation_t": float(sol.t[viol[0]]) if len(viol) else None,
        "passed": bool(mono_ok and len(viol) == 0),
    }
    return report


def _grid_indices(eta: float, T0: float, T: float) -> tuple[int, int]:
    # integer-part convention for T0/eta and T/eta
    k0 = int(np.floor(T0 / eta + 1e-9))
    kT = int(np.floor(T / eta + 1e-9))
    if k0 < 1:
        raise ValueError("T0/eta must be at least 1")
    return k0, kT


def sde_integrate(
    obj: Objective,
    eta: float,
    T0: float,
    T: float,
    seed,
    x0: np.ndarray,
    v0: np.ndarray,
    noise_scale: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample one path of the auxiliary SDE on the grid t_k = k eta.

    On each interval [t_k, t_{k+1}) the drift is frozen at t_k, so the
    update is exact (no inner discretization):

        X(t_{k+1}) = X(t_k) + eta V(t_k)
        V(t_{k+1}) = V(t_k) - (2 eta / t_k) V(t_k)
                     - (2 eta / t_k^{3/2}) grad f(X(t_k))
                     - (2 sqrt(eta) / t_k^{3/2}) dW_k,   dW_k ~ N(0, eta I).

    Returns (t grid, X samples, V samples). ``noise_scale`` = 0 gives the
    deterministic frozen-coefficient recursion.
    """
    t, X, V = sde_sample_paths(
        obj, eta, T0, T, 1, seed, x0, v0, noise_scale=noise_scale
    )
    return t, X[:, 0, :], V[:, 0, :]


def sde_sample_paths(
    obj: Objective,
    eta: float,
    T0: float,
    T: float,
    n_paths: int,
    master_seed,
    x0: np.ndarray,
    v0: np.ndarray,
    noise_scale: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`sde_integrate` over independently seeded paths."""
    k0, kT = _grid_indices(eta, T0, T)
    n = kT - k0
    d = obj.dim
    t_grid = eta * np.arange(k0, kT + 1)
    X = np.empty((n + 1, n_paths, d))
    V = np.empty((n + 1, n_paths, d))
    X[0] = np.broadcast_to(np.asarray(x0, dtype=float), (n_paths, d))
    V[0] = np.broadcast_to(np.asarray(v0, dtype=float), (n_paths, d))
    rngs = [rng_for(master_seed, i) for i in range(n_paths)]
    sq = np.sqrt(eta)
    for j in range(n):
        tk = t_grid[j]
        xk, vk = X[j], V[j]
        if noise_scale == 0.0:
            dw = 0.0
        else:
            dw = np.empty((n_paths, d))
            for i, rng in enumerate(rngs):
                dw[i] = sq * rng.standard_normal(d)
            dw *= noise_scale
        X[j + 1] = xk + eta * vk
        V[j + 1] = (
            vk
            - (2.0 * eta / tk) * vk
            - (2.0 * eta / tk**1.5) * obj.grad(xk)
            - (2.0 * sq / tk**1.5) * dw
        )
    return t_grid, X, V


def sgdm_warm_start(
    obj: Objective, eta: float, k_stop: int, x0: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic constant-stepsize momentum warm-up from x_0 = x_1.

    Returns (x_{k_stop-1}, x_{k_stop}, v_{k_stop}) with the discrete
    velocity v_k = (x_k - x_{k-1}) / eta, providing the shared initial
    condition for continuous-discrete comparisons.
    """
    x_prev = np.asarray(x0, dtype=float).copy()
    x_cur = x_prev.copy()
    for k in range(1, k_stop):
        g = obj.grad(x_cur)
        x_next = (
            x_cur
            + (k / (k + 2.0)) * (x_cur - x_prev)
            - (2.0 * np.sqrt(eta) / ((k + 2.0) * np.sqrt(k))) * g
        )
        x_prev, x_cur = x_cur, x_next
    return x_prev, x_cur, (x_cur - x_prev) / eta


def l2_limit_estimate(
    obj: Objective,
    eta_list,
    T0: float,
    T: float,
    M: int,
    seed: int,
    x0: np.ndarray | None = None,
    noisy: bool = True,
    dt: float = 1e-3,
) -> list[dict]:
    """Monte-Carlo table of E||x_{T/eta} - X(T)||^2 across a stepsize grid.

    For each eta: a deterministic warm-up run supplies the shared initial
    condition (X(T0), V(T0)) = (x_{T0/eta}, v_{T0/eta}); the ODE is
    integrated once; M momentum continuations with unit Gaussian gradient
    noise run to T/eta. Rows carry the mean squared distance with its
    standard error.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    x0 = np.ones(obj.dim) if x0 is None else np.asarray(x0, dtype=float)
    rows = []
    for j, eta in enumerate(eta_list):
        k0, kT = _grid_indices(eta, T0, T)
        if kT - k0 < 10:
            raise ValueError(
                f"eta={eta:g} too large: only {kT - k0} discrete steps in [{T0:g}, {T:g}]"
            )
        n = (T - T0) / eta
        if abs(n - round(n)) > 1e-9 * max(1.0, n):
            raise ValueError(
                f"eta={eta:g} does not divide T - T0 = {T - T0:g} ({n:.6g} steps)"
            )
        x_prev, x_cur, v0 = sgdm_warm_start(obj, eta, k0, x0)
        params = OdeParams(p=1.0, alpha=1.5, T0=k0 * eta, T=kT * eta, dt=dt)
        sol = ode_integrate(obj, params, x_cur, v0)
        XT = sol.X[-1]
        noise = NoiseModel.gaussian(obj.dim, 1.0 if noisy else 0.0)
        sched = StepSchedule(kind="constant", scale=eta)
        sub_seed = int(np.random.SeedSequence(entropy=(int(seed), j)).generate_state(1)[0])
        tr = run_ensemble(
            obj, noise, sched, K=kT - k0, M=M, master_seed=sub_seed,
            x0=x_cur, x_prev0=x_prev, k_start=k0, record=(),
        )
        sq = np.sum((tr.x_cur_final - XT) ** 2, axis=1)
        rows.append(
            {
                "eta": float(eta),
                "mean_sq_dist": float(np.mean(sq)),
                "stderr": float(np.std(sq, ddof=1) / np.sqrt(M)) if M > 1 else 0.0,
                "runs": M,
            }
        )
    return rows
