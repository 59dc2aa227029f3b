"""Continuous-time side: the generalized damped-gradient ODE

    Xdd + (p+1)/t Xd + (p+1)/t^alpha grad f(X) = 0,

its fixed-step RK4 integration, the auxiliary piecewise-frozen SDE whose
grid points mirror the constant-stepsize momentum iterates, and the
small-stepsize L2 distance estimate between the discrete iterates and the
ODE trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csv import write_csv
from .lyapunov import continuous_energy
from .optimizers import StepSchedule, run_ensemble
from .problems import NoiseModel, Objective
from .seeding import rng_for, rngs_for  # noqa: F401 (perfbench's tracer patches rng_for here)

__all__ = [
    "OdeParams",
    "OdeSolution",
    "ode_integrate",
    "ode_rate_check",
    "sde_sample_paths",
    "sgdm_warm_start",
    "l2_limit_estimate",
    "ode_compare",
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
    X: np.ndarray  # (n, d), or (n, B, d) for a batch of initial conditions
    V: np.ndarray  # like X
    energy: np.ndarray  # (n,), or (n, B)
    params: OdeParams

    def to_csv(self, path, obj: Objective) -> None:
        cols = np.column_stack([self.t, obj.f_gap(self.X), self.energy])
        write_csv(path, cols, "t,f_gap,energy")


# RK4 steps between two finiteness scans of the recorded path
FINITE_CHECK_BLOCK = 256


def _exact_steps(span: float, step: float, what: str) -> int:
    """The number of steps of size ``step`` in ``span``; raises unless it is
    an integer to within a relative 1e-9, so a grid always ends on its
    window's right end."""
    n = span / step
    if abs(n - round(n)) > 1e-9 * max(1.0, n):
        raise ValueError(f"{what} ({n:.6g} steps)")
    return int(round(n))


def _rk4_maps(t: np.ndarray, h: float, p: float, alpha: float):
    """Classical RK4 for this ODE as per-step linear maps.

    Given the gradients g1..g4 at the four stage points of step j, every
    stage point and the next state are linear combinations of
    [x, v, g1, g2, g3, g4] whose weights depend only on t_j, h, p and alpha.
    Returns the weights of the stage points x2, x3, x4 over the first 2, 3
    and 4 basis vectors ((n, 1, 2), (n, 1, 3), (n, 1, 4)) and of the next
    (x, v) over all six ((n, 2, 6)).
    """
    n = len(t) - 1
    c = p + 1.0
    t0, tm, t1 = t[:-1], t[:-1] + 0.5 * h, t[1:]
    basis = np.broadcast_to(np.eye(6), (n, 6, 6))
    x, v, g = basis[:, 0], basis[:, 1], basis[:, 2:]

    def v_dot(tk, vk, k):  # V' = -(p+1)/t V - (p+1)/t^alpha grad f(X), with g_k
        return -(c / tk)[:, None] * vk - (c / tk**alpha)[:, None] * g[:, k]

    hh = 0.5 * h
    k1x, k1v = v, v_dot(t0, v, 0)
    k2x = v + hh * k1v
    k2v = v_dot(tm, k2x, 1)
    k3x = v + hh * k2v
    k3v = v_dot(tm, k3x, 2)
    k4x = v + h * k3v
    k4v = v_dot(t1, k4x, 3)
    x2, x3, x4 = x + hh * k1x, x + hh * k2x, x + h * k3x
    x_next = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    v_next = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return (np.ascontiguousarray(x2[:, None, :2]), np.ascontiguousarray(x3[:, None, :3]),
            np.ascontiguousarray(x4[:, None, :4]), np.stack([x_next, v_next], axis=1))


def ode_integrate(
    obj: Objective, params: OdeParams, X0: np.ndarray, V0: np.ndarray
) -> OdeSolution:
    """Classical fixed-step RK4 on the first-order system (X' = V,
    V' = -(p+1)/t V - (p+1)/t^alpha grad f(X)), with the continuous energy
    at every grid point.

    ``X0``/``V0`` are ``(d,)``, or ``(B, d)`` for B independent initial
    conditions integrated together; ``X``/``V`` are then ``(n+1, B, d)``
    and ``energy`` is ``(n+1, B)``. ``dt`` must divide ``T - T0``. Raises
    ``FloatingPointError`` naming the first grid time whose state is not
    finite.
    """
    p, alpha = params.p, params.alpha
    dt = params.step
    n_steps = _exact_steps(
        params.T - params.T0, dt,
        f"dt={dt:g} does not divide the window [{params.T0:g}, {params.T:g}]",
    )
    x0 = np.asarray(X0, dtype=float)
    v0 = np.asarray(V0, dtype=float)
    shape = np.broadcast_shapes(x0.shape, v0.shape)
    if len(shape) not in (1, 2) or shape[-1] != obj.dim:
        raise ValueError(f"X0/V0 must have shape ({obj.dim},) or (B, {obj.dim}), got {shape}")
    t_grid = params.T0 + dt * np.arange(n_steps + 1)
    to_x2, to_x3, to_x4, to_next = _rk4_maps(t_grid, dt, p, alpha)

    # path[i] holds (x, v) at t_i; work rows are [x, v, g1, g2, g3, g4]
    m = math.prod(shape)
    path = np.empty((n_steps + 1, 2, m))
    work = np.empty((6, m))
    rows = [r.reshape(shape) for r in work]
    rows[0][...], rows[1][...] = x0, v0
    path[0] = work[:2]
    stage = np.empty((1, m))
    x_stage = stage.reshape(shape)
    grad = obj.grad
    work2, work3, work4 = work[:2], work[:3], work[:4]
    checked = 0  # path rows [0, checked) are known to be finite
    # ndarray.dot with out= is the matmul without the gufunc's dispatch
    steps = zip(to_x2, to_x3, to_x4, to_next, path[1:])
    for j, (a2, a3, a4, a_next, nxt) in enumerate(steps):
        rows[2][...] = grad(rows[0])
        a2.dot(work2, out=stage)
        rows[3][...] = grad(x_stage)
        a3.dot(work3, out=stage)
        rows[4][...] = grad(x_stage)
        a4.dot(work4, out=stage)
        rows[5][...] = grad(x_stage)
        a_next.dot(work, out=nxt)
        work2[...] = nxt
        if j + 1 - checked >= FINITE_CHECK_BLOCK:
            checked = _check_finite(path, t_grid, checked, j + 2)
    _check_finite(path, t_grid, checked, n_steps + 1)

    X = path[:, 0].reshape((n_steps + 1,) + shape)
    V = path[:, 1].reshape((n_steps + 1,) + shape)
    t_col = t_grid.reshape((n_steps + 1,) + (1,) * (len(shape) - 1))
    energy = continuous_energy(X, V, t_col, p, alpha, obj.f_gap(X), obj.xstar)
    return OdeSolution(t=t_grid, X=X, V=V, energy=energy, params=params)


def _check_finite(path: np.ndarray, t_grid: np.ndarray, lo: int, hi: int) -> int:
    """Raise if a state among ``path[lo:hi]`` is not finite, naming the
    first such grid time; returns ``hi``."""
    ok = np.isfinite(path[lo:hi]).all(axis=(1, 2))
    if not ok.all():
        t = t_grid[lo + int(np.argmin(ok))]
        raise FloatingPointError(f"ODE state became non-finite at t={t:.6g}")
    return hi


def _require_rate_hypotheses(params: OdeParams) -> None:
    if not params.rate_hypotheses_hold():
        raise ValueError("rate check requires alpha <= 2 and p + alpha >= 2")


def ode_rate_check(
    sol: OdeSolution, obj: Objective, params: OdeParams, energy_tol: float = 1e-8
) -> dict:
    """Check the two continuous-time guarantees along the integrated grid:
    the energy is non-increasing (within energy_tol * E(T0) per step) and

        f(X(t)) - f* <= E(T0) / (2 (p+1) t^(2-alpha))

    holds at every grid point. Reports the first violating grid point."""
    _require_rate_hypotheses(params)
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


# SDE steps whose noise each path draws in one generator call
SDE_NOISE_BLOCK = 32


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
    """Sample ``n_paths`` paths of the auxiliary SDE on the grid t_k = k eta.

    The drift is frozen at t_k on [t_k, t_{k+1}), so each update is exact:

        X(t_{k+1}) = X(t_k) + eta V(t_k)
        V(t_{k+1}) = V(t_k) - (2 eta / t_k) V(t_k) - (2 eta / t_k^{3/2}) grad f(X(t_k))
                     - (2 sqrt(eta) / t_k^{3/2}) dW_k,   dW_k ~ N(0, eta I).

    Returns (t grid, X, V), X and V of shape (steps + 1, n_paths, d);
    ``noise_scale`` = 0 gives the deterministic frozen-coefficient recursion.
    Path i draws its increments from ``rng_for(master_seed, i)`` in blocks
    of ``SDE_NOISE_BLOCK`` steps, the same stream as one draw per step; the
    generators are built in one pass by ``rngs_for``, and none are built
    when ``noise_scale`` is 0.
    Raises ``ValueError`` unless ``T0`` and ``T`` both lie on the grid
    t_k = k eta, so the paths cover exactly [T0, T]."""
    k0 = _exact_steps(T0, eta, f"eta={eta:g} does not divide T0={T0:g}")
    kT = _exact_steps(T, eta, f"eta={eta:g} does not divide T={T:g}")
    if k0 < 1:
        raise ValueError("T0/eta must be at least 1")
    n = kT - k0
    d = obj.dim
    t_grid = eta * np.arange(k0, kT + 1)
    X = np.empty((n + 1, n_paths, d))
    V = np.empty((n + 1, n_paths, d))
    X[0] = np.broadcast_to(np.asarray(x0, dtype=float), (n_paths, d))
    V[0] = np.broadcast_to(np.asarray(v0, dtype=float), (n_paths, d))
    rngs = rngs_for(master_seed, n_paths) if noise_scale != 0.0 else []
    sq = math.sqrt(eta)
    # the frozen coefficients of each step, as Python floats
    t_steps = t_grid[:-1].tolist()
    c_v = [2.0 * eta / tk for tk in t_steps]
    c_g = [2.0 * eta / tk**1.5 for tk in t_steps]
    c_w = [2.0 * sq / tk**1.5 for tk in t_steps]
    dw_block = np.empty((SDE_NOISE_BLOCK, n_paths, d))
    tmp = np.empty((n_paths, d))
    for j in range(n):
        xk, vk, x_next, v_next = X[j], V[j], X[j + 1], V[j + 1]
        # in the docstring's order: X' = x + eta v,
        # V' = ((v - c_v v) - c_g grad f(x)) - c_w dW
        np.multiply(vk, eta, out=x_next)
        x_next += xk
        np.multiply(vk, c_v[j], out=v_next)
        np.subtract(vk, v_next, out=v_next)
        np.multiply(obj.grad(xk), c_g[j], out=tmp)
        v_next -= tmp
        if noise_scale != 0.0:  # else dW = 0, and v - c_w * 0 is v
            b = j % SDE_NOISE_BLOCK
            if b == 0:
                # each path's next steps from its own stream, in step order
                nb = min(SDE_NOISE_BLOCK, n - j)
                for i, rng in enumerate(rngs):
                    dw_block[:nb, i] = rng.standard_normal((nb, d))
                dw_block[:nb] *= sq
                dw_block[:nb] *= noise_scale
            np.multiply(dw_block[b], c_w[j], out=tmp)
            v_next -= tmp
    return t_grid, X, V


def sgdm_warm_start(
    obj: Objective, eta: float, k_stop: int, x0: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic constant-stepsize momentum warm-up from x_0 = x_1.

    Returns (x_{k_stop-1}, x_{k_stop}, v_{k_stop}) with the discrete
    velocity v_k = (x_k - x_{k-1}) / eta, providing the shared initial
    condition for continuous-discrete comparisons. The steps are one
    noiseless :func:`~sgdmlab.optimizers.run_ensemble` call with M = 1;
    k_stop = 1 takes none and returns (x0, x0, 0).
    """
    x0 = np.asarray(x0, dtype=float)
    if k_stop <= 1:
        return x0.copy(), x0.copy(), np.zeros_like(x0)
    tr = run_ensemble(obj, NoiseModel.noiseless(obj.dim),
                      StepSchedule(kind="constant", scale=eta), K=k_stop - 1, M=1,
                      master_seed=0, x0=x0, record=())
    x_prev, x_cur = tr.x_prev_final[0], tr.x_cur_final[0]
    return x_prev, x_cur, (x_cur - x_prev) / eta


def _integrate_starts(obj: Objective, starts) -> list[tuple[OdeSolution, int]]:
    """Integrate every ODE start ``(params, X0, V0)`` of ``starts`` with one
    batched :func:`ode_integrate` call per distinct (p, alpha, T0, T, dt).
    Returns, per start, the solution of its batch and its column there."""
    groups: dict[tuple, list[int]] = {}
    for j, (params, _, _) in enumerate(starts):
        key = (params.p, params.alpha, params.T0, params.T, params.step)
        groups.setdefault(key, []).append(j)
    out = [None] * len(starts)
    for members in groups.values():
        sol = ode_integrate(obj, starts[members[0]][0],
                            np.stack([starts[j][1] for j in members]),
                            np.stack([starts[j][2] for j in members]))
        for b, j in enumerate(members):
            out[j] = (sol, b)
    return out


def _l2_starts(obj: Objective, eta_list, T0: float, T: float, M: int, x0: np.ndarray,
               dt: float):
    """Per eta: the discrete window and warm start (k0, kT, x_{k0-1}, x_{k0}),
    and the ODE start (params on [k0 eta, kT eta], x_{k0}, v_{k0}) that the
    L2 table of M runs per eta measures against."""
    if M < 1:
        raise ValueError("M must be >= 1")
    runs, odes = [], []
    for eta in eta_list:
        k0, kT = _grid_indices(eta, T0, T)
        if kT - k0 < 10:
            raise ValueError(
                f"eta={eta:g} too large: only {kT - k0} discrete steps in [{T0:g}, {T:g}]"
            )
        _exact_steps(T - T0, eta, f"eta={eta:g} does not divide T - T0 = {T - T0:g}")
        x_prev, x_cur, v = sgdm_warm_start(obj, eta, k0, x0)
        runs.append((k0, kT, x_prev, x_cur))
        odes.append((OdeParams(p=1.0, alpha=1.5, T0=k0 * eta, T=kT * eta, dt=dt), x_cur, v))
    return runs, odes


def _l2_rows(obj: Objective, eta_list, runs, XT, M: int, seed: int, noisy: bool) -> list[dict]:
    """The L2 table: per eta, M noisy continuations of its warm start to
    T/eta and their squared distances to the ODE state ``XT[j]``."""
    noise = NoiseModel.gaussian(obj.dim, 1.0 if noisy else 0.0)
    rows = []
    for j, (eta, (k0, kT, x_prev, x_cur)) in enumerate(zip(eta_list, runs)):
        sched = StepSchedule(kind="constant", scale=eta)
        sub_seed = int(np.random.SeedSequence(entropy=(int(seed), j)).generate_state(1)[0])
        tr = run_ensemble(
            obj, noise, sched, K=kT - k0, M=M, master_seed=sub_seed,
            x0=x_cur, x_prev0=x_prev, k_start=k0, record=(),
        )
        sq = np.sum((tr.x_cur_final - XT[j]) ** 2, axis=1)
        rows.append(
            {
                "eta": float(eta),
                "mean_sq_dist": float(np.mean(sq)),
                "stderr": float(np.std(sq, ddof=1) / np.sqrt(M)) if M > 1 else 0.0,
                "runs": M,
            }
        )
    return rows


def l2_limit_estimate(
    obj: Objective,
    eta_list,
    T0: float,
    T: float,
    M: int,
    seed: int,
    noisy: bool = True,
    dt: float = 1e-3,
) -> list[dict]:
    """Monte-Carlo table of E||x_{T/eta} - X(T)||^2 across a stepsize grid.

    For each eta: a deterministic warm-up run from x_0 = (1, ..., 1)
    supplies the shared initial condition (X(T0), V(T0)) =
    (x_{T0/eta}, v_{T0/eta}); the ODE is integrated once (the etas whose
    windows coincide in one batched call); M momentum continuations with
    unit Gaussian gradient noise run to T/eta. Rows carry the mean squared
    distance with its standard error.
    """
    runs, odes = _l2_starts(obj, eta_list, T0, T, M, np.ones(obj.dim), dt)
    XT = [sol.X[-1, b] for sol, b in _integrate_starts(obj, odes)]
    return _l2_rows(obj, eta_list, runs, XT, M, seed, noisy)


def ode_compare(
    obj: Objective,
    params: OdeParams,
    eta_list,
    M: int,
    seed: int,
) -> tuple[OdeSolution, list[dict]]:
    """The ``ode-compare`` experiment: the ODE of ``params`` from (x0, 0),
    x0 = (1, ..., 1), for :func:`ode_rate_check`, and the
    :func:`l2_limit_estimate` table from the same x0 on
    [params.T0, params.T] with the same step.

    Every ODE start goes through one grouping, one RK4 pass per distinct
    (p, alpha, T0, T): with (p, alpha) = (1, 3/2) and every eta's window on
    [T0, T], the (x0, 0) start and the table's warm starts are one batch.
    Raises ``ValueError`` before any integration or run if ``params``
    fails the rate hypotheses, ``eta_list`` is empty or M < 1. Returns the
    (x0, 0) solution, with ``X``/``V`` of shape (n+1, d), and the table rows.
    """
    _require_rate_hypotheses(params)
    if len(eta_list) == 0:
        raise ValueError("the L2 table needs at least one eta")
    x0 = np.ones(obj.dim)
    runs, odes = _l2_starts(obj, eta_list, params.T0, params.T, M, x0, params.step)
    (sol, b), *table = _integrate_starts(obj, [(params, x0, np.zeros(obj.dim))] + odes)
    XT = [s.X[-1, c] for s, c in table]
    column = OdeSolution(t=sol.t, X=sol.X[:, b], V=sol.V[:, b], energy=sol.energy[:, b],
                         params=params)
    return column, _l2_rows(obj, eta_list, runs, XT, M, seed, noisy=True)
