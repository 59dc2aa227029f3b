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
from .optimizers import GRID_CAP, StepSchedule, _NoiseFill, _nonfinite, run_ensemble
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
    dt: float = 1e-3

    def __post_init__(self):
        if self.T0 <= 0:
            raise ValueError("T0 must be positive (the system is singular at t=0)")
        if self.T <= self.T0:
            raise ValueError("T must exceed T0")
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    def rate_hypotheses_hold(self) -> bool:
        return self.alpha <= 2.0 and self.p + self.alpha >= 2.0


@dataclass
class OdeSolution:
    t: np.ndarray  # (n,), strictly increasing from T0 to T
    X: np.ndarray  # (n, d), or (n, B, d) for a batch of initial conditions
    f_gap: np.ndarray  # f(X) - f*: (n,), or (n, B)
    energy: np.ndarray  # like f_gap

    def to_csv(self, path) -> None:
        write_csv(path, np.column_stack([self.t, self.f_gap, self.energy]), "t,f_gap,energy")


# RK4 steps between two finiteness scans, and the steps ode_integrate holds at once
FINITE_CHECK_BLOCK = 256


def _exact_steps(span: float, step: float, span_name: str, step_name: str) -> int:
    """The number of steps of size ``step`` in ``span``; raises unless it is
    a positive integer to within a relative 1e-9, so a grid always ends on
    its window's right end."""
    n = span / step
    if not math.isfinite(n) or abs(n - round(n)) > 1e-9 * max(1.0, n):
        raise ValueError(f"{step_name} does not divide {span_name} ({n:.6g} steps)")
    if round(n) < 1:
        raise ValueError(f"{span_name} is shorter than one step of {step_name} ({n:.6g} steps)")
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


def _grad_steps(grad, shape):
    """RK4 steps through ``grad``, four calls per step: ``steps(maps, block)``
    fills block[1:] of a ``(rows, 2, m)`` block of (x, v) from block[0] with
    the steps of :func:`_rk4_maps`'s ``maps``."""
    m = math.prod(shape)
    # work rows are [x, v, g1, g2, g3, g4]
    work = np.empty((6, m))
    rows = [r.reshape(shape) for r in work]
    stage = np.empty((1, m))
    x_stage = stage.reshape(shape)
    work2, work3, work4 = work[:2], work[:3], work[:4]

    def steps(maps, block):
        work2[...] = block[0]
        # ndarray.dot with out= is the matmul without the gufunc's dispatch
        for a2, a3, a4, a_next, nxt in zip(*maps, block[1:]):
            rows[2][...] = grad(rows[0])
            a2.dot(work2, out=stage)
            rows[3][...] = grad(x_stage)
            a3.dot(work3, out=stage)
            rows[4][...] = grad(x_stage)
            a4.dot(work4, out=stage)
            rows[5][...] = grad(x_stage)
            a_next.dot(work, out=nxt)
            work2[...] = nxt

    return steps


def _mode_maps(maps, lam: np.ndarray) -> np.ndarray:
    """The steps of :func:`_rk4_maps`'s ``maps`` on the eigenmodes of a
    quadratic, where a stage's gradient is lam times its x: ``M[r, c, j, i]``
    is the weight of (x, v)[c] at step j in (x, v)[r] after it, for the
    mode of eigenvalue ``lam[i]``. Returns M of shape (2, 2, n, d)."""
    *stages, a_next = maps
    n, d = len(a_next), len(lam)
    # basis[j, k, c, i]: the weight of (x, v)[c] in [x, v, g1, g2, g3, g4][k] at step j
    basis = np.zeros((n, 6, 2, d))
    basis[:, 0, 0] = basis[:, 1, 1] = 1.0
    basis[:, 2, 0] = lam
    flat = basis.reshape(n, 6, 2 * d)
    for k, a in enumerate(stages, 3):  # g_k = lam x_k
        basis[:, k] = lam * (a @ flat[:, : a.shape[-1]]).reshape(n, 2, d)
    return np.ascontiguousarray((a_next @ flat).reshape(n, 2, 2, d).transpose(1, 2, 0, 3))


def _prefix_products(M: np.ndarray) -> np.ndarray:
    """P[:, :, j] = M_j ... M_1 M_0 for the 2x2 maps ``M[:, :, j]`` of
    :func:`_mode_maps`, in place, by log2(n) doubling rounds (Hillis and
    Steele's scan): after the round of shift s, P_j holds the product of
    the 2s maps ending at j."""
    s = 1
    while s < M.shape[2]:
        left, right = M[:, :, s:], M[:, :, :-s]
        M[:, :, s:] = left[:, :1] * right[:1] + left[:, 1:] * right[1:]
        s *= 2
    return M


def _mode_steps(hessian, xstar, start, d):
    """RK4 steps on a quadratic, mode by mode and without a ``grad`` call:
    ``steps(maps, block)`` fills block[1:] like :func:`_grad_steps`'s, from
    the modes of the state ``start`` (a ``(2, m)`` (x, v) row), which it
    rotates into the eigenbasis of ``hessian`` once and carries there."""
    lam, Q = np.linalg.eigh(hessian)
    x, v = start.reshape(2, -1, d)
    z = np.stack([(x - xstar) @ Q, v @ Q])  # (2, B, d)

    def steps(maps, block):
        P = _prefix_products(_mode_maps(maps, lam))
        out = block[1:].reshape(len(block) - 1, 2, -1, d)
        modes = [P[r, 0, :, None] * z[0] + P[r, 1, :, None] * z[1] for r in (0, 1)]
        for r in (0, 1):
            np.matmul(modes[r], Q.T, out=out[:, r])
        out[:, 0] += xstar
        z[0], z[1] = modes[0][-1], modes[1][-1]

    return steps


def ode_integrate(
    obj: Objective, params: OdeParams, X0: np.ndarray, V0: np.ndarray
) -> OdeSolution:
    """Classical fixed-step RK4 on the first-order system (X' = V,
    V' = -(p+1)/t V - (p+1)/t^alpha grad f(X)), with f(X) - f* and the
    continuous energy at every grid point, a block of
    ``FINITE_CHECK_BLOCK`` steps at a time.

    ``X0``/``V0`` are ``(d,)``, or ``(B, d)`` for B independent initial
    conditions integrated together; ``X`` is then ``(n+1, B, d)`` and
    ``f_gap`` and ``energy`` are ``(n+1, B)``. ``dt`` must divide
    ``T - T0``. Raises ``ValueError`` if the result would keep more than
    ``GRID_CAP`` values, and ``FloatingPointError`` naming the first
    grid time whose state is not finite and the batch columns it hit.

    With ``obj.hessian`` set, ``grad`` is never called: each eigenmode of
    the Hessian is a scalar linear ODE, so every RK4 step is a 2x2 map on
    the mode's (x, v), built from the same :func:`_rk4_maps` weights. A
    block's maps are composed by a doubling scan, and its states rotated
    back to the original coordinates; row 0 is ``X0``/``V0`` as given.
    The two paths agree to rounding, except where a state nears the float
    maximum: the grad path overflows in a stage sum a step or two before
    the state itself does (t = 35.7 against 35.9 on a scalar quadratic of
    eigenvalue 800 at alpha = 0, dt = 0.1).
    """
    p, alpha, dt = params.p, params.alpha, params.dt
    n_steps = _exact_steps(params.T - params.T0, dt,
                           f"the window [{params.T0:g}, {params.T:g}]", f"dt={dt:g}")
    shape = np.broadcast_shapes(np.shape(X0), np.shape(V0))
    if len(shape) not in (1, 2) or shape[-1] != obj.dim:
        raise ValueError(f"X0/V0 must have shape ({obj.dim},) or (B, {obj.dim}), got {shape}")
    if (n_steps + 1) * math.prod(shape[:-1]) * (shape[-1] + 2) > GRID_CAP:
        raise ValueError(f"{n_steps} RK4 steps would keep more than {GRID_CAP} values")
    t_grid = params.T0 + dt * np.arange(n_steps + 1)
    X = np.empty((n_steps + 1,) + shape)
    f_gap, energy = np.empty((2,) + X.shape[:-1])
    # block[i] holds (x, v) at t_{lo+i}
    block = np.empty((FINITE_CHECK_BLOCK + 1, 2, math.prod(shape)))
    block[0, 0].reshape(shape)[...], block[0, 1].reshape(shape)[...] = X0, V0
    with np.errstate(over="ignore", invalid="ignore"):
        steps = (_grad_steps(obj.grad, shape) if obj.hessian is None
                 else _mode_steps(obj.hessian, obj.xstar, block[0], shape[-1]))
    for lo in range(0, n_steps, FINITE_CHECK_BLOCK):
        n = min(FINITE_CHECK_BLOCK, n_steps - lo)
        with np.errstate(over="ignore", invalid="ignore"):
            steps(_rk4_maps(t_grid[lo : lo + n + 1], dt, p, alpha), block[: n + 1])
            # the (rows, 2, B d) block as (rows, B, 2, d): a run is a batch column
            hit = _nonfinite(lo, lambda i: ("ODE state", f"t={t_grid[i]:.6g}"),
                             block[: n + 1].reshape(n + 1, 2, -1, shape[-1]).swapaxes(1, 2))
            if hit is not None:
                raise FloatingPointError(hit[1])
            s = min(lo, 1)  # row 0 is the previous block's last, except at t_0
            Xb, Vb = (block[s : n + 1, i].reshape((n + 1 - s,) + shape) for i in (0, 1))
            new = slice(lo + s, lo + n + 1)
            t_col = t_grid[new].reshape((-1,) + (1,) * (len(shape) - 1))
            X[new] = Xb
            f_gap[new] = gap = obj.f_gap(Xb)
            energy[new] = continuous_energy(Xb, Vb, t_col, p, alpha, gap, obj.xstar)
        block[0] = block[n]
    return OdeSolution(t=t_grid, X=X, f_gap=f_gap, energy=energy)


def _require_rate_hypotheses(params: OdeParams) -> None:
    if not params.rate_hypotheses_hold():
        raise ValueError("rate check requires alpha <= 2 and p + alpha >= 2")


def ode_rate_check(
    sol: OdeSolution, obj: Objective, params: OdeParams, energy_tol: float = 1e-8
) -> dict:
    """Check the two continuous-time guarantees along the integrated grid:
    the energy is non-increasing (within energy_tol * E(T0) per step) and

        f(X(t)) - f* <= E(T0) / (2 (p+1) t^(2-alpha))

    holds at every grid point. Reports the first violating grid point, the
    largest ratio of the gap to the bound and its t (nan where a bound of 0
    meets a gap of 0), and the t at which the energy rose the most above
    its previous grid point (None on a one-point grid).
    ``obj`` is unused: ``sol.f_gap`` holds f(X) - f*."""
    _require_rate_hypotheses(params)
    e0 = sol.energy[0]
    increases = np.diff(sol.energy)
    rise = int(np.argmax(increases)) if len(increases) else None  # into t[rise + 1]
    max_increase = 0.0 if rise is None else float(increases[rise])
    mono_ok = max_increase <= energy_tol * max(e0, 1e-300)
    bound = e0 / (2.0 * (params.p + 1.0) * sol.t ** (2.0 - params.alpha))
    viol = np.where(sol.f_gap > bound)[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = sol.f_gap / bound
    worst = int(np.argmax(ratio))
    return {
        "energy_T0": float(e0),
        "max_energy_increase": max_increase,
        "max_energy_increase_t": None if rise is None else float(sol.t[rise + 1]),
        "energy_monotone": bool(mono_ok),
        "rate_bound_holds": bool(len(viol) == 0),
        "first_violation_t": float(sol.t[viol[0]]) if len(viol) else None,
        "max_ratio": float(ratio[worst]),
        "max_ratio_t": float(sol.t[worst]),
        "passed": bool(mono_ok and len(viol) == 0),
    }


# SDE steps per block: one noise draw per path and one finiteness scan
SDE_BLOCK = 32


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

    Returns (t grid, X, V(T)), X of shape (steps + 1, n_paths, d) and V(T)
    of shape (n_paths, d); ``noise_scale`` = 0 gives the deterministic
    frozen-coefficient recursion. The paths step ``SDE_BLOCK`` steps at a
    time: path i draws the block's increments as one
    ``NoiseModel.gaussian(d, eta)`` sample batch from ``rng_for(master_seed,
    i)``, the same stream as one draw per step; the generators are built in
    one pass by ``rngs_for``, and none are built when ``noise_scale`` is 0.
    Raises ``ValueError`` unless eta is positive, T >= T0 and ``T0`` and
    ``T`` both lie on the grid t_k = k eta, k >= 1, so the paths cover
    exactly [T0, T], if T**1.5 overflows (above about 3.2e205) and if ``X``
    would keep more than ``GRID_CAP`` values;
    ``FloatingPointError`` names the first grid time whose X or V is not
    finite, and the paths it hit."""
    if not eta > 0:
        raise ValueError(f"eta must be positive (got eta={eta:g})")
    if T < T0:
        raise ValueError(f"the window [{T0:g}, {T:g}] ends before it starts (T < T0)")
    try:  # the coefficients' t_k**1.5 are Python floats, which raise on overflow
        float(T) ** 1.5
    except OverflowError:
        raise ValueError(f"T={T:g} is too large: T**1.5 overflows") from None
    k0 = _exact_steps(T0, eta, f"T0={T0:g}", f"eta={eta:g}")
    kT = _exact_steps(T, eta, f"T={T:g}", f"eta={eta:g}")
    n = kT - k0
    d = obj.dim
    if (n + 1) * (n_paths * d + 1) > GRID_CAP:
        raise ValueError(f"{n} SDE steps of {n_paths} paths would keep more than "
                         f"{GRID_CAP} values")
    t_grid = eta * np.arange(k0, kT + 1)
    X = np.empty((n + 1, n_paths, d))
    X[0] = np.broadcast_to(np.asarray(x0, dtype=float), (n_paths, d))
    # V[b] holds V at t_{lo+b} of the current block
    V = np.empty((SDE_BLOCK + 1, n_paths, d))
    V[0] = np.broadcast_to(np.asarray(v0, dtype=float), (n_paths, d))
    rngs = rngs_for(master_seed, n_paths) if noise_scale != 0.0 else []
    increment = NoiseModel.gaussian(d, eta)
    sq = math.sqrt(eta)
    dw = np.empty((SDE_BLOCK, n_paths, d))
    tmp = np.empty((n_paths, d))
    for lo in range(0, max(n, 1), SDE_BLOCK):
        m = min(SDE_BLOCK, n - lo)
        with np.errstate(over="ignore", invalid="ignore"):
            if noise_scale != 0.0:  # each path's increments from its own stream, in step order
                _NoiseFill(increment, rngs, dw[:m], helper=False).wait()
                dw[:m] *= noise_scale
            for b, tk in enumerate(t_grid[lo : lo + m].tolist()):
                xk, vk, x_next, v_next = X[lo + b], V[b], X[lo + b + 1], V[b + 1]
                # in the docstring's order, with its coefficients c_v, c_g, c_w at t_k:
                # X' = x + eta v, V' = ((v - c_v v) - c_g grad f(x)) - c_w dW
                np.multiply(vk, eta, out=x_next)
                x_next += xk
                np.multiply(vk, 2.0 * eta / tk, out=v_next)
                np.subtract(vk, v_next, out=v_next)
                np.multiply(obj.grad(xk), 2.0 * eta / tk**1.5, out=tmp)
                v_next -= tmp
                if noise_scale != 0.0:  # else dW = 0, and v - c_w * 0 is v
                    np.multiply(dw[b], 2.0 * sq / tk**1.5, out=tmp)
                    v_next -= tmp
            hit = _nonfinite(lo, lambda i: ("SDE state", f"t={t_grid[i]:.6g}"),
                             X[lo : lo + m + 1], V[: m + 1])
            if hit is not None:
                raise FloatingPointError(hit[1])
        V[0] = V[m]
    return t_grid, X, V[0].copy()


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
    tr.collect()
    x_prev, x_cur = tr.x_prev_final[0], tr.x_cur_final[0]
    return x_prev, x_cur, (x_cur - x_prev) / eta


def _integrate_starts(obj: Objective, starts) -> list[tuple[OdeSolution, int]]:
    """Integrate every ODE start ``(params, X0, V0)`` of ``starts`` with one
    batched :func:`ode_integrate` call per distinct (p, alpha, T0, T, dt).
    Returns, per start, the solution of its batch and its column there."""
    groups: dict[tuple, list[int]] = {}
    for j, (params, _, _) in enumerate(starts):
        key = (params.p, params.alpha, params.T0, params.T, params.dt)
        groups.setdefault(key, []).append(j)
    out = [None] * len(starts)
    for members in groups.values():
        sol = ode_integrate(obj, starts[members[0]][0],
                            np.stack([starts[j][1] for j in members]),
                            np.stack([starts[j][2] for j in members]))
        for b, j in enumerate(members):
            out[j] = (sol, b)
    return out


def l2_limit_estimate(
    obj: Objective,
    eta_list,
    T0: float,
    T: float,
    M: int,
    seed: int,
) -> list[dict]:
    """Monte-Carlo table of E||x_{T/eta} - X(T)||^2 across a stepsize grid:
    the table of :func:`ode_compare` on [T0, T] with RK4 step 1e-3.

    For each eta: a deterministic warm-up run from x_0 = (1, ..., 1)
    supplies the shared initial condition (X(T0), V(T0)) =
    (x_{T0/eta}, v_{T0/eta}); the ODE is integrated once (the etas whose
    windows coincide in one batched call); M momentum continuations with
    unit Gaussian gradient noise run to T/eta. Rows carry the mean squared
    distance with its standard error.
    """
    return ode_compare(obj, OdeParams(p=1.0, alpha=1.5, T0=T0, T=T), eta_list, M, seed)[1]


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
    (x0, 0) solution, with ``X`` of shape (n+1, d), and the table rows.
    """
    _require_rate_hypotheses(params)
    if len(eta_list) == 0:
        raise ValueError("the L2 table needs at least one eta")
    if M < 1:
        raise ValueError("M must be >= 1")
    T0, T = params.T0, params.T
    x0 = np.ones(obj.dim)
    runs, starts = [], [(params, x0, np.zeros(obj.dim))]
    for eta in eta_list:
        if not (eta > 0 and math.isfinite(T / eta)):  # T0 < T: T0/eta is finite too
            raise ValueError(f"eta must be positive with a finite T/eta (got eta={eta:g})")
        # integer-part convention for T0/eta and T/eta
        k0, kT = int(np.floor(T0 / eta + 1e-9)), int(np.floor(T / eta + 1e-9))
        if k0 < 1:
            raise ValueError("T0/eta must be at least 1")
        if kT - k0 < 10:
            raise ValueError(f"eta={eta:g} too large: only {kT - k0} discrete steps "
                             f"in [{T0:g}, {T:g}]")
        _exact_steps(T - T0, eta, f"T - T0 = {T - T0:g}", f"eta={eta:g}")
        x_prev, x_cur, v = sgdm_warm_start(obj, eta, k0, x0)
        runs.append((k0, kT, x_prev, x_cur))
        starts.append((OdeParams(p=1.0, alpha=1.5, T0=k0 * eta, T=kT * eta, dt=params.dt),
                       x_cur, v))
    (sol, b), *table = _integrate_starts(obj, starts)
    column = OdeSolution(t=sol.t, X=sol.X[:, b], f_gap=sol.f_gap[:, b], energy=sol.energy[:, b])
    noise = NoiseModel.gaussian(obj.dim, 1.0)
    rows = []
    for j, (eta, (k0, kT, x_prev, x_cur), (s, c)) in enumerate(zip(eta_list, runs, table)):
        sub_seed = int(np.random.SeedSequence(entropy=(int(seed), j)).generate_state(1)[0])
        tr = run_ensemble(obj, noise, StepSchedule(kind="constant", scale=eta), K=kT - k0,
                          M=M, master_seed=sub_seed, x0=x_cur, x_prev0=x_prev, k_start=k0,
                          record=())
        tr.collect()
        sq = np.sum((tr.x_cur_final - s.X[-1, c]) ** 2, axis=1)
        stderr = float(np.std(sq, ddof=1) / np.sqrt(M)) if M > 1 else 0.0
        rows.append({"eta": float(eta), "mean_sq_dist": float(np.mean(sq)), "stderr": stderr,
                     "runs": M})
    return column, rows
