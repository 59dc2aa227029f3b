"""Reference oracles for the tests: the momentum, SGD and ACSA recursions
written out one step and one run at a time, independent of the batched
kernel in :func:`sgdmlab.optimizers.run_ensemble` that they check, and the
discrete Lyapunov energy and descent bound of one step, term by term, for
the vectorized forms in :mod:`sgdmlab.lyapunov`.
"""

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from sgdmlab.optimizers import StepSchedule, schedule_eval


def numpy_rng(master_seed, run_index):
    """Run ``run_index``'s generator by NumPy's own seeding, independent of
    :mod:`sgdmlab.seeding`, whose derivation must give the same stream."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(run_index,)))


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
    """One momentum update consuming the realized stochastic gradient at x_k:
    x_{k+1} = x_k + k/(k+2) (x_k - x_{k-1}) - 2 sqrt(eta_k) / ((k+2) sqrt(k)) g_k."""
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


def sample_gradient(obj, noise, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One stochastic-gradient draw grad(x) + xi; deterministic given the rng state."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("query point must be finite")
    return obj.grad(x) + noise.sample(rng)


def discrete_energy(x_next, x_k, k: int, eta_k: float, f_gap_k: float, xstar) -> float:
    """E(k) = ||x_{k+1} + (k+1)(x_{k+1} - x_k) - x*||^2 + 4 sqrt((k+1) eta_k) f_gap_k
    of one step; ``x_next`` is x_{k+1} and ``f_gap_k`` = f(x_k) - f*."""
    if eta_k <= 0:
        raise ValueError("eta_k must be positive")
    if f_gap_k < -1e-12:
        raise ValueError(
            f"f_gap {f_gap_k:.3e} below the -1e-12 numerical floor; "
            "the reference optimum (f*, x*) is inconsistent"
        )
    v = x_next + (k + 1.0) * (x_next - x_k) - xstar
    return float(v @ v + 4.0 * np.sqrt((k + 1.0) * eta_k) * f_gap_k)


def descent_rhs(x_k, x_prev, g_k, grad_k, f_gap_k: float, k: int, eta_k: float, L: float,
                xstar) -> float:
    """Upper bound on E(k) - E(k-1) for one realized momentum step:

        (4 eta_k / k) ||g_k||^2 - (2/L) sqrt(eta_k/k) ||grad_k||^2
        - 2 sqrt(eta_k/k) f_gap_k + 4 sqrt(eta_k/k) <grad_k - g_k, tau_k>

    with tau_k = k (x_k - x_{k-1}) + (x_k - x*).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    r = np.sqrt(eta_k / k)
    tau = k * (x_k - x_prev) + (x_k - xstar)
    return float(
        (4.0 * eta_k / k) * (g_k @ g_k)
        - (2.0 / L) * r * (grad_k @ grad_k)
        - 2.0 * r * f_gap_k
        + 4.0 * r * ((grad_k - g_k) @ tau)
    )


def reference_ensemble(obj, noise, schedule, K, M, master_seed, algorithm="sgdm",
                       x0=None, record=("f_gap",), sgd_scale=1.0, k_start=1, x_prev0=None,
                       first_run=0):
    """Reference for run_ensemble: each run's whole (K, d) noise drawn up
    front, separate eval and grad calls, fresh arrays at every step, and the
    kernel's operation order, so the traces must agree bit for bit. Column i
    is run ``first_run + i``, seeded by ``numpy_rng(master_seed, first_run + i)``.
    ACSA (cold start only) takes its gradients at y_k = (1 - a) x_k + a z_k,
    a = 2/(k+1), and steps z with gamma_k = 1/(2L/k + sqrt(k)), in the order
    of Lan's three-sequence scheme: y, z_{k+1}, then x_{k+1}. Besides the
    engine's record names, ``record`` takes the path: ``"x"`` (x_0 ..
    x_{K+1}), and ``"g"`` and ``"grad"``, the realized and exact gradients
    of steps 1..K."""
    d = obj.dim
    x0 = np.ones(d) if x0 is None else np.asarray(x0, dtype=float)
    x_cur = np.broadcast_to(x0, (M, d)).copy()
    x_prev = x_cur.copy() if x_prev0 is None else np.broadcast_to(x_prev0, (M, d)).copy()
    eta = np.atleast_1d(schedule_eval(schedule, np.arange(k_start - 1, k_start + K)))
    xi_all = np.stack([noise.sample(numpy_rng(master_seed, first_run + i), K)
                       for i in range(M)], axis=1)
    out = {"x": [x_prev, x_cur], "g": [], "grad": [], "f_gap": [obj.f_gap(x_prev)],
           "theta_sq": [], "theta_tau": [], "grad_sq": [], "descent_rhs": []}
    v = x_cur + float(k_start) * (x_cur - x_prev) - obj.xstar
    out["energy"] = [np.sum(v * v, axis=1)
                     + 4.0 * np.sqrt(k_start * eta[0]) * obj.f_gap(x_prev)]
    z = x_cur.copy()
    for s in range(K):
        k = k_start + s
        if algorithm == "acsa":
            alpha = 2.0 / (k + 1.0)
            gamma = 1.0 / (2.0 * obj.lipschitz / k + math.sqrt(k))
            query = (1.0 - alpha) * x_cur + alpha * z
        else:
            query = x_cur
        fg, grad = obj.f_gap(x_cur), obj.grad(query)
        g = grad if noise.scale == 0.0 else grad + xi_all[s]
        xi = grad - g
        tau = k * (x_cur - x_prev) + (x_cur - obj.xstar)
        theta_tau = np.sum(xi * tau, axis=1)
        grad_sq = np.sum(grad * grad, axis=1)
        r = np.sqrt(eta[s + 1] / k)
        rhs = (4.0 * eta[s + 1] / k * np.sum(g * g, axis=1) - (2.0 / obj.lipschitz) * r * grad_sq
               - 2.0 * r * fg + 4.0 * r * theta_tau)
        if algorithm == "sgdm":
            x_next = (x_cur + (k / (k + 2.0)) * (x_cur - x_prev)
                      - (2.0 * np.sqrt(eta[s + 1]) / ((k + 2.0) * np.sqrt(k))) * g)
        elif algorithm == "acsa":
            z = z - gamma * g
            x_next = (1.0 - alpha) * x_cur + alpha * z
        else:
            x_next = x_cur - (sgd_scale / np.sqrt(k)) * g
        w = x_next + (k + 1.0) * (x_next - x_cur) - obj.xstar
        for name, val in (("f_gap", fg), ("grad", grad), ("g", g), ("x", x_next),
                          ("theta_sq", np.sum(xi * xi, axis=1)), ("theta_tau", theta_tau),
                          ("grad_sq", grad_sq), ("descent_rhs", rhs),
                          ("energy", np.sum(w * w, axis=1)
                           + 4.0 * np.sqrt((k + 1.0) * eta[s + 1]) * fg)):
            out[name].append(val)
        x_prev, x_cur = x_cur, x_next
    fields = {"f_gap": ["f_gap"], "energy": ["energy"], "theta": ["theta_sq", "theta_tau"],
              "descent": ["theta_sq", "theta_tau", "grad_sq", "descent_rhs"],
              "x": ["x"], "g": ["g"], "grad": ["grad"]}
    kept = {f: np.array(out[f]) for r in record for f in fields[r]}
    return kept, x_prev, x_cur


def reference_record(obj, noise, schedule, K, master_seed, run=0):
    """The per-step record of momentum-SGD run ``run`` of the reference
    loop, from the term-by-term oracles over its path: ``f_gap``, ``eta``
    and ``energy`` at k = 0..K; ``descent_lhs``, ``descent_rhs``,
    ``residuals`` (lhs - rhs), ``grad_norm`` and ``noise_norm`` at steps
    k = 1..K."""
    path = ("x", "g", "grad", "f_gap")
    ref, _, _ = reference_ensemble(obj, noise, schedule, K, 1, master_seed, record=path,
                                   first_run=run)
    x, g, grad, f_gap = (ref[name][:, 0] for name in path)
    eta = np.asarray(schedule_eval(schedule, np.arange(K + 1)), dtype=float)
    energy = np.array([discrete_energy(x[k + 1], x[k], k, eta[k], f_gap[k], obj.xstar)
                       for k in range(K + 1)])
    rhs = np.array([descent_rhs(x[k], x[k - 1], g[k - 1], grad[k - 1], f_gap[k], k, eta[k],
                                obj.lipschitz, obj.xstar) for k in range(1, K + 1)])
    lhs = np.diff(energy)
    return SimpleNamespace(K=K, f_gap=f_gap, eta=eta, energy=energy, descent_lhs=lhs,
                           descent_rhs=rhs, residuals=lhs - rhs,
                           grad_norm=np.linalg.norm(grad, axis=1),
                           noise_norm=np.linalg.norm(grad - g, axis=1))


def first_nonfinite_step(obj, noise, sched, K, M, seed):
    """Step each run on its own until x_{k+1} is not finite; returns the
    first such k over all runs and the runs that reach it at that k."""
    hits = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(M):
            rng = numpy_rng(seed, i)
            x_prev = x_cur = np.ones(obj.dim)
            for k in range(1, K + 1):
                g = obj.grad(x_cur) + noise.sample(rng)
                eta = schedule_eval(sched, k)
                x_prev, x_cur = x_cur, (x_cur + k / (k + 2.0) * (x_cur - x_prev)
                                        - 2.0 * math.sqrt(eta) / ((k + 2.0) * math.sqrt(k)) * g)
                if not np.all(np.isfinite(x_cur)):
                    hits.setdefault(k, []).append(i)
                    break
    k = min(hits)
    return k, hits[k]
