"""Discrete and continuous Lyapunov energies and the pathwise descent check.

The discrete energy pairs indices as

    E(k) = ||x_{k+1} + (k+1)(x_{k+1} - x_k) - x*||^2
           + 4 sqrt((k+1) eta_k) (f(x_k) - f*),

i.e. E(k) reads x_{k+1}, x_k, eta_k and f at x_k. The descent inequality
E(k) - E(k-1) <= rhs holds deterministically for the realized stochastic
gradients whenever the stepsize sequence is monotone non-increasing; it is
not merely an in-expectation statement.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "continuous_energy",
    "check_descent",
    "energy_along",
    "descent_rhs_along",
    "DescentReport",
]


def continuous_energy(
    X: np.ndarray,
    Xdot: np.ndarray,
    t,
    p: float,
    alpha: float,
    f_gap,
    xstar: np.ndarray,
) -> np.ndarray:
    """Continuous energy ||p X + t Xdot - p x*||^2 + 2 (p+1) t^(2-alpha) (f(X) - f*).

    ``X`` and ``Xdot`` carry the coordinates on their last axis; ``t``
    broadcasts against ``f_gap``, which has the leading axes of ``X`` (a grid
    of n times and B initial conditions gives X (n, B, d), t (n, 1) and
    f_gap (n, B)). Every t must be positive."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("t must be positive")
    w = p * X + t[..., None] * Xdot - p * xstar
    return np.sum(w * w, axis=-1) + 2.0 * (p + 1.0) * t ** (2.0 - alpha) * f_gap


def _per_step(a: np.ndarray, ndim: int) -> np.ndarray:
    """View a per-step vector so it broadcasts against arrays of ``ndim``
    dimensions whose leading axis is the step (a trailing run axis and/or
    coordinate axis follow)."""
    return a.reshape(a.shape + (1,) * (ndim - 1))


def energy_along(
    x: np.ndarray, eta: np.ndarray, f_gap: np.ndarray, xstar: np.ndarray, k0: int = 0
) -> np.ndarray:
    """E(k0..k0+K) along a trajectory or a segment of one: x is (K+2, d)
    holding x_{k0}..x_{k0+K+1}, eta is (K+1,) and f_gap is (K+1,), both at
    k = k0..k0+K; or, for M runs at once, x is (K+2, M, d) and f_gap is
    (K+1, M)."""
    K = len(eta) - 1
    ks1 = np.arange(k0 + 1, k0 + K + 2, dtype=float)
    v = x[1 : K + 2] + _per_step(ks1, x.ndim) * (x[1 : K + 2] - x[0 : K + 1]) - xstar
    return np.sum(v * v, axis=-1) + 4.0 * np.sqrt(_per_step(ks1 * eta, f_gap.ndim)) * f_gap


def descent_rhs_along(
    x: np.ndarray,
    g: np.ndarray,
    grad: np.ndarray,
    f_gap: np.ndarray,
    eta: np.ndarray,
    L: float,
    xstar: np.ndarray,
) -> np.ndarray:
    """Upper bound on E(k) - E(k-1) for each realized momentum step
    k = 1..K:

        (4 eta_k / k) ||g_k||^2 - (2/L) sqrt(eta_k/k) ||grad_k||^2
        - 2 sqrt(eta_k/k) f_gap_k + 4 sqrt(eta_k/k) <grad_k - g_k, tau_k>

    with tau_k = k (x_k - x_{k-1}) + (x_k - x*). Shaped (K,), or (K, M)
    when the arrays carry a run axis as in :func:`energy_along`."""
    K = g.shape[0]
    ks = np.arange(1, K + 1, dtype=float)
    r = _per_step(np.sqrt(eta[1:] / ks), f_gap.ndim)
    c = _per_step(4.0 * eta[1:] / ks, f_gap.ndim)
    tau = _per_step(ks, x.ndim) * (x[1 : K + 1] - x[0:K]) + (x[1 : K + 1] - xstar)
    theta = grad - g
    return (
        c * np.sum(g * g, axis=-1)
        - (2.0 / L) * r * np.sum(grad * grad, axis=-1)
        - 2.0 * r * f_gap[1:]
        + 4.0 * r * np.sum(theta * tau, axis=-1)
    )


class DescentReport:
    """Residuals of the pathwise descent inequality, per step k = 1..K and,
    for a batch of runs, per run (shape (K, M)). ``argmax_k`` and ``run``
    locate the largest residual."""

    def __init__(self, residuals: np.ndarray, energy: np.ndarray, tol: float):
        self.residuals = residuals
        self.tol = tol
        allowed = tol * (1.0 + np.abs(energy[1:]))
        self.n_violations = int(np.sum(residuals > allowed))
        worst = np.unravel_index(np.argmax(residuals), residuals.shape)
        self.argmax_k = int(worst[0]) + 1
        self.run = int(worst[1]) if residuals.ndim > 1 else 0
        self.max_residual = float(residuals[worst])
        self.passed = self.n_violations == 0

    def summary(self) -> dict:
        return {
            "max_residual": self.max_residual,
            "argmax_k": self.argmax_k,
            "run": self.run,
            "n_violations": self.n_violations,
        }


def check_descent(record, L: float, xstar: np.ndarray, fstar: float, tol: float = 1e-10) -> DescentReport:
    """Verify E(k) - E(k-1) <= descent_rhs pathwise for every logged step.

    ``record`` is one run (a :class:`~sgdmlab.optimizers.TrajectoryRecord`)
    or a batch (an :class:`~sgdmlab.optimizers.EnsembleTrace` recorded with
    ``x``, ``g``, ``grad`` and ``f_gap``), checked on every column at once.
    Residuals are measured relative to 1 + |E(k)| so the tolerance stays
    meaningful for large early energies. Non-monotone schedules violate the
    lemma hypothesis and are refused; records from algorithms other than the
    momentum recursion only trigger a warning (the inequality is specific to
    that update rule).
    """
    if record.schedule is not None and not record.schedule.monotone:
        raise ValueError("descent check requires a monotone non-increasing stepsize schedule")
    if record.algorithm != "sgdm":
        import warnings

        warnings.warn(
            f"descent inequality is specific to the momentum recursion; "
            f"record is from {record.algorithm!r} and residuals may be positive"
        )
    if record.x is None or record.g is None or record.grad is None or record.f_gap is None:
        raise ValueError("descent check needs the recorded x, g, grad and f_gap")
    # re-reference the gap if the caller's f* differs from the record's
    f_gap = record.f_gap + (record.fstar - fstar)
    energy = energy_along(record.x, record.eta, f_gap, xstar)
    rhs = descent_rhs_along(
        record.x, record.g, record.grad, f_gap, record.eta, L, xstar
    )
    residuals = (energy[1:] - energy[:-1]) - rhs
    return DescentReport(residuals, energy, tol)
