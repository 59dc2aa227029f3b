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

import warnings

import numpy as np

__all__ = [
    "continuous_energy",
    "check_descent",
    "energy_along",
    "noise_terms",
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


def noise_terms(x: np.ndarray, g: np.ndarray, grad: np.ndarray, xstar: np.ndarray,
                k0: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """||theta_k||^2 and <theta_k, tau_k> of steps k = k0+1..k0+K, with the
    gradient noise theta_k = grad_k - g_k and

        tau_k = k (x_k - x_{k-1}) + (x_k - x*).

    x is (K+1, d) holding x_{k0}..x_{k0+K} and g and grad are (K, d), the
    realized and exact gradients of the steps; or, for M runs at once, they
    carry a run axis before the last, as in :func:`energy_along`."""
    K = g.shape[0]
    ks = np.arange(k0 + 1, k0 + K + 1, dtype=float)
    tau = _per_step(ks, x.ndim) * (x[1 : K + 1] - x[0:K]) + (x[1 : K + 1] - xstar)
    theta = grad - g
    return np.sum(theta * theta, axis=-1), np.sum(theta * tau, axis=-1)


def descent_rhs_along(g_sq: np.ndarray, grad_sq: np.ndarray, theta_tau: np.ndarray,
                      f_gap: np.ndarray, eta: np.ndarray, L: float, k0: int = 0) -> np.ndarray:
    """Upper bound on E(k) - E(k-1) for each realized momentum step
    k = k0+1..k0+K:

        (4 eta_k / k) ||g_k||^2 - (2/L) sqrt(eta_k/k) ||grad_k||^2
        - 2 sqrt(eta_k/k) f_gap_k + 4 sqrt(eta_k/k) <grad_k - g_k, tau_k>

    from the steps' rows ||g_k||^2, ||grad_k||^2, <theta_k, tau_k> (see
    :func:`noise_terms`) and f_gap_k = f(x_k) - f*, each (K,) or (K, M), and
    eta_k (K,)."""
    ks = np.arange(k0 + 1, k0 + len(eta) + 1, dtype=float)
    r = _per_step(np.sqrt(eta / ks), f_gap.ndim)
    c = _per_step(4.0 * eta / ks, f_gap.ndim)
    return c * g_sq - (2.0 / L) * r * grad_sq - 2.0 * r * f_gap + 4.0 * r * theta_tau


class DescentReport:
    """The pathwise descent inequality's residuals, folded block of steps by
    block of steps: their maximum, the step ``argmax_k`` and ``run`` of its
    first occurrence, and the number of residuals above ``tol`` times
    1 + |E(k)|."""

    def __init__(self, tol: float):
        self.tol = tol
        self.n_violations = 0
        self.max_residual = -np.inf
        self.argmax_k = self.run = 0

    @property
    def passed(self) -> bool:
        return self.n_violations == 0

    def add(self, residuals: np.ndarray, energy: np.ndarray, k0: int = 1) -> None:
        """Fold the (steps, runs) residuals of steps k0, k0+1, ... with the
        energies E(k) of the same steps."""
        self.n_violations += int(np.sum(residuals > self.tol * (1.0 + np.abs(energy))))
        worst = np.unravel_index(np.argmax(residuals), residuals.shape)
        value = float(residuals[worst])
        # the first maximum wins, and a NaN is the maximum, as in np.argmax
        if not value <= self.max_residual and self.max_residual == self.max_residual:
            self.max_residual = value
            self.argmax_k = k0 + int(worst[0])
            self.run = int(worst[1])


def check_descent(stream, blocks, tol: float = 1e-10) -> DescentReport:
    """Verify E(k) - E(k-1) <= descent_rhs pathwise for every step of every
    run of a :func:`~sgdmlab.optimizers.run_ensemble` stream recorded with
    ``energy`` and ``descent``, folding ``blocks`` (the stream itself, or its
    blocks passed on by another fold) as they arrive; E(k-1) is carried
    from block to block. Residuals are measured relative to 1 + |E(k)| so
    the tolerance stays meaningful for large early energies. Non-monotone
    schedules violate the lemma hypothesis and are refused before a step is
    taken; streams from algorithms other than the momentum recursion only
    trigger a warning (the inequality is specific to that update rule).
    """
    if not stream.schedule.monotone:
        raise ValueError("descent check requires a monotone non-increasing stepsize schedule")
    if stream.algorithm != "sgdm":
        warnings.warn(
            f"descent inequality is specific to the momentum recursion; "
            f"record is from {stream.algorithm!r} and residuals may be positive"
        )
    report, last = DescentReport(tol), None  # last: E(k-1) of the block's first step k
    for b in blocks:
        if b.energy is None or b.descent_rhs is None:
            raise ValueError("descent check needs a stream recorded with energy and descent")
        energy = b.energy if last is None else np.concatenate([last, b.energy])
        # a residual or a tolerance tol (1 + |E(k)|) that overflows is inf, quietly
        with np.errstate(over="ignore", invalid="ignore"):
            report.add(energy[1:] - energy[:-1] - b.descent_rhs, energy[1:], max(b.lo, 1))
        last = b.energy[-1:].copy()
    return report
