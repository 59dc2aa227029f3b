"""Convex test objectives and stochastic-gradient oracles.

Every objective exposes a batched interface: ``eval`` accepts ``(d,)`` or
``(m, d)`` arrays and returns a scalar or ``(m,)``; ``grad`` preserves the
input shape; the optional fused ``value_and_grad`` returns both from one
pass over a costly shared intermediate (the logistic margins). This keeps
ensemble runners vectorized across Monte-Carlo runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

__all__ = [
    "Objective",
    "NoiseModel",
    "quadratic_new",
    "logreg_new",
    "fstar_refine",
    "OptimumNotReached",
    "synthetic_blobs",
    "load_csv_dataset",
]


@dataclass(frozen=True)
class Objective:
    """A differentiable convex objective with exact gradient and reference optimum.

    ``lipschitz`` is the gradient Lipschitz constant; ``fstar``/``xstar`` are
    the (possibly refined) minimal value and minimizer. ``value_and_grad``,
    when given, returns ``(eval(x), grad(x))`` from one pass; a copy that
    replaces ``eval`` or ``grad`` should replace or drop it too. Give one
    only where the value shares costly work with the gradient:
    :func:`~sgdmlab.optimizers.run_ensemble` calls it at every step of a run
    that records ``f_gap``, and otherwise evaluates ``eval`` once per block
    of stored iterates.
    """

    dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    lipschitz: float
    fstar: float
    xstar: np.ndarray
    name: str = "objective"
    value_and_grad: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None

    def f_gap(self, x: np.ndarray) -> np.ndarray:
        """f(x) - f*, batched like ``eval``."""
        return self.eval(x) - self.fstar

    def gap_and_grad(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(f(x) - f*, grad f(x)) from the fused oracle, or from ``eval`` and
        ``grad`` when the objective has none."""
        if self.value_and_grad is None:
            return self.f_gap(x), self.grad(x)
        f, g = self.value_and_grad(x)
        return f - self.fstar, g


@dataclass(frozen=True)
class NoiseModel:
    """Distribution of the additive gradient perturbation.

    ``sigma2`` is the second-moment constant E[||xi||^2] entering the variance
    bound of the stochastic gradient; ``hp_sigma2`` is the (different)
    sub-Gaussian scale certified to satisfy E[exp(||xi||^2 / hp_sigma2)] <= e.
    The two scales share a symbol in the underlying analysis but are distinct
    quantities and are never conflated here.
    """

    kind: str  # "gaussian_isotropic" | "bounded_uniform"
    dim: int
    scale: float  # per-coordinate std (gaussian) or half-width (uniform)
    sigma2: float
    hp_sigma2: float

    @staticmethod
    def gaussian(dim: int, per_coord_var: float) -> "NoiseModel":
        """Isotropic Gaussian noise N(0, s^2 I) with s^2 = per_coord_var.

        The sub-Gaussian scale is set conservatively to
        ``2 * dim * s^2 / (1 - exp(-2/dim))``, which makes the exponential
        moment E[exp(||xi||^2 / hp_sigma2)] = (1 - 2 s^2/hp_sigma2)^(-dim/2)
        at most e with ample margin.
        """
        if per_coord_var < 0:
            raise ValueError("per_coord_var must be >= 0")
        s2 = float(per_coord_var)
        if s2 == 0.0:
            hp = 0.0
        else:
            hp = 2.0 * dim * s2 / (1.0 - np.exp(-2.0 / dim))
        return NoiseModel("gaussian_isotropic", dim, np.sqrt(s2), dim * s2, hp)

    @staticmethod
    def bounded_uniform(dim: int, half_width: float) -> "NoiseModel":
        """Coordinate-wise uniform noise on [-a, a] with a = half_width.

        ||xi||^2 <= dim * a^2 deterministically, so hp_sigma2 = dim * a^2
        satisfies the exponential-moment condition with equality at the corner.
        """
        if half_width < 0:
            raise ValueError("half_width must be >= 0")
        a = float(half_width)
        return NoiseModel("bounded_uniform", dim, a, dim * a * a / 3.0, dim * a * a)

    @staticmethod
    def noiseless(dim: int) -> "NoiseModel":
        return NoiseModel("gaussian_isotropic", dim, 0.0, 0.0, 0.0)

    def sample(self, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
        """Draw one ``(dim,)`` sample or a batch ``(n, dim)``."""
        shape = (self.dim,) if n is None else (n, self.dim)
        if self.scale == 0.0:
            return np.zeros(shape)
        if self.kind == "gaussian_isotropic":
            return self.scale * rng.standard_normal(shape)
        if self.kind == "bounded_uniform":
            return rng.uniform(-self.scale, self.scale, shape)
        raise ValueError(f"unknown noise kind {self.kind!r}")


def _dot(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``x @ m`` for a 2-D ``m``, through ``ndarray.dot`` when ``x`` has one
    or two axes (a 0-d ``x`` still raises, as ``@`` does).

    ``.dot`` calls the same BLAS routine as ``@`` without the matmul
    gufunc's dispatch, which costs more than the arithmetic at per-step
    sizes (0.49 vs 1.00 us at (10,) . (10, 10)); the results are
    bit-equal. For three or more axes ``.dot`` is far slower (236 vs 12 us
    at (17, 200, 10) . (10, 10)) and rounds differently, so ``@`` stays.
    """
    return x.dot(m) if 0 < x.ndim <= 2 else x @ m


def quadratic_new(A: np.ndarray) -> Objective:
    """Objective f(x) = 0.5 x^T A x for symmetric PSD ``A``.

    ``A`` is symmetrized as (A + A^T)/2; eigenvalues below -1e-10 are
    rejected with a diagnostic naming the most negative one.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    A = 0.5 * (A + A.T)
    eigs = np.linalg.eigvalsh(A)
    if eigs[0] < -1e-10:
        raise ValueError(
            f"matrix is not positive semidefinite: most negative eigenvalue {eigs[0]:.6e}"
        )
    dim = A.shape[0]

    def f(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return 0.5 * np.einsum("...i,...i->...", _dot(x, A), x)

    def g(x: np.ndarray) -> np.ndarray:
        return _dot(np.asarray(x, dtype=float), A)

    return Objective(
        dim=dim,
        eval=f,
        grad=g,
        lipschitz=float(eigs[-1]),
        fstar=0.0,
        xstar=np.zeros(dim),
        name=f"quadratic{dim}d",
    )


def logreg_new(features: np.ndarray, labels: np.ndarray, refine_tol: float = 1e-10) -> Objective:
    """Average logistic loss over a binary dataset.

    f(b) = mean_i [ log(1 + exp(x_i^T b)) - y_i x_i^T b ], the negated
    average log-likelihood, so the task is a minimization. The smoothness
    constant is lambda_max(X^T X) / (4 N). The reference optimum is filled by
    :func:`fstar_refine` unless ``refine_tol`` is None.

    The labels are folded into the features once: with s_i = 1 - 2 y_i,
    the rows of Xs are s_i x_i, and every oracle works from the signed
    margins u = Xs b (u_i = s_i z_i for z = X b) and e = exp(-|u|), which
    never overflows. For y in {0, 1}, max(z, 0) - y z is exactly max(u, 0),
    so f(b) = mean_i [max(u_i, 0) + log1p(e_i)]; and sigmoid(z) - y is
    s sigmoid(u), so grad f(b) = sigmoid(u) Xs / N with sigmoid(u) =
    w / (1 + e), where w = 1 for u >= 0 and w = e below. ``eval``, ``grad``
    and ``value_and_grad`` share one margins helper.
    """
    X = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(labels, dtype=float).ravel()
    N, d = X.shape
    if N == 0:
        raise ValueError("dataset must contain at least one sample")
    if y.shape[0] != N:
        raise ValueError(f"got {N} feature rows but {y.shape[0]} labels")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must lie in {0, 1}")
    L = float(np.linalg.eigvalsh(X.T @ X)[-1]) / (4.0 * N)
    Xs = (1.0 - 2.0 * y)[:, None] * X
    XsT = np.ascontiguousarray(Xs.T)  # a contiguous copy multiplies faster than the view

    def margins(beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u = _dot(np.asarray(beta, dtype=float), XsT)  # (..., N)
        e = np.abs(u)
        np.negative(e, out=e)
        return u, np.exp(e, out=e)

    # max(u, 0) against a same-shape zero array: a scalar 0.0 takes NumPy's
    # slow path (4.5 vs 1.3 us at (20, 500)); one slot, keyed by the shape
    zero = [np.zeros(0)]

    def value(u: np.ndarray, e: np.ndarray) -> np.ndarray:
        z = zero[0]
        if z.shape != u.shape:
            z = zero[0] = np.zeros(u.shape)
        v = np.log1p(e)
        v += np.maximum(u, z)
        return v.sum(axis=-1) / N

    def gradient(u: np.ndarray, e: np.ndarray) -> np.ndarray:
        w = np.maximum(e, u >= 0.0)  # where(u >= 0, 1, e): e <= 1
        w /= 1.0 + e
        return _dot(w, Xs) / N

    def f(beta: np.ndarray) -> np.ndarray:
        return value(*margins(beta))

    def g(beta: np.ndarray) -> np.ndarray:
        return gradient(*margins(beta))

    def fg(beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u, e = margins(beta)
        return value(u, e), gradient(u, e)

    obj = Objective(
        dim=d,
        eval=f,
        grad=g,
        lipschitz=L,
        fstar=float(f(np.zeros(d))),
        xstar=np.zeros(d),
        name=f"logreg{d}d",
        value_and_grad=fg,
    )
    if refine_tol is not None:
        fstar, xstar = fstar_refine(obj, refine_tol)
        obj = replace(obj, fstar=fstar, xstar=xstar)
    return obj


class OptimumNotReached(RuntimeError):
    """:func:`fstar_refine` did not reach its gradient tolerance: the optimum
    may not exist (a logistic problem on separable data) or be out of reach
    at that tolerance."""


def fstar_refine(
    obj: Objective, tol: float, max_iter: int = 200_000
) -> tuple[float, np.ndarray]:
    """Refine (f*, x*) by accelerated full-gradient descent.

    Uses the 1/L step with Nesterov extrapolation and gradient-based
    adaptive restarts, which handles the poorly conditioned logistic
    problems that plain gradient descent stalls on. Returns the analytic
    optimum unchanged when it already satisfies the tolerance
    (quadratics). Raises :class:`OptimumNotReached` if ``||grad|| > tol``
    persists after ``max_iter`` iterations.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = np.array(obj.xstar, dtype=float)
    if np.linalg.norm(obj.grad(x)) <= tol:
        return float(obj.eval(x)), x
    step = 1.0 / max(obj.lipschitz, 1e-12)
    y = x.copy()
    t = 1.0
    for _ in range(max_iter):
        gy = obj.grad(y)
        x_new = y - step * gy
        if float(gy @ (x_new - x)) > 0.0:
            # extrapolation overshot: restart the momentum sequence
            t = 1.0
            x_new = x - step * obj.grad(x)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = x_new + ((t - 1.0) / t_new) * (x_new - x)
        t = t_new
        x = x_new
        if np.linalg.norm(obj.grad(x)) <= tol:
            return float(obj.eval(x)), x
    raise OptimumNotReached(
        f"optimum refinement did not reach ||grad|| <= {tol:g} "
        f"within {max_iter} iterations (current {np.linalg.norm(obj.grad(x)):.3e}); "
        "the optimum may not exist (separable data) or be out of reach at this tolerance"
    )


def synthetic_blobs(n_samples: int, dim: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded two-class Gaussian-blob dataset with labels in {0, 1}.

    Class means sit at +-1/2 along a random unit direction, keeping the
    classes overlapping so the logistic optimum stays finite.
    """
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(dim)
    u /= np.linalg.norm(u)
    y = (rng.random(n_samples) < 0.5).astype(float)
    X = rng.standard_normal((n_samples, dim)) + np.outer(2.0 * y - 1.0, 0.5 * u)
    return X, y


def load_csv_dataset(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Load a `y,x1,...,xd` CSV (header row required); labels must be {0, 1}."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    y = data[:, 0]
    X = data[:, 1:]
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels column must contain only 0 or 1")
    return X, y
