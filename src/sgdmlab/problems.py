"""Convex test objectives and stochastic-gradient oracles.

Every objective exposes a batched interface: ``eval`` accepts ``(d,)`` or
``(m, d)`` arrays and returns a scalar or ``(m,)``; ``grad`` preserves the
input shape; the optional fused ``value_and_grad`` returns both from one
pass over a costly shared intermediate (the logistic margins). This keeps
ensemble runners vectorized across Monte-Carlo runs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Objective",
    "NoiseModel",
    "quadratic_new",
    "logreg_new",
    "OptimumNotReached",
    "synthetic_blobs",
    "load_csv_dataset",
]

_NEWTON_STEPS = 100  # logreg_new certifies a minimizer of synthetic_blobs in 3-6 steps


@dataclass(frozen=True)
class Objective:
    """A differentiable convex objective with exact gradient and reference optimum.

    ``lipschitz`` is the gradient Lipschitz constant; ``fstar``/``xstar`` are
    the minimal value and a minimizer (closed-form, or certified by Newton
    steps in :func:`logreg_new`). ``value_and_grad``, when given, returns
    ``(eval(x), grad(x))`` from one pass; a copy that replaces ``eval`` or
    ``grad`` should replace or drop it too. Give one only where the value
    shares costly work with the gradient: :func:`~sgdmlab.optimizers.run_ensemble`
    calls it at every step of a run that records ``f_gap``, and otherwise
    evaluates ``eval`` once per block of stored iterates.
    """

    dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    lipschitz: float
    fstar: float
    xstar: np.ndarray
    value_and_grad: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None

    def f_gap(self, x: np.ndarray) -> np.ndarray:
        """f(x) - f*, batched like ``eval``."""
        return self.eval(x) - self.fstar


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

        The sub-Gaussian scale is ``2 * dim * s^2 / (1 - exp(-2/dim))``
        rounded upward, which makes the exponential moment
        E[exp(||xi||^2 / hp_sigma2)] = (1 - 2 v/hp_sigma2)^(-dim/2) at most e
        for the sampled variance v = ``scale**2``. At dim = 1 the exact scale
        gives exactly e (at dim = 2 the moment is already 1.25 below it), so
        rounding decides: the float evaluation through ``expm1`` is within 5
        units of 2^-53 (relative) of the exact scale, v exceeds s^2 by at
        most 2 such units, and the result is stepped 8 ulps up, each at
        least one unit.
        """
        if not per_coord_var >= 0:
            raise ValueError("per_coord_var must be >= 0")
        s2 = float(per_coord_var)
        hp = 0.0
        if s2 != 0.0:
            hp = 2.0 * dim * s2 / -np.expm1(-2.0 / dim)
            for _ in range(8):
                hp = float(np.nextafter(hp, np.inf))
        return NoiseModel("gaussian_isotropic", dim, np.sqrt(s2), dim * s2, hp)

    @staticmethod
    def bounded_uniform(dim: int, half_width: float) -> "NoiseModel":
        """Coordinate-wise uniform noise on [-a, a] with a = half_width.

        ||xi||^2 <= dim * a^2 deterministically, so hp_sigma2 = dim * a^2
        satisfies the exponential-moment condition with equality at the corner.
        """
        if not half_width >= 0:
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
    )


class OptimumNotReached(RuntimeError):
    """:func:`logreg_new` found no minimizer: none exists, or none was certified."""


def logreg_new(features: np.ndarray, labels: np.ndarray, refine_tol: float = 1e-10) -> Objective:
    """Average logistic loss over a binary dataset.

    f(b) = mean_i [ log(1 + exp(x_i^T b)) - y_i x_i^T b ], the negated
    average log-likelihood, so the task is a minimization. The smoothness
    constant is lambda_max(X^T X) / (4 N). The reference optimum is certified
    by ``optimum`` below; ``refine_tol = None`` keeps f* = f(0) and x* = 0.

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
    if refine_tol is not None and not refine_tol > 0:
        raise ValueError("refine_tol must be positive")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, without a warning
        L = float(np.linalg.eigvalsh(X.T @ X)[-1]) / (4.0 * N)
    if not np.isfinite(L):
        raise ValueError(f"the dataset's smoothness constant L = {L} is not finite")
    Xs = (1.0 - 2.0 * y)[:, None] * X
    XsT = np.ascontiguousarray(Xs.T)  # a contiguous copy multiplies faster than the view

    def margins(beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u = _dot(np.asarray(beta, dtype=float), XsT)  # (..., N)
        e = np.abs(u)
        np.negative(e, out=e)
        return u, np.exp(e, out=e)

    def value(u: np.ndarray, e: np.ndarray) -> np.ndarray:
        v = np.log1p(e)
        v += np.maximum(u, 0.0)
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

    def optimum() -> tuple[float, np.ndarray]:
        """Damped Newton steps from b = 0 with Armijo backtracking, in the
        row space of Xs = U S V^T: each step is Xs^T a, so b keeps 0 in an
        all-zero column and equal entries in duplicated ones. In z = S V^T b
        the Hessian is Hz = U^T diag(e / (1 + e)^2) U / N <= I / (4 N). b is
        accepted once ||g|| <= refine_tol and 2 R nu <= sqrt(lambda_min), for
        R = max_i ||x_i||, nu^2 = g^T H^+ g and lambda_min >= min(S)^2 times
        Hz's least eigenvalue, all of whose eigenvalues must exceed
        sqrt(eps) / (4 N) so that rounding does not decide. This proves that a
        minimizer exists: phi(t) = log(1 + e^t) has |phi'''| <= phi'', so on a
        unit ray b + t v of the row space h(t) = f(b + t v) has h''(t) >=
        e^{-R t} q for q = v^T H v, and h'(t) >= -nu sqrt(q) + (1 - e^{-R t})
        q / R, whose limit is positive uniformly in v once nu R <
        sqrt(lambda_min); the factor 2 is slack for rounding. Refused: an
        iterate with the signed margin of every sample with a nonzero feature
        below 0 (separable data: inf f is not attained; an all-zero sample's
        margin is 0 at every b), and no certificate in ``_NEWTON_STEPS`` steps.
        """
        u, e = margins(b := np.zeros(d))
        fb = value(u, e)
        live = X.any(axis=1)  # the samples whose margin can move
        if refine_tol is None or not live.any():  # all-zero features: f is constant
            return float(fb), b
        eps, (U, S, Vt) = np.finfo(float).eps, np.linalg.svd(Xs, full_matrices=False)
        r = int(np.sum(S > S[0] * max(N, d) * eps))
        U, S, Vt, Sn = U[:, :r], S[:r], Vt[:r], S[:r] / S[0]  # Sn, Rn: no underflow
        Rn = np.sqrt(np.einsum("ij,ij->i", X, X).max()) / S[0]
        for _ in range(_NEWTON_STEPS):
            if np.all(u[live] < 0.0):
                raise OptimumNotReached(
                    f"the dataset is separable: every nonzero sample's signed margin is "
                    f"negative at b = {np.round(b, 3)}, so the logistic loss has no "
                    f"minimizer (inf f is not attained)")
            grad = gradient(u, e)
            lam, Q = np.linalg.eigh((U.T * (e / (1.0 + e) ** 2)) @ U / N)  # H in z = S V^T b
            c = Q.T @ ((Vt @ grad) / S)  # the gradient in z, in that eigenbasis
            trusted = lam > np.sqrt(eps) / (4.0 * N)
            dc = np.divide(c, lam, out=np.zeros(r), where=trusted)
            nu2 = c @ dc
            if (trusted.all() and np.linalg.norm(grad) <= refine_tol
                    and 4.0 * Rn * Rn * nu2 <= lam[0] * Sn[-1] ** 2):
                return float(fb), b
            step, t = _dot(U @ ((Q @ dc) / (S * Sn)), Xs) / S[0], 1.0  # V S^-1 dz = Xs^T a
            while f(b - t * step) > fb - 0.25 * t * nu2 + 4.0 * eps * fb:  # 4 ulps: f's rounding
                t /= 2.0
            u, e = margins(b := b - t * step)
            fb = value(u, e)
        raise OptimumNotReached(
            f"no logistic minimizer certified within {_NEWTON_STEPS} Newton steps (|b| = "
            f"{np.linalg.norm(b):.3g}): the dataset may be quasi-completely separable")

    fstar, xstar = optimum()
    return Objective(dim=d, eval=f, grad=g, lipschitz=L, fstar=fstar, xstar=xstar,
                     value_and_grad=fg)


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
    """Load a `y,x1,...,xd` CSV (header row required) of finite values; labels in {0, 1}."""
    with warnings.catch_warnings():  # a file without samples is refused by logreg_new
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if not np.isfinite(data).all():
        raise ValueError(f"dataset {path} holds a value that is not finite")
    y = data[:, 0]
    X = data[:, 1:]
    if len(X) and X.shape[1] == 0:  # without rows, loadtxt cannot count columns
        raise ValueError(f"dataset {path} has no feature column after the label column")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels column must contain only 0 or 1")
    return X, y
