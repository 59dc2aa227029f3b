import inspect
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdmlab import problems
from sgdmlab.problems import (
    _NEWTON_STEPS,
    NoiseModel,
    OptimumNotReached,
    load_csv_dataset,
    logreg_new,
    quadratic_new,
    synthetic_blobs,
)

from reference import sample_gradient


def random_spd(dim, seed, cond=10.0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q @ np.diag(np.linspace(1.0, cond, dim)) @ q.T


def fd_grad(f, x, h=1e-5):
    """Central finite differences, one coordinate at a time."""
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


class TestQuadratic:
    def test_value_and_gradient_match_finite_differences(self):
        A = random_spd(6, 0)
        obj = quadratic_new(A)
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.standard_normal(6)
            assert obj.eval(x) == pytest.approx(0.5 * x @ A @ x, rel=1e-12)
            np.testing.assert_allclose(obj.grad(x), fd_grad(obj.eval, x), atol=1e-6)

    def test_lipschitz_is_largest_eigenvalue(self):
        A = random_spd(8, 2, cond=37.0)
        obj = quadratic_new(A)
        # independent power-iteration oracle
        v = np.ones(8) / np.sqrt(8.0)
        for _ in range(5000):
            v = A @ v
            v /= np.linalg.norm(v)
        assert obj.lipschitz == pytest.approx(v @ A @ v, rel=1e-10)

    def test_batched_eval_and_grad(self):
        obj = quadratic_new(random_spd(4, 3))
        X = np.random.default_rng(4).standard_normal((7, 4))
        vals = obj.eval(X)
        grads = obj.grad(X)
        assert vals.shape == (7,)
        assert grads.shape == (7, 4)
        for i in range(7):
            assert vals[i] == pytest.approx(obj.eval(X[i]))
            np.testing.assert_allclose(grads[i], obj.grad(X[i]))

    def test_optimum_is_exact(self):
        obj = quadratic_new(random_spd(5, 5))
        assert obj.fstar == 0.0
        np.testing.assert_array_equal(obj.xstar, np.zeros(5))
        assert np.linalg.norm(obj.grad(obj.xstar)) == 0.0

    def test_asymmetric_input_is_symmetrized(self):
        B = np.array([[2.0, 1.0], [0.0, 2.0]])
        obj = quadratic_new(B)
        x = np.array([1.0, -1.0])
        S = 0.5 * (B + B.T)
        assert obj.eval(x) == pytest.approx(0.5 * x @ S @ x)

    def test_indefinite_matrix_rejected(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            quadratic_new(np.diag([1.0, -0.5]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            quadratic_new(np.ones((2, 3)))

    @given(a=st.floats(min_value=1e-3, max_value=1e3),
           x=st.floats(min_value=-100, max_value=100))
    @settings(max_examples=50, deadline=None)
    def test_scalar_quadratic_properties(self, a, x):
        obj = quadratic_new(np.array([[a]]))
        xv = np.array([x])
        assert obj.eval(xv) >= 0.0
        assert obj.grad(xv)[0] == pytest.approx(a * x, rel=1e-12)


class TestLogreg:
    def test_gradient_matches_finite_differences(self):
        X, y = synthetic_blobs(50, 4, seed=0)
        obj = logreg_new(X, y, refine_tol=None)
        b = np.random.default_rng(1).standard_normal(4) * 0.3
        np.testing.assert_allclose(obj.grad(b), fd_grad(obj.eval, b), atol=1e-6)

    def test_one_dim_optimum_matches_newton_oracle(self):
        X, y = synthetic_blobs(80, 1, seed=3)
        obj = logreg_new(X, y)
        # independent scalar Newton solve on the same loss
        x = X[:, 0]
        b = 0.0
        for _ in range(60):
            p = 1.0 / (1.0 + np.exp(-b * x))
            g = np.mean((p - y) * x)
            h = np.mean(p * (1.0 - p) * x * x)
            b -= g / h
        loss = np.mean(np.logaddexp(0.0, b * x) - y * b * x)
        assert obj.fstar == pytest.approx(loss, abs=1e-10)
        assert obj.xstar[0] == pytest.approx(b, abs=1e-6)

    @pytest.mark.parametrize("n, d, seed", [(60, 5, 7), (500, 10, 1), (200, 10, 1),
                                            (200, 10, 0), (40, 3, 5), (80, 1, 3)])
    def test_refined_optimum_has_small_gradient(self, n, d, seed):
        obj = logreg_new(*synthetic_blobs(n, d, seed))
        assert np.linalg.norm(obj.grad(obj.xstar)) <= 1e-10
        assert obj.fstar == obj.eval(obj.xstar)

    def test_smoothness_constant_bounds_hessian(self):
        X, y = synthetic_blobs(40, 3, seed=9)
        obj = logreg_new(X, y, refine_tol=None)
        # Hessian at any point is X^T D X / N with D entries <= 1/4
        H0 = X.T @ X / (4.0 * len(y))
        assert obj.lipschitz == pytest.approx(np.linalg.eigvalsh(H0)[-1], rel=1e-8)

    @pytest.mark.parametrize("d", [65, 100])
    def test_lipschitz_is_the_dense_eigenvalue_above_64_dims(self, d):
        X, y = synthetic_blobs(500, d, 0)
        obj = logreg_new(X, y, refine_tol=None)
        assert obj.lipschitz == float(np.linalg.eigvalsh(X.T @ X)[-1]) / (4.0 * 500)

    def test_large_margins_do_not_overflow(self):
        """Margins |z| up to ~10^3, where exp(-z) overflows: every oracle must
        stay warning-free and match a logaddexp reference."""
        X, y = synthetic_blobs(50, 3, seed=1)
        obj = logreg_new(X, y, refine_tol=None)
        beta = 400.0 * np.ones(3)
        z = X @ beta
        assert z.min() < -709.0 and z.max() > 709.0
        sig = np.exp(z - np.logaddexp(0.0, z))  # sigmoid, without overflow
        f_ref = np.mean(np.logaddexp(0.0, z) - y * z)
        g_ref = (sig - y) @ X / len(y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f, g = obj.value_and_grad(beta)
            values = [f, obj.eval(beta)]
            grads = [g, obj.grad(beta)]
        assert values == [pytest.approx(f_ref, rel=1e-12)] * 2
        for g in grads:
            np.testing.assert_allclose(g, g_ref, rtol=1e-12)

    def test_sigmoid_reaches_its_limits(self):
        # one sample with x = 1, y = 0: f(b) = log(1 + e^b) and grad = sigmoid(b)
        obj = logreg_new(np.ones((1, 1)), np.zeros(1), refine_tol=None)
        b = np.array([[1000.0], [-1000.0], [1e4], [-1e4]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f, g = obj.value_and_grad(b)
            np.testing.assert_array_equal(obj.grad(b), g)
        np.testing.assert_array_equal(g[:, 0], [1.0, 0.0, 1.0, 0.0])
        np.testing.assert_array_equal(f, np.logaddexp(0.0, b[:, 0]))

    @pytest.mark.parametrize("shape", [(4,), (7, 4), (3, 5, 4)])
    def test_oracles_match_an_unfolded_reference(self, shape):
        """eval, grad and value_and_grad against the textbook formulas in
        z = X b, at margins of a few units."""
        X, y = synthetic_blobs(60, 4, seed=2)
        N = len(y)
        obj = logreg_new(X, y, refine_tol=None)
        beta = 0.5 * np.random.default_rng(5).standard_normal(shape)
        z = beta @ X.T
        assert 1.0 < np.abs(z).max() < 20.0
        f_ref = np.mean(np.logaddexp(0.0, z) - y * z, axis=-1)
        g_ref = (1.0 / (1.0 + np.exp(-z)) - y) @ X / N
        # float64 rounding, fixed before comparing: each of the N terms is
        # off by a few ulps of 1 + |z_i| (value) or of |x_ij| (gradient), and
        # a sum of N terms adds at most N ulps of their magnitudes
        eps = np.finfo(float).eps
        f_tol = 8 * N * eps * np.mean(1.0 + np.abs(z), axis=-1)
        g_tol = 8 * N * eps * np.mean(np.abs(X), axis=0)
        f, g = obj.value_and_grad(beta)
        assert f.shape == shape[:-1] and g.shape == shape
        assert np.all(np.abs(f - f_ref) <= f_tol)
        assert np.all(np.abs(g - g_ref) <= g_tol)
        np.testing.assert_array_equal(obj.eval(beta), f)
        np.testing.assert_array_equal(obj.grad(beta), g)

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            logreg_new(np.ones((3, 2)), np.array([0.0, 2.0, 1.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            logreg_new(np.ones((3, 2)), np.array([0.0, 1.0]))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            logreg_new(np.zeros((0, 2)), np.zeros(0))


def one_of_each(name):
    if name == "quadratic":
        return quadratic_new(random_spd(4, 6))
    X, y = synthetic_blobs(60, 4, seed=2)
    return logreg_new(X, y, refine_tol=None)


class TestFusedOracle:
    @pytest.mark.parametrize("name", ["quadratic", "logreg"])
    @pytest.mark.parametrize("shape", [(4,), (7, 4)])
    def test_value_and_grad_equals_eval_and_grad(self, name, shape):
        """The logistic fused oracle equals eval and grad. The quadratic has
        none: its value shares only x A with the gradient, which costs less
        evaluated per block of iterates than on every step."""
        obj = one_of_each(name)
        x = np.random.default_rng(3).standard_normal(shape)
        if name == "quadratic":
            assert obj.value_and_grad is None
            f, g = obj.eval(x), obj.grad(x)
        else:
            f, g = obj.value_and_grad(x)
            np.testing.assert_allclose(f, obj.eval(x), rtol=1e-15)
            np.testing.assert_allclose(g, obj.grad(x), rtol=1e-15)
        assert np.shape(f) == shape[:-1] and g.shape == shape


class TestProductsMatchMatmul:
    """The oracles compute x A, beta Xs^T and w Xs through ndarray.dot
    where the left operand has at most two axes; every result must equal,
    bit for bit, the same formulas written with ``@``."""

    SHAPES = [(10,), (1, 10), (20, 10), (200, 10), (17, 20, 10), "fortran"]

    @staticmethod
    def point(shape, seed):
        rng = np.random.default_rng(seed)
        if shape == "fortran":  # a (200, 10) block in column-major order
            return np.asfortranarray(rng.standard_normal((200, 10)))
        return rng.standard_normal(shape)

    @staticmethod
    def assert_oracles_equal(obj, x, f_ref, g_ref):
        np.testing.assert_array_equal(obj.eval(x), f_ref)
        np.testing.assert_array_equal(obj.grad(x), g_ref)
        if obj.value_and_grad is not None:
            f, g = obj.value_and_grad(x)
            np.testing.assert_array_equal(f, f_ref)
            np.testing.assert_array_equal(g, g_ref)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_quadratic(self, shape):
        A = random_spd(10, 8)
        obj = quadratic_new(A)
        A = 0.5 * (A + A.T)
        x = self.point(shape, 9)
        g_ref = x @ A
        f_ref = 0.5 * np.einsum("...i,...i->...", x @ A, x)
        self.assert_oracles_equal(obj, x, f_ref, g_ref)

    def test_scalar_quadratic_over_many_runs(self):
        """d = 1 at (10 000, 1), the supermartingale trace's shape."""
        obj = quadratic_new(np.array([[2.5]]))
        x = self.point((10_000, 1), 10)
        A = np.array([[2.5]])
        self.assert_oracles_equal(
            obj, x, 0.5 * np.einsum("...i,...i->...", x @ A, x), x @ A)

    def test_scalar_input_still_raises(self):
        X, y = synthetic_blobs(50, 1, seed=3)
        for obj in (quadratic_new(np.array([[2.5]])), logreg_new(X, y, refine_tol=None)):
            with pytest.raises(ValueError):
                obj.grad(np.float64(0.5))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_logistic(self, shape):
        X, y = synthetic_blobs(500, 10, seed=3)
        N = len(y)
        obj = logreg_new(X, y, refine_tol=None)
        Xs = (1.0 - 2.0 * y)[:, None] * X
        XsT = np.ascontiguousarray(Xs.T)
        beta = 0.3 * self.point(shape, 11)
        u = beta @ XsT
        e = np.exp(-np.abs(u))
        f_ref = (np.log1p(e) + np.maximum(u, 0.0)).sum(axis=-1) / N
        g_ref = (np.maximum(e, u >= 0.0) / (1.0 + e)) @ Xs / N
        # an earlier call at a larger shape must not leak into these
        obj.eval(np.stack([beta, beta]))
        assert np.shape(obj.eval(beta)) == f_ref.shape
        self.assert_oracles_equal(obj, beta, f_ref, g_ref)


class TestLogisticOptimum:
    def test_invalid_tolerance(self):
        with pytest.raises(ValueError, match="refine_tol"):
            logreg_new(*synthetic_blobs(20, 2, seed=0), refine_tol=0.0)

    @pytest.mark.parametrize("X, y", [
        ([[1.0, 0.0], [2.0, 1.0], [-1.0, 0.0], [-2.0, -1.0]], [1.0, 1.0, 0.0, 0.0]),
        ([[1.0], [-1.0]], [1.0, 0.0]),
        # an all-zero row keeps a margin of 0 at every b; the other rows are separable
        ([[0.0, 0.0], [-2.0, -2.0], [2.0, 2.0]], [1.0, 0.0, 1.0]),
    ], ids=["four-row", "two-row", "zero-row"])
    def test_separable_data_raises_its_own_error(self, X, y):
        # no finite minimizer: the gradient tends to 0 as |b| grows, and an
        # iterate that puts every nonzero sample on the side of its label proves it
        with pytest.raises(OptimumNotReached, match="the dataset is separable") as info:
            logreg_new(np.array(X), np.array(y))
        b = np.array(str(info.value).split("[")[1].split("]")[0].split(), dtype=float)
        live = np.array(X).any(axis=1)
        z = (np.array(X) @ b)[live]
        assert np.all(np.where(np.array(y)[live] == 1.0, z > 0.0, z < 0.0))

    @pytest.mark.parametrize("X, y", [
        ([[1, 0], [-1, 0], [0, 1], [0, 1], [0, -1], [0, 0.5]], [1, 0, 1, 0, 1, 0]),
        # the Hessian's least eigenvalue decays below rounding as x_1 -> -inf
        ([[-1, 0], [1, 0], [0, 3], [0, -2]], [1, 0, 0, 0]),
        # an all-zero row, and two equal rows with both labels on the separating line
        ([[0, 0], [-2, -2], [2, 2], [1, -1], [1, -1]], [1, 0, 1, 1, 0]),
    ], ids=["two-axes", "fading-curvature", "zero-row"])
    def test_quasi_separable_data_stops_at_the_step_cap(self, X, y):
        """No minimizer, and no b with every margin negative: the gradient
        tends to 0 along a ray, but no iterate may be certified, even at a
        tolerance met where a curvature is too small to resolve."""
        for tol in (1e-10, 1e-4):
            with pytest.raises(OptimumNotReached, match=f"within {_NEWTON_STEPS} Newton steps"):
                logreg_new(np.array(X, dtype=float), np.array(y, dtype=float), refine_tol=tol)

    def test_armijo_halving_on_a_quasi_separable_dataset(self):
        """The smallest dataset of a seeded sweep over small integer features
        whose Newton steps overshoot: (3, -3) and (1, -1) lie on one ray with
        opposite labels, and along b = t (1, 1) their margins stay 0 while
        (2, -3) is classified ever better, so no minimizer exists. The
        halving runs, and the refusal is still the step cap's."""
        lines, first = inspect.getsourcelines(problems.logreg_new)
        halving = first + next(i for i, line in enumerate(lines) if "t /= 2.0" in line)
        ran = set()

        def trace(frame, event, arg):
            if frame.f_code.co_name != "optimum":
                return None
            if event == "line":
                ran.add(frame.f_lineno)
            return trace

        X, y = np.array([[3.0, -3.0], [1.0, -1.0], [2.0, -3.0]]), np.array([1.0, 0.0, 0.0])
        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            with pytest.raises(OptimumNotReached, match=f"within {_NEWTON_STEPS} Newton steps"):
                logreg_new(X, y)
        finally:
            sys.settrace(previous)
        assert halving in ran

    def test_rank_deficient_features(self):
        """A duplicated column splits its weight in two equal halves, and an
        all-zero column keeps weight 0; the loss at the optimum stays."""
        X, y = synthetic_blobs(200, 3, seed=4)
        base = logreg_new(X, y)
        dup = logreg_new(np.column_stack([X, X[:, 1]]), y)
        zero = logreg_new(np.column_stack([X, np.zeros(200)]), y)
        for obj in (dup, zero):
            assert abs(obj.fstar - base.fstar) <= 1e-15
        assert dup.xstar[1] == dup.xstar[3] and zero.xstar[3] == 0.0
        half = base.xstar[1] / 2.0
        np.testing.assert_allclose(dup.xstar, [base.xstar[0], half, base.xstar[2], half],
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(zero.xstar[:3], base.xstar, rtol=0.0, atol=1e-12)

    def test_all_zero_features_keep_the_origin(self):
        obj = logreg_new(np.zeros((4, 2)), np.array([1.0, 0.0, 1.0, 0.0]))
        assert obj.fstar == np.log(2.0)
        np.testing.assert_array_equal(obj.xstar, np.zeros(2))


class TestNoiseModel:
    def test_gaussian_second_moment(self):
        noise = NoiseModel.gaussian(7, 3.0)
        assert noise.sigma2 == pytest.approx(21.0)
        rng = np.random.default_rng(0)
        xi = noise.sample(rng, 200_000)
        assert np.mean(np.sum(xi**2, axis=1)) == pytest.approx(21.0, rel=0.02)

    def test_gaussian_exponential_moment_certified(self):
        for dim in (1, 5, 20):
            noise = NoiseModel.gaussian(dim, 2.5)
            # closed-form chi-square MGF: E exp(||xi||^2/c) = (1 - 2 s^2/c)^(-dim/2)
            ratio = 2.0 * 2.5 / noise.hp_sigma2
            assert ratio < 1.0
            assert (1.0 - ratio) ** (-dim / 2.0) <= np.e + 1e-12

    @pytest.mark.parametrize("s2", [0.01, 0.3, 1e-6, 1.0, 2.5, 1.0 / 3.0, 7.3, 1e4, 1e-300])
    def test_exponential_moment_at_most_e_in_exact_arithmetic(self, s2):
        """Referee at 50 digits: the moment (1 - 2 v/hp_sigma2)^(-d/2) of the
        float hp_sigma2, for the larger of s^2 and the variance scale^2 the
        samples actually have, is at most e (at d = 1 the unrounded scale
        gives exactly e)."""
        import mpmath as mp

        with mp.workdps(50):
            for dim in range(1, 65):
                noise = NoiseModel.gaussian(dim, s2)
                v = max(mp.mpf(s2), mp.mpf(noise.scale) ** 2)
                moment = (1 - 2 * v / mp.mpf(noise.hp_sigma2)) ** (mp.mpf(-dim) / 2)
                assert moment <= mp.e, (dim, moment - mp.e)

    def test_bounded_uniform_norm_never_exceeds_certificate(self):
        noise = NoiseModel.bounded_uniform(4, 1.5)
        rng = np.random.default_rng(1)
        xi = noise.sample(rng, 10_000)
        assert np.all(np.sum(xi**2, axis=1) <= noise.hp_sigma2 + 1e-12)
        assert noise.sigma2 == pytest.approx(4 * 1.5**2 / 3.0)

    def test_noiseless_samples_are_zero(self):
        noise = NoiseModel.noiseless(3)
        rng = np.random.default_rng(2)
        np.testing.assert_array_equal(noise.sample(rng, 5), np.zeros((5, 3)))
        assert noise.hp_sigma2 == 0.0

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel.gaussian(2, -1.0)
        with pytest.raises(ValueError):
            NoiseModel.bounded_uniform(2, -0.1)
        with pytest.raises(ValueError, match="per_coord_var"):
            NoiseModel.gaussian(2, np.nan)
        with pytest.raises(ValueError, match="half_width"):
            NoiseModel.bounded_uniform(2, np.nan)

    def test_unknown_kind_rejected_when_sampled(self):
        noise = NoiseModel("laplace", 2, 1.0, 2.0, 2.0)
        with pytest.raises(ValueError, match="unknown noise kind 'laplace'"):
            noise.sample(np.random.default_rng(0), 3)

    def test_sample_gradient_is_grad_plus_noise(self):
        obj = quadratic_new(np.eye(2))
        noise = NoiseModel.gaussian(2, 1.0)
        x = np.array([1.0, 2.0])
        g1 = sample_gradient(obj, noise, x, np.random.default_rng(5))
        xi = noise.sample(np.random.default_rng(5))
        np.testing.assert_allclose(g1, obj.grad(x) + xi)

    def test_sample_gradient_rejects_nonfinite_query(self):
        obj = quadratic_new(np.eye(2))
        with pytest.raises(ValueError):
            sample_gradient(obj, NoiseModel.noiseless(2), np.array([np.nan, 0.0]),
                            np.random.default_rng(0))


class TestDatasets:
    def test_synthetic_blobs_reproducible_and_balanced(self):
        X1, y1 = synthetic_blobs(500, 3, seed=0)
        X2, y2 = synthetic_blobs(500, 3, seed=0)
        np.testing.assert_array_equal(X1, X2)
        np.testing.assert_array_equal(y1, y2)
        assert 0.3 < np.mean(y1) < 0.7
        assert set(np.unique(y1)) <= {0.0, 1.0}

    def test_csv_roundtrip(self, tmp_path):
        X, y = synthetic_blobs(20, 2, seed=1)
        path = tmp_path / "data.csv"
        rows = np.column_stack([y, X])
        np.savetxt(path, rows, delimiter=",", header="y,x1,x2", comments="")
        X2, y2 = load_csv_dataset(path)
        np.testing.assert_allclose(X2, X, rtol=1e-12)
        np.testing.assert_allclose(y2, y)

    def test_csv_bad_labels_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,x1\n0.5,1.0\n")
        with pytest.raises(ValueError, match="0 or 1"):
            load_csv_dataset(path)
