import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdmlab.problems import (
    NoiseModel,
    fstar_refine,
    load_csv_dataset,
    logreg_new,
    quadratic_new,
    sample_gradient,
    synthetic_blobs,
)


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

    def test_refined_optimum_has_small_gradient(self):
        X, y = synthetic_blobs(60, 5, seed=7)
        obj = logreg_new(X, y)
        assert np.linalg.norm(obj.grad(obj.xstar)) <= 1e-10

    def test_smoothness_constant_bounds_hessian(self):
        X, y = synthetic_blobs(40, 3, seed=9)
        obj = logreg_new(X, y, refine_tol=None)
        # Hessian at any point is X^T D X / N with D entries <= 1/4
        H0 = X.T @ X / (4.0 * len(y))
        assert obj.lipschitz == pytest.approx(np.linalg.eigvalsh(H0)[-1], rel=1e-8)

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
        gap, g2 = obj.gap_and_grad(x)
        np.testing.assert_allclose(gap, obj.f_gap(x), rtol=1e-15)
        np.testing.assert_array_equal(g2, g)

    @pytest.mark.parametrize("name", ["quadratic", "logreg"])
    def test_gap_and_grad_falls_back_to_eval_and_grad(self, name):
        obj = replace(one_of_each(name), value_and_grad=None)
        x = np.random.default_rng(4).standard_normal((5, 4))
        gap, g = obj.gap_and_grad(x)
        np.testing.assert_array_equal(gap, obj.f_gap(x))
        np.testing.assert_array_equal(g, obj.grad(x))


class TestFstarRefine:
    def test_quadratic_optimum_returned_unchanged(self):
        obj = quadratic_new(random_spd(3, 11))
        fstar, xstar = fstar_refine(obj, 1e-10)
        assert fstar == 0.0
        np.testing.assert_array_equal(xstar, np.zeros(3))

    def test_invalid_tolerance(self):
        obj = quadratic_new(np.eye(2))
        with pytest.raises(ValueError):
            fstar_refine(obj, 0.0)


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
