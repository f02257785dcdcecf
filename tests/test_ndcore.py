import math

import numpy as np
import pytest

from standbench import ndcore
from standbench.exceptions import ConfigError


def reference_matmul(a, b):
    """Triple-loop oracle, independent of the library path."""
    n, k = a.shape
    k2, m = b.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        a = ndcore.matrix(2, 2, [1, 2, 3, 4])
        assert np.array_equal(ndcore.matmul(np.eye(2), a), a)

    def test_reference_oracle(self):
        a = ndcore.matrix(2, 2, [1, 2, 3, 4])
        b = ndcore.matrix(2, 1, [5, 6])
        assert np.allclose(ndcore.matmul(a, b), [[17], [39]])
        rng = ndcore.make_rng(0)
        for _ in range(5):
            x = rng.standard_normal((3, 4))
            y = rng.standard_normal((4, 2))
            assert np.allclose(ndcore.matmul(x, y), reference_matmul(x, y), rtol=1e-12)

    def test_zero_annihilator(self):
        z = np.zeros((2, 2))
        b = ndcore.make_rng(1).standard_normal((2, 5))
        assert np.array_equal(ndcore.matmul(z, b), np.zeros((2, 5)))

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            ndcore.matmul(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_associativity_random_chains(self):
        rng = ndcore.make_rng(42)
        for _ in range(20):
            a, b, c = (rng.standard_normal((4, 4)) for _ in range(3))
            left = ndcore.matmul(ndcore.matmul(a, b), c)
            right = ndcore.matmul(a, ndcore.matmul(b, c))
            assert np.allclose(left, right, rtol=1e-10)

    def test_matrix_validates(self):
        with pytest.raises(ConfigError):
            ndcore.matrix(2, 2, [1, 2, 3])
        with pytest.raises(ConfigError):
            ndcore.matrix(1, 2, [1, float("nan")])


class TestNonlinearities:
    def test_gelu_zero(self):
        assert ndcore.gelu(0.0) == 0.0

    def test_gelu_at_three(self):
        # high-precision evaluation of 0.5*x*(1+tanh(sqrt(2/pi)*(x+0.044715 x^3)))
        x = 3.0
        expected = 0.5 * x * (1 + math.tanh(math.sqrt(2 / math.pi) * (x + 0.044715 * x**3)))
        assert abs(expected - 2.996362607918227) < 1e-12
        assert ndcore.gelu(3.0) == pytest.approx(expected, rel=1e-12)
        assert ndcore.gelu(3.0) == pytest.approx(2.9964, abs=5e-5)

    @pytest.mark.parametrize("x", [-2.0, -0.5, 0.5, 2.0])
    def test_gelu_grad_finite_difference(self, x):
        h = 1e-5
        numeric = (ndcore.gelu(x + h) - ndcore.gelu(x - h)) / (2 * h)
        assert ndcore.gelu_grad(x) == pytest.approx(numeric, rel=1e-6)

    def test_gelu_grad_reuses_forward_tanh_bitwise(self):
        x = ndcore.make_rng(3).standard_normal((7, 5)) * 3.0
        out, t = ndcore.gelu(x, with_tanh=True)
        assert np.array_equal(out, ndcore.gelu(x))
        assert np.array_equal(ndcore.gelu_grad(x, t), ndcore.gelu_grad(x))

    def test_sigmoid_center(self):
        assert ndcore.sigmoid(0.0) == 0.5

    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0, 100.0])
    def test_sigmoid_symmetry(self, x):
        assert ndcore.sigmoid(-x) == pytest.approx(1.0 - ndcore.sigmoid(x), abs=1e-15)

    def test_sigmoid_saturation_no_overflow(self):
        with np.errstate(over="raise"):
            assert ndcore.sigmoid(100.0) == pytest.approx(1.0, abs=1e-12)
            assert ndcore.sigmoid(1000.0) == pytest.approx(1.0, abs=1e-12)
            assert ndcore.sigmoid(-1000.0) == pytest.approx(0.0, abs=1e-12)

    def test_all_gradients_match_finite_differences(self):
        # fixed 20-point grid, h=1e-5, rel err < 1e-6
        grid = np.linspace(-3.0, 3.0, 20)
        h = 1e-5
        pairs = [
            (ndcore.gelu, ndcore.gelu_grad),
            (ndcore.sigmoid, ndcore.sigmoid_grad),
            (np.tanh, ndcore.tanh_grad),
        ]
        for fn, grad in pairs:
            numeric = (np.asarray(fn(grid + h)) - np.asarray(fn(grid - h))) / (2 * h)
            assert np.allclose(grad(grid), numeric, rtol=1e-6, atol=1e-9)


class TestLayernorm:
    def test_constant_vector_absorbed_by_eps(self):
        out = ndcore.layernorm(np.full(5, 3.0), np.ones(5), np.zeros(5))
        assert np.allclose(out, 0.0)
        assert np.all(np.isfinite(out))

    def test_normalization_property(self):
        rng = ndcore.make_rng(3)
        v = rng.standard_normal(32)
        out = ndcore.layernorm(v, np.ones(32), np.zeros(32))
        assert abs(out.mean()) < 1e-10
        assert out.var() == pytest.approx(1.0, rel=1e-3)  # eps-induced slack

    def test_two_element_case(self):
        out = ndcore.layernorm(
            np.array([1.0, 3.0]), np.ones(2), np.zeros(2), eps=1e-12
        )
        assert np.allclose(out, [-1.0, 1.0], atol=1e-6)

    def test_shape_and_eps_validation(self):
        with pytest.raises(ConfigError):
            ndcore.layernorm(np.ones(3), np.ones(2), np.zeros(3))
        with pytest.raises(ConfigError):
            ndcore.layernorm(np.ones(3), np.ones(3), np.zeros(3), eps=0.0)


class TestRng:
    def test_equal_seeds_equal_streams(self):
        a = ndcore.make_rng(123)
        b = ndcore.make_rng(123)
        assert np.array_equal(a.uniform(size=10_000), b.uniform(size=10_000))

    def test_streams_differ(self):
        a = ndcore.make_rng(123, stream=0)
        b = ndcore.make_rng(123, stream=1)
        assert not np.array_equal(a.uniform(size=100), b.uniform(size=100))

    def test_seeds_differ(self):
        assert not np.array_equal(
            ndcore.make_rng(1).uniform(size=100), ndcore.make_rng(2).uniform(size=100)
        )
