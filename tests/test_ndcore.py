import math

import numpy as np
import pytest

from lstm_oracle import layernorm
from standbench import ndcore
from standbench.exceptions import ConfigError


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
        # the sigmoid and tanh derivatives in the forms the LSTM backward uses
        pairs = [
            (ndcore.gelu, ndcore.gelu_grad),
            (ndcore.sigmoid, lambda x: ndcore.sigmoid(x) * (1.0 - ndcore.sigmoid(x))),
            (np.tanh, lambda x: 1.0 - np.tanh(x) ** 2),
        ]
        for fn, grad in pairs:
            numeric = (np.asarray(fn(grid + h)) - np.asarray(fn(grid - h))) / (2 * h)
            assert np.allclose(grad(grid), numeric, rtol=1e-6, atol=1e-9)


class TestLayernorm:
    """The LayerNorm oracle that the embedding forward is compared against."""

    def test_constant_vector_absorbed_by_eps(self):
        out = layernorm(np.full(5, 3.0), np.ones(5), np.zeros(5))
        assert np.allclose(out, 0.0)
        assert np.all(np.isfinite(out))

    def test_normalization_property(self):
        rng = ndcore.make_rng(3)
        v = rng.standard_normal(32)
        out = layernorm(v, np.ones(32), np.zeros(32))
        assert abs(out.mean()) < 1e-10
        assert out.var() == pytest.approx(1.0, rel=1e-3)  # eps-induced slack

    def test_two_element_case(self):
        out = layernorm(
            np.array([1.0, 3.0]), np.ones(2), np.zeros(2), eps=1e-12
        )
        assert np.allclose(out, [-1.0, 1.0], atol=1e-6)

    def test_shape_and_eps_validation(self):
        with pytest.raises(ConfigError):
            layernorm(np.ones(3), np.ones(2), np.zeros(3))
        with pytest.raises(ConfigError):
            layernorm(np.ones(3), np.ones(3), np.zeros(3), eps=0.0)


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
