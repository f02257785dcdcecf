"""Minimal dense numeric kernel: float64 matrices, nonlinearities, seeded RNG.

Everything downstream (detector, baselines, metrics) works in 64-bit floats;
gradient verification at the tolerances this package uses is meaningless in
32-bit. Arrays are plain C-contiguous numpy ndarrays, so `Matrix` here simply
means a 2-D float64 array with row-major storage.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import ConfigError

# Cubic coefficient of the tanh-form GELU. The tanh approximation is used
# instead of erf because it is portable and has a closed-form derivative.
GELU_CUBIC = 0.044715
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def matrix(rows: int, cols: int, values) -> np.ndarray:
    """Build a rows x cols float64 matrix from a flat row-major sequence."""
    out = np.asarray(values, dtype=np.float64).reshape(-1)
    if out.size != rows * cols:
        raise ConfigError(
            f"matrix needs {rows * cols} values for shape ({rows}, {cols}), got {out.size}"
        )
    if not np.all(np.isfinite(out)):
        raise ConfigError("matrix values must be finite")
    return np.ascontiguousarray(out.reshape(rows, cols))


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with explicit dimension checking."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ConfigError(f"matmul expects 2-D operands, got {a.ndim}-D and {b.ndim}-D")
    if a.shape[1] != b.shape[0]:
        raise ConfigError(f"matmul dimension mismatch: {a.shape} x {b.shape}")
    return a @ b


def sigmoid(x):
    """Numerically stable logistic function, exact for |x| up to ~1e3.

    Uses the branch form 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) otherwise so
    the exponential argument is never positive.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


def sigmoid_grad(x):
    s = sigmoid(np.asarray(x, dtype=np.float64))
    return s * (1.0 - s)


def gelu(x, with_tanh: bool = False):
    """GELU in its tanh form: 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3))).

    ``with_tanh=True`` returns ``(gelu(x), tanh term)``; a backward pass can
    hand the tanh term to :func:`gelu_grad` instead of recomputing it.
    """
    x = np.asarray(x, dtype=np.float64)
    x_sq = x * x
    inner = _SQRT_2_OVER_PI * (x + GELU_CUBIC * x_sq * x)
    t = np.tanh(inner)
    out = 0.5 * x * (1.0 + t)
    if with_tanh:
        return out, t
    return out if out.ndim else float(out)


def gelu_grad(x, t=None):
    """Exact derivative of the tanh-form GELU.

    ``t`` is the tanh term from ``gelu(x, with_tanh=True)``; it is recomputed
    when not given, with the same result.
    """
    x = np.asarray(x, dtype=np.float64)
    x_sq = x * x
    if t is None:
        t = np.tanh(_SQRT_2_OVER_PI * (x + GELU_CUBIC * x_sq * x))
    d_inner = _SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_CUBIC * x_sq)
    out = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner
    return out if out.ndim else float(out)


def tanh_grad(x):
    t = np.tanh(np.asarray(x, dtype=np.float64))
    return 1.0 - t**2


def layernorm(v, gain, bias, eps: float = 1e-5) -> np.ndarray:
    """Normalize a vector to zero mean / unit population variance, then scale and shift.

    Constant inputs are absorbed by eps and map to `bias`.
    """
    v = np.asarray(v, dtype=np.float64)
    gain = np.asarray(gain, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if not (v.shape == gain.shape == bias.shape) or v.ndim != 1 or v.size < 1:
        raise ConfigError("layernorm expects three equal-length 1-D vectors")
    if eps <= 0:
        raise ConfigError("layernorm eps must be > 0")
    mu = v.mean()
    var = v.var()
    return (v - mu) / np.sqrt(var + eps) * gain + bias


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Seeded PCG64 generator, splittable by stream index.

    PCG64 is a fixed, documented algorithm with platform-stable output, unlike
    the interpreter's global Mersenne Twister which is never used here. Equal
    (seed, stream) pairs produce identical draw sequences everywhere.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.PCG64(ss))
