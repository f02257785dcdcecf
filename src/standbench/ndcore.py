"""Minimal numeric kernel: float64 nonlinearities and seeded RNG streams.

Everything downstream (detector, baselines, metrics) works in 64-bit floats;
gradient verification at the tolerances this package uses is meaningless in
32-bit.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import ConfigError

# Cubic coefficient of the tanh-form GELU. The tanh approximation is used
# instead of erf because it is portable and has a closed-form derivative.
GELU_CUBIC = 0.044715
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def sigmoid(x):
    """Numerically stable logistic function, exact for |x| up to ~1e3.

    With e = e^-|x|, it is 1/(1+e) for x >= 0 and e/(1+e) otherwise, so the
    exponential argument is never positive.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e) / (1.0 + e)
    return out if out.ndim else float(out)


def gelu(x, with_tanh: bool = False, out=None):
    """GELU in its tanh form: 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3))).

    ``with_tanh=True`` returns ``(gelu(x), tanh term)``; a backward pass can
    hand the tanh term to :func:`gelu_grad` instead of recomputing it.
    ``out`` is three arrays shaped like x: the result, the tanh term and
    scratch space, so that no temporary is allocated; the bits are the same.
    """
    x = np.asarray(x, dtype=np.float64)
    if out is None:
        out = (np.empty_like(x), np.empty_like(x), np.empty_like(x))
    result, t, scratch = out
    np.multiply(x, x, out=t)
    t *= GELU_CUBIC
    t *= x
    t += x
    t *= _SQRT_2_OVER_PI
    np.tanh(t, out=t)
    np.multiply(x, 0.5, out=result)
    result *= np.add(t, 1.0, out=scratch)
    if with_tanh:
        return result, t
    return result if result.ndim else float(result)


def gelu_grad(x, t=None, out=None):
    """Exact derivative of the tanh-form GELU.

    ``t`` is the tanh term from ``gelu(x, with_tanh=True)``; it is recomputed
    when not given, with the same result. ``out`` is three arrays shaped like
    x: the result and scratch space, so that no temporary is allocated; the
    bits are the same.
    """
    # 0.5*(1 + t) + 0.5*x*(1 - t*t) * sqrt(2/pi)*(1 + 3*0.044715*x^2), rounded
    # step by step in that order
    x = np.asarray(x, dtype=np.float64)
    if t is None:
        t = gelu(x, with_tanh=True)[1]
    if out is None:
        out = (np.empty_like(x), np.empty_like(x), np.empty_like(x))
    result, d_inner, scratch = out
    np.multiply(x, x, out=d_inner)
    d_inner *= 3.0 * GELU_CUBIC
    d_inner += 1.0
    d_inner *= _SQRT_2_OVER_PI
    np.multiply(t, t, out=result)
    np.subtract(1.0, result, out=result)
    np.multiply(x, 0.5, out=scratch)
    scratch *= result
    scratch *= d_inner
    np.add(t, 1.0, out=result)
    result *= 0.5
    result += scratch
    return result if result.ndim else float(result)


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Seeded PCG64 generator, splittable by stream index.

    PCG64 is a fixed, documented algorithm with platform-stable output, unlike
    the interpreter's global Mersenne Twister which is never used here. Equal
    (seed, stream) pairs produce identical draw sequences everywhere.
    """
    if seed < 0:
        raise ConfigError(f"a seed must be >= 0, got {seed}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.PCG64(ss))
