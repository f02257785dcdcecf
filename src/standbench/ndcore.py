"""Minimal numeric kernel: float64 nonlinearities and seeded RNG streams.

Everything downstream (detector, baselines, metrics) works in 64-bit floats;
gradient verification at the tolerances this package uses is meaningless in
32-bit.
"""

from __future__ import annotations

import math

import numpy as np

# Cubic coefficient of the tanh-form GELU. The tanh approximation is used
# instead of erf because it is portable and has a closed-form derivative.
GELU_CUBIC = 0.044715
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


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


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Seeded PCG64 generator, splittable by stream index.

    PCG64 is a fixed, documented algorithm with platform-stable output, unlike
    the interpreter's global Mersenne Twister which is never used here. Equal
    (seed, stream) pairs produce identical draw sequences everywhere.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.PCG64(ss))
