"""Supervised time-series anomaly detector: embedding MLP -> bidirectional LSTM
-> pointwise linear scorer, trained with BCE on per-timestep labels.

The forward, backward (full BPTT through both directions, LayerNorm and GELU)
and both optimizers are written out explicitly in numpy so gradients can be
verified against finite differences. Parameters and gradients are flat
``dict[str, ndarray]`` keyed like ``"embed.0.w"``, ``"lstm.0.fwd.w_ih"``,
``"head.w"``; gradients mirror parameters key for key.

Gate layout inside every ``4d`` LSTM tensor is ``[input, forget, cell, output]``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, asdict

import numpy as np

from .data import WindowSet, reassemble, window_starts
from .exceptions import ConfigError, ContractError
from .ndcore import gelu, gelu_grad, make_rng, sigmoid

LAYERNORM_EPS = 1e-5
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Seed-stream roles, so init and shuffling never share draws.
_STREAM_INIT = 0
_STREAM_SHUFFLE = 1


@dataclass
class StandConfig:
    input_channels: int
    d_model: int = 64
    mlp_layers: int = 2
    tem_layers: int = 1
    bidirectional: bool = True
    use_embedding: bool = True
    use_tem: bool = True
    window: int = 32
    epochs: int = 30
    batch_size: int = 128
    learning_rate: float = 3e-3
    optimizer: str = "adam"
    seed: int = 0

    def __post_init__(self):
        if self.input_channels < 1:
            raise ConfigError("input_channels must be >= 1")
        if self.d_model < 1 or self.tem_layers < 1 or self.mlp_layers < 1:
            raise ConfigError("d_model, tem_layers and mlp_layers must be >= 1")
        if self.window < 2:
            raise ConfigError("window must be >= 2")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if self.optimizer not in ("adam", "gd"):
            raise ConfigError(f"unknown optimizer '{self.optimizer}'")

    @property
    def directions(self) -> tuple[str, ...]:
        return ("fwd", "bwd") if self.bidirectional else ("fwd",)

    @property
    def embed_width(self) -> int:
        return self.d_model if self.use_embedding else self.input_channels

    @property
    def encoder_width(self) -> int:
        if not self.use_tem:
            return self.embed_width
        return self.d_model * len(self.directions)

    def to_dict(self) -> dict:
        return asdict(self)


def init_params(config: StandConfig, rng=None) -> dict[str, np.ndarray]:
    """Seeded initialization: uniform(+-1/sqrt(fan_in)) weights, forget bias +1.

    Recurrent weights use uniform(+-1/sqrt(d_model)); LayerNorm starts at
    gain 1 / shift 0, all other biases at 0.
    """
    rng = rng if rng is not None else make_rng(config.seed, _STREAM_INIT)
    d = config.d_model
    params: dict[str, np.ndarray] = {}
    if config.use_embedding:
        fan_in = config.input_channels
        for i in range(config.mlp_layers):
            lim = 1.0 / np.sqrt(fan_in)
            params[f"embed.{i}.w"] = rng.uniform(-lim, lim, size=(d, fan_in))
            params[f"embed.{i}.b"] = np.zeros(d)
            params[f"embed.{i}.gain"] = np.ones(d)
            params[f"embed.{i}.beta"] = np.zeros(d)
            fan_in = d
    if config.use_tem:
        in_width = config.embed_width
        for layer in range(config.tem_layers):
            for direction in config.directions:
                lim_in = 1.0 / np.sqrt(in_width)
                lim_rec = 1.0 / np.sqrt(d)
                key = f"lstm.{layer}.{direction}"
                params[f"{key}.w_ih"] = rng.uniform(-lim_in, lim_in, size=(4 * d, in_width))
                params[f"{key}.w_hh"] = rng.uniform(-lim_rec, lim_rec, size=(4 * d, d))
                bias = np.zeros(4 * d)
                bias[d : 2 * d] = 1.0
                params[f"{key}.b"] = bias
            in_width = d * len(config.directions)
    lim = 1.0 / np.sqrt(config.encoder_width)
    params["head.w"] = rng.uniform(-lim, lim, size=config.encoder_width)
    params["head.b"] = np.zeros(1)
    return params


def check_params(params: dict[str, np.ndarray], config: StandConfig) -> None:
    expected = init_params(config, rng=make_rng(0))
    if set(params) != set(expected):
        raise ConfigError(
            f"parameter keys do not match config: missing {sorted(set(expected) - set(params))}, "
            f"unexpected {sorted(set(params) - set(expected))}"
        )
    for key, ref in expected.items():
        if params[key].shape != ref.shape:
            raise ConfigError(f"{key}: shape {params[key].shape}, expected {ref.shape}")


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


@dataclass
class _EmbedLayerCache:
    x: np.ndarray  # layer input (B, T, in)
    a: np.ndarray  # affine pre-activation
    tanh: np.ndarray  # tanh term of the GELU, reused by its derivative
    xhat: np.ndarray  # normalized gelu output
    inv_std: np.ndarray  # (B, T, 1)


@dataclass
class _LstmCache:
    """One layer, all directions, step-major: row s of a (W, D, B, .) array is
    step s of each direction in its own processing order (the backward
    direction's step s reads timestep W-1-s)."""

    x: np.ndarray  # layer input (B, W, in), natural time order
    gates: np.ndarray  # (W, D, B, 4d) activations in [i, f, g, o] order
    c: np.ndarray  # (W+1, D, B, d); row 0 is the zero initial state
    tanh_c: np.ndarray  # (W, D, B, d)
    h: np.ndarray  # (W+1, D, B, d); row 0 is the zero initial state


def _gate_activations(z, d):
    """In-place gate nonlinearities on a (..., 4d) pre-activation block.

    Sigmoid is evaluated as 0.5*(1 + tanh(z/2)) (identical function, saturates
    without overflow) so one tanh call covers all four gates.
    """
    z[..., : 2 * d] *= 0.5
    z[..., 3 * d :] *= 0.5
    np.tanh(z, out=z)
    z[..., : 2 * d] += 1.0
    z[..., : 2 * d] *= 0.5
    z[..., 3 * d :] += 1.0
    z[..., 3 * d :] *= 0.5
    return z[..., :d], z[..., d : 2 * d], z[..., 2 * d : 3 * d], z[..., 3 * d :]


@dataclass
class ForwardTrace:
    """Everything the backward pass needs: embedding caches batched as
    (B, T, ...), LSTM caches step-major as (T, D, B, ...)."""

    x: np.ndarray
    embed: list[_EmbedLayerCache]
    h_embed: np.ndarray
    lstm: list[_LstmCache]
    h_enc: np.ndarray
    logits: np.ndarray  # (B, T)


def _embed_layer_forward(x, w, b, gain, beta, keep: bool = True):
    """One affine → GELU → LayerNorm layer; without ``keep`` it builds no cache."""
    a = x @ w.T + b
    g, tanh = gelu(a, with_tanh=True) if keep else (gelu(a), None)
    mu = g.mean(axis=-1, keepdims=True)
    var = g.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LAYERNORM_EPS)
    xhat = (g - mu) * inv_std
    cache = _EmbedLayerCache(x=x, a=a, tanh=tanh, xhat=xhat, inv_std=inv_std) if keep else None
    return xhat * gain + beta, cache


def _embed(x, params, config: StandConfig, keep: bool = True):
    """Per-timestep embedding MLP over (..., C); identity when use_embedding=false.

    Without ``keep`` no layer's backward cache is built or held (inference).
    """
    caches = []
    if config.use_embedding:
        for layer in range(config.mlp_layers):
            x, cache = _embed_layer_forward(
                x, *(params[f"embed.{layer}.{name}"] for name in ("w", "b", "gain", "beta")),
                keep=keep,
            )
            if keep:
                caches.append(cache)
    return x, caches


def _lstm_keys(layer: int, config: StandConfig) -> list[str]:
    return [f"lstm.{layer}.{direction}" for direction in config.directions]


def _project(x, keys, params):
    """Input projection of every direction: (..., in) -> (..., D, 4d)."""
    out = np.empty(x.shape[:-1] + (len(keys), len(params[keys[0] + ".b"])))
    for k, key in enumerate(keys):
        # straight into out: a (..., 4d) temporary would be a third of infer's peak memory
        np.matmul(x, params[key + ".w_ih"].T, out=out[..., k, :])
        out[..., k, :] += params[key + ".b"]
    return out


def _step_rows(W: int, D: int, starts) -> np.ndarray:
    """(W, D, B) input row that each direction reads at each step: the forward
    direction's step s reads row start+s, the backward one's start+W-1-s."""
    s = np.arange(W)
    return np.stack((s, W - 1 - s)[:D], axis=1)[:, :, None] + starts


def _lstm_recurrence(proj, rows, w_hh_t, keep: bool):
    """One time loop over every direction of a layer, one stacked matmul per step.

    ``proj`` (N, D, 4d) holds input projections, and step s of direction k
    for window b reads row ``rows[s, k, b]``; ``w_hh_t`` (D, d, 4d) holds the
    transposed recurrent weights. Returns the layer output (B, W, D*d) in
    natural time order and the step-major caches (gates, c, tanh_c, h): gates
    (W, D, B, 4d), tanh_c (W, D, B, d), c and h (W+1, D, B, d) with a zero
    row 0. Without ``keep`` the caches hold only the latest step, so no
    (W, D, B, .) array is allocated.
    """
    W, D, B = rows.shape
    d4 = proj.shape[-1]
    d = d4 // 4
    dirs = np.arange(D)[:, None]
    out_rows = _step_rows(W, D, np.arange(0, B * W, W))
    n = W if keep else 1
    gates = np.empty((n, D, B, d4))
    tanh_c = np.empty((n, D, B, d))
    c = np.zeros((n + 1, D, B, d))
    h = np.zeros((n + 1, D, B, d))
    rec = np.empty((D, B, d4))
    out = np.empty((B * W, D, d))
    for s in range(W):
        prev, cur = s % (n + 1), (s + 1) % (n + 1)
        z = gates[s % n]
        np.add(proj[rows[s], dirs], np.matmul(h[prev], w_hh_t, out=rec), out=z)
        i_t, f_t, g_t, o_t = _gate_activations(z, d)
        c_t, tc_t = c[cur], tanh_c[s % n]
        np.multiply(f_t, c[prev], out=c_t)
        c_t += i_t * g_t
        np.tanh(c_t, out=tc_t)
        np.multiply(o_t, tc_t, out=h[cur])
        out[out_rows[s], dirs] = h[cur]
    return out.reshape(B, W, D * d), (gates, c, tanh_c, h)


def _lstm_stack(h, params, config: StandConfig, keep: bool, proj=None, rows=None):
    """LSTM layers over batch-major windows h (B, W, in) -> ((B, W, D*d), caches).

    ``proj`` (N, D, 4d) and ``rows`` (W, D, B) stand in for layer 0's input
    projection and the rows its steps read: ``infer`` projects a whole series
    once, and passes no ``h``.
    """
    caches: list[_LstmCache] = []
    for layer in range(config.tem_layers):
        keys = _lstm_keys(layer, config)
        if proj is None:
            B, W = h.shape[:2]
            proj = _project(h.reshape(B * W, -1), keys, params)
            rows = _step_rows(W, len(keys), np.arange(0, B * W, W))
        # C-contiguous: a transposed operand takes a BLAS path whose rounding
        # depends on the batch size, which would break batch-grouping invariance
        w_hh_t = np.stack([np.ascontiguousarray(params[key + ".w_hh"].T) for key in keys])
        out, (gates, c, tanh_c, steps) = _lstm_recurrence(proj, rows, w_hh_t, keep)
        if keep:
            caches.append(_LstmCache(x=h, gates=gates, c=c, tanh_c=tanh_c, h=steps))
        h, proj = out, None
    return h, caches


def forward_batch(
    x: np.ndarray, params: dict[str, np.ndarray], config: StandConfig
) -> tuple[np.ndarray, ForwardTrace]:
    """Batched forward over (B, T, C) windows; returns (logits (B, T), trace)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != config.input_channels:
        raise ConfigError(f"expected input (B, T, {config.input_channels}), got {x.shape}")
    h_embed, embed_caches = _embed(x, params, config)
    h_enc, lstm_caches = h_embed, []
    if config.use_tem:
        h_enc, lstm_caches = _lstm_stack(h_embed, params, config, keep=True)
    logits = h_enc @ params["head.w"] + params["head.b"][0]
    return logits, ForwardTrace(
        x=x, embed=embed_caches, h_embed=h_embed, lstm=lstm_caches, h_enc=h_enc, logits=logits
    )


def forward(x, params, config: StandConfig) -> tuple[np.ndarray, ForwardTrace]:
    """Single-window forward over (T, C); returns (logits (T,), trace)."""
    logits, trace = forward_batch(np.asarray(x, dtype=np.float64)[None], params, config)
    return logits[0], trace


# ---------------------------------------------------------------------------
# loss and backward
# ---------------------------------------------------------------------------


def bce_loss(logits, labels) -> float:
    """Mean binary cross-entropy on logits, in the fused stable form
    max(s,0) - s*y + log(1 + exp(-|s|)). Handles (T,) and (B, T) inputs;
    batch inputs are averaged per sample then over the batch (equal T, so a
    flat mean).
    """
    s = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if s.shape != y.shape:
        raise ConfigError(f"logits {s.shape} and labels {y.shape} differ")
    return float(np.mean(np.maximum(s, 0.0) - s * y + np.log1p(np.exp(-np.abs(s)))))


def _layernorm_backward(dy, cache: _EmbedLayerCache, gain):
    dgain = np.sum(dy * cache.xhat, axis=(0, 1))
    dbeta = np.sum(dy, axis=(0, 1))
    dxhat = dy * gain
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * cache.xhat).mean(axis=-1, keepdims=True)
    dg = cache.inv_std * (dxhat - m1 - cache.xhat * m2)
    return dg, dgain, dbeta


def _lstm_recurrence_backward(cache: _LstmCache, dh_steps, w_hh):
    """BPTT through ``_lstm_recurrence`` for every direction at once.

    ``dh_steps`` (W, D, B, d) is the loss gradient of each step's output and
    ``w_hh`` (D, 4d, d) the recurrent weights. Returns the gate pre-activation
    gradients dz (D, B, W, 4d), batch-major with each direction's steps in its
    processing order, so the weight-gradient sums run over (batch, step).
    """
    W, D, B, d = dh_steps.shape
    dz_all = np.empty((D, B, W, 4 * d))
    dh_rec = np.zeros((D, B, d))
    dc_rec = np.zeros((D, B, d))
    for s in range(W - 1, -1, -1):
        dh = dh_steps[s] + dh_rec
        tc = cache.tanh_c[s]
        step = cache.gates[s]
        i_t, f_t = step[..., :d], step[..., d : 2 * d]
        g_t, o_t = step[..., 2 * d : 3 * d], step[..., 3 * d :]
        do = dh * tc
        dc = dh * o_t * (1.0 - tc * tc) + dc_rec
        dz = dz_all[:, :, s]
        dz[..., :d] = dc * g_t * i_t * (1.0 - i_t)
        dz[..., d : 2 * d] = dc * cache.c[s] * f_t * (1.0 - f_t)
        dz[..., 2 * d : 3 * d] = dc * i_t * (1.0 - g_t * g_t)
        dz[..., 3 * d :] = do * o_t * (1.0 - o_t)
        dh_rec = np.matmul(dz, w_hh)
        dc_rec = dc * f_t
    return dz_all


def backward(
    trace: ForwardTrace, labels, params: dict[str, np.ndarray], config: StandConfig
) -> dict[str, np.ndarray]:
    """Exact gradients of bce_loss(forward(x)) for every parameter tensor."""
    y = np.asarray(labels, dtype=np.float64)
    if y.ndim == 1:
        y = y[None]
    B, T = trace.logits.shape
    if y.shape != (B, T):
        raise ConfigError(f"labels {y.shape} do not match logits {(B, T)}")

    grads: dict[str, np.ndarray] = {}
    dlogits = (sigmoid(trace.logits) - y) / (B * T)

    grads["head.w"] = np.einsum("bt,btk->k", dlogits, trace.h_enc)
    grads["head.b"] = np.array([dlogits.sum()])
    dh = dlogits[..., None] * params["head.w"]

    if config.use_tem:
        rows = _step_rows(T, len(config.directions), np.arange(0, B * T, T))
        for layer in range(config.tem_layers - 1, -1, -1):
            cache = trace.lstm[layer]
            keys = _lstm_keys(layer, config)
            dh_steps = dh.reshape(B * T, len(keys), -1)[rows, np.arange(len(keys))[:, None]]
            dz_all = _lstm_recurrence_backward(
                cache, dh_steps, np.stack([params[key + ".w_hh"] for key in keys])
            )
            dh = None
            for k, key in enumerate(keys):
                dz = dz_all[k]
                dz_flat = dz.reshape(B * T, -1)
                x = cache.x if k == 0 else cache.x[:, ::-1]
                h_prev = cache.h[:-1, k].transpose(1, 0, 2)
                grads[key + ".w_ih"] = dz_flat.T @ x.reshape(B * T, -1)
                grads[key + ".w_hh"] = dz_flat.T @ h_prev.reshape(B * T, -1)
                grads[key + ".b"] = dz_flat.sum(axis=0)
                dx = dz @ params[key + ".w_ih"]
                dh = dx if k == 0 else dh + dx[:, ::-1]

    if config.use_embedding:
        for layer in range(config.mlp_layers - 1, -1, -1):
            cache = trace.embed[layer]
            dg, dgain, dbeta = _layernorm_backward(dh, cache, params[f"embed.{layer}.gain"])
            da = dg * gelu_grad(cache.a, cache.tanh)
            da_flat = da.reshape(-1, da.shape[-1])
            grads[f"embed.{layer}.w"] = da_flat.T @ cache.x.reshape(da_flat.shape[0], -1)
            grads[f"embed.{layer}.b"] = da_flat.sum(axis=0)
            grads[f"embed.{layer}.gain"] = dgain
            grads[f"embed.{layer}.beta"] = dbeta
            dh = da @ params[f"embed.{layer}.w"]

    return grads


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            step=0,
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def adam_step(params, grads, state: AdamState, learning_rate: float) -> dict[str, np.ndarray]:
    """One Adam update (beta1=0.9, beta2=0.999, eps=1e-8, bias-corrected).

    Returns new parameters; the moment state is advanced in place.
    """
    state.step += 1
    t = state.step
    out = {}
    for key, p in params.items():
        g = grads[key]
        state.m[key] = ADAM_BETA1 * state.m[key] + (1.0 - ADAM_BETA1) * g
        state.v[key] = ADAM_BETA2 * state.v[key] + (1.0 - ADAM_BETA2) * g * g
        m_hat = state.m[key] / (1.0 - ADAM_BETA1**t)
        v_hat = state.v[key] / (1.0 - ADAM_BETA2**t)
        out[key] = p - learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return out


def gd_step(params, grads, learning_rate: float) -> dict[str, np.ndarray]:
    """Plain gradient descent: theta <- theta - eta * grad."""
    return {key: p - learning_rate * grads[key] for key, p in params.items()}


# ---------------------------------------------------------------------------
# training and inference
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    params: dict[str, np.ndarray]
    loss_history: list[float]  # mean loss per epoch
    steps: int


def train(windows: WindowSet, config: StandConfig) -> TrainResult:
    """Mini-batch training over labeled windows, deterministic given config.seed."""
    if windows.labels is None:
        raise ContractError("supervised training requires labeled windows")
    if windows.values.shape[2] != config.input_channels:
        raise ConfigError(
            f"windows have {windows.values.shape[2]} channels, config expects "
            f"{config.input_channels}"
        )
    x_all = windows.values
    y_all = windows.labels.astype(np.float64)
    n = len(windows)

    params = init_params(config)
    state = AdamState.for_params(params) if config.optimizer == "adam" else None
    shuffle_rng = make_rng(config.seed, _STREAM_SHUFFLE)

    history: list[float] = []
    steps = 0
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(n)
        total = 0.0
        for lo in range(0, n, config.batch_size):
            idx = order[lo : lo + config.batch_size]
            logits, trace = forward_batch(x_all[idx], params, config)
            loss = bce_loss(logits, y_all[idx])
            grads = backward(trace, y_all[idx], params, config)
            if config.optimizer == "adam":
                params = adam_step(params, grads, state, config.learning_rate)
            else:
                params = gd_step(params, grads, config.learning_rate)
            total += loss * len(idx)
            steps += 1
        history.append(total / n)
    return TrainResult(params=params, loss_history=history, steps=steps)


def calibrate_gd_learning_rate(
    windows: WindowSet, config: StandConfig, steps: int = 100, eta0: float = 1.0
) -> tuple[float, list[float]]:
    """Halve eta until `steps` full-batch GD iterations are loss-non-increasing.

    Returns the calibrated eta and its per-step loss history (length steps+1,
    including the initial loss).
    """
    if windows.labels is None:
        raise ContractError("calibration requires labeled windows")
    x = windows.values
    y = windows.labels.astype(np.float64)
    eta = eta0
    while eta > 1e-12:
        params = init_params(config)
        history = []
        logits, trace = forward_batch(x, params, config)
        history.append(bce_loss(logits, y))
        monotone = True
        for _ in range(steps):
            grads = backward(trace, y, params, config)
            params = gd_step(params, grads, eta)
            logits, trace = forward_batch(x, params, config)
            history.append(bce_loss(logits, y))
            if history[-1] > history[-2]:
                monotone = False
                break
        if monotone:
            return eta, history
        eta *= 0.5
    raise ConfigError("could not calibrate a monotone GD learning rate")


def infer(
    x,
    params: dict[str, np.ndarray],
    config: StandConfig,
    stride: int | None = None,
    batch_size: int = 256,
) -> np.ndarray:
    """Score a full (T, C) series: windowed forward, logits averaged per timestep.

    Returns logits; apply a sigmoid for the probability view. The default
    stride W/2 overlaps windows, which smooths scores at window seams. Each
    timestep is embedded and projected into the first LSTM layer once; the
    windows read those rows by index, and no backward trace is kept.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != config.input_channels:
        raise ConfigError(
            f"series has shape {x.shape}, expected (T, {config.input_channels})"
        )
    W = config.window
    stride = stride if stride is not None else max(1, W // 2)
    starts = window_starts(len(x), W, stride)
    h, _ = _embed(x, params, config, keep=False)
    if config.use_tem:
        # the whole series, so no projected row depends on batch_size
        proj = _project(h, _lstm_keys(0, config), params)
    rows = np.empty((len(starts), W))
    for lo in range(0, len(starts), batch_size):
        batch = starts[lo : lo + batch_size]
        n = len(batch)
        if n == 1:
            # one window would send the recurrent product to a matrix-vector
            # kernel that rounds unlike the GEMM of larger batches: run it twice
            batch = np.repeat(batch, 2)
        if config.use_tem:
            rows_b = _step_rows(W, len(config.directions), batch)
            h_enc, _ = _lstm_stack(None, params, config, keep=False, proj=proj, rows=rows_b)
        else:
            h_enc = h[batch[:, None] + np.arange(W)]
        # batch-major (B, W, .) head: a per-window matvec, the same for any batch grouping
        rows[lo : lo + n] = (h_enc @ params["head.w"] + params["head.b"][0])[:n]
    ws = WindowSet(window=W, stride=stride, series_length=len(x), starts=starts,
                   values=None, labels=None)
    return reassemble(ws, rows)


def write_loss_history(path, history) -> None:
    """CSV export of per-epoch mean training loss."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,mean_loss\n")
        for epoch, loss in enumerate(history, start=1):
            fh.write(f"{epoch},{loss!r}\n")


# ---------------------------------------------------------------------------
# complexity probes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlopEstimate:
    embed: int
    temporal: int
    scoring: int

    @property
    def total(self) -> int:
        return self.embed + self.temporal + self.scoring


def flop_estimate(config: StandConfig, T: int) -> FlopEstimate:
    """Leading-order per-pass cost: T*C*d embedding, 8*T*d^2 per LSTM layer and
    direction (4 gates x input+recurrent products), T*d scoring. Disabled
    components contribute zero; every term is linear in T.
    """
    d = config.d_model
    embed = T * config.input_channels * d if config.use_embedding else 0
    dirs = len(config.directions)
    temporal = 8 * T * d * d * config.tem_layers * dirs if config.use_tem else 0
    scoring = T * d
    return FlopEstimate(embed=embed, temporal=temporal, scoring=scoring)


def timing_probe(config: StandConfig, T: int, repeats: int = 11, seed: int = 0) -> float:
    """Median wall-clock seconds of a single-window forward at length T.

    One untimed warm-up pass precedes the measurements so allocator and cache
    effects of the first call do not skew the median.
    """
    rng = make_rng(seed)
    x = rng.standard_normal((T, config.input_channels))
    params = init_params(config)
    forward(x, params, config)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        forward(x, params, config)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))
