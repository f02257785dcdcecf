"""Supervised time-series anomaly detector: embedding MLP -> bidirectional LSTM
-> pointwise linear scorer, trained with BCE on per-timestep labels.

The forward, backward (full BPTT through both directions, LayerNorm and GELU)
and both optimizers are written out explicitly in numpy so gradients can be
verified against finite differences. Parameters and gradients are flat
``dict[str, ndarray]`` keyed like ``"embed.0.w"``, ``"lstm.0.fwd.w_ih"``,
``"head.w"``; gradients mirror parameters key for key.

Gate layout inside every ``4d`` LSTM parameter is ``[input, forget, cell,
output]``. The recurrence works on permuted copies instead: gate-major
``(4, D, ..., d)`` buffers in the order ``[i, f, o, g]``, with the i/f/o rows
of ``w_ih``, ``w_hh`` and ``b`` halved (see ``_lstm_weights``), so one
``tanh`` over a contiguous block gives all four gates. BPTT writes its gate
gradients back in the parameter order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .data import WindowSet, reassemble, window_starts
from .exceptions import ConfigError, ContractError, config_bool, config_float, config_int
from .ndcore import gelu, gelu_grad, make_rng, sigmoid
from .pool import LOCKSTEP_WORK, Gang, shared_array, workers

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
        for name, minimum in (("input_channels", 1), ("d_model", 1), ("mlp_layers", 1),
                              ("tem_layers", 1), ("window", 2), ("epochs", 1),
                              ("batch_size", 1), ("seed", 0)):
            setattr(self, name, config_int(name, getattr(self, name), minimum))
        for name in ("bidirectional", "use_embedding", "use_tem"):
            config_bool(name, getattr(self, name))
        self.learning_rate = config_float("learning_rate", self.learning_rate, positive=True)
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
    """One layer, all directions, step-major: step s of each array is step s
    of each direction in its own processing order (the backward direction's
    step s reads timestep W-1-s)."""

    x: np.ndarray  # layer input (B, W, in), natural time order
    gates: np.ndarray  # (4, D, W, B, d) activations, gate-major [i, f, o, g]
    c: np.ndarray  # (W+1, D, B, d); row 0 is the zero initial state
    tanh_c: np.ndarray  # (W, D, B, d)
    h: np.ndarray  # (W+1, D, B, d); row 0 is the zero initial state


class _Workspace:
    """Named arrays that one caller reuses across passes. Each name owns a flat
    buffer, grown when a larger shape asks for it, so a short last batch gets
    a smaller view of the same memory.

    The buffers are ``pool.shared_array``s, not heap blocks: they go back to
    the operating system as soon as the workspace is dropped. Freed to the
    heap, tens of megabytes of them could stay resident after ``train`` under
    whatever came next, so peak memory moved with the heap's layout.

    A training gang worker computes rows ``rows`` of a ``batch_rows``-row
    batch: its ``rows_array``s are its rows of the whole-batch arrays in
    ``batch``, a workspace the gang shares, and the reductions read those
    whole. A workspace without ``batch`` holds whole batches itself.
    """

    def __init__(self, batch: "_Workspace | None" = None):
        self._buffers: dict[str, np.ndarray] = {}
        self.batch = batch
        self.rows = slice(None)
        self.batch_rows = 0

    def array(self, name: str, shape: tuple) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = shared_array(max(size, 1))
        return buf[:size].reshape(shape)

    def rows_array(self, name: str, shape: tuple, axis: int = 0) -> np.ndarray:
        """This workspace's rows (along ``axis``) of the whole-batch array ``name``."""
        if self.batch is None:
            return self.array(name, shape)
        whole = self.batch.array(name, shape[:axis] + (self.batch_rows,) + shape[axis + 1 :])
        return whole[(slice(None),) * axis + (self.rows,)]


@dataclass
class ForwardTrace:
    """Everything the backward pass needs: embedding caches batched as
    (B, T, ...), LSTM caches step-major, and the workspace they live in."""

    embed: list[_EmbedLayerCache]
    h_embed: np.ndarray
    lstm: list[_LstmCache]
    h_enc: np.ndarray
    logits: np.ndarray  # (B, T)
    workspace: _Workspace


def _embed_layer_forward(x, w, b, gain, beta, keep: bool = True, ws=None, layer: int = 0):
    """One affine → GELU → LayerNorm layer; without ``keep`` it builds no cache.

    With a workspace ``ws`` every array of the layer is one of its buffers;
    the normalized GELU output and the layer's output, which the reductions
    read, are rows arrays.
    """
    shape = x.shape[:-1] + (len(b),)

    def new(name, rows=False):
        if ws is None:
            return np.empty(shape)
        return (ws.rows_array if rows else ws.array)(f"embed.{layer}.{name}", shape)

    a = np.matmul(x, w.T, out=new("a"))
    a += b
    xhat = new("xhat", rows=True)
    g, tanh = gelu(a, with_tanh=True, out=(new("g"), new("tanh"), xhat))
    mu = g.mean(axis=-1, keepdims=True)
    # the variance np.var takes, from the deviations that xhat scales
    np.subtract(g, mu, out=xhat)
    var = np.square(xhat, out=g).sum(axis=-1, keepdims=True)
    var /= shape[-1]
    inv_std = 1.0 / np.sqrt(var + LAYERNORM_EPS)
    xhat *= inv_std
    out = np.multiply(xhat, gain, out=new("out", rows=True))
    out += beta
    cache = _EmbedLayerCache(x=x, a=a, tanh=tanh, xhat=xhat, inv_std=inv_std) if keep else None
    return out, cache


def _embed(x, params, config: StandConfig, keep: bool = True, ws=None):
    """Per-timestep embedding MLP over (..., C); identity when use_embedding=false.

    Without ``keep`` no layer's backward cache is built or held (inference).
    """
    caches = []
    if config.use_embedding:
        for layer in range(config.mlp_layers):
            x, cache = _embed_layer_forward(
                x, *(params[f"embed.{layer}.{name}"] for name in ("w", "b", "gain", "beta")),
                keep=keep, ws=ws, layer=layer,
            )
            if keep:
                caches.append(cache)
    return x, caches


def _lstm_keys(layer: int, config: StandConfig) -> list[str]:
    return [f"lstm.{layer}.{direction}" for direction in config.directions]


def _in_order(a, k: int):
    """Batch-major (B, W, ...) view in direction k's processing order."""
    return a if k == 0 else a[:, ::-1]


# The working buffers hold gates gate-major in the order [i, f, o, g], so the
# three sigmoid gates are one block; parameters keep [i, f, g, o].
_WORKING_GATES = [0, 1, 3, 2]
# sigmoid(z) = 0.5 * (1 + tanh(z / 2)). Halving the i, f and o rows of w_ih,
# w_hh and b is exact in binary floating point, so the tanh of a working
# pre-activation is the sigmoid's tanh bit for bit, with no scaling pass.
_ROW_SCALE = np.array([0.5, 0.5, 0.5, 1.0]).reshape(4, 1, 1, 1)


def _lstm_weights(params, config: StandConfig) -> list[tuple]:
    """Every layer's (w_ih, w_hh, b) in the working layout: (4, D, in, d),
    (4, D, d, d) and (4, D, 1, d), gate-major, i/f/o halved, C-contiguous (a
    transposed operand takes a BLAS path whose rounding depends on the batch
    size, which would break batch-grouping invariance)."""

    def working(keys, name):
        w = np.stack([params[f"{key}.{name}"] for key in keys])
        w = w.reshape(len(keys), 4, w.shape[1] // 4, -1)[:, _WORKING_GATES].transpose(1, 0, 3, 2)
        return np.multiply(w, _ROW_SCALE, out=np.empty(w.shape))

    return [
        tuple(working(_lstm_keys(layer, config), name) for name in ("w_ih", "w_hh", "b"))
        for layer in range(config.tem_layers)
    ]


def _step_rows(W: int, D: int, starts, T: int) -> np.ndarray:
    """(W, D, B) row of a (4, D*T, d) projection of T series rows that each
    direction reads at each step: the forward direction's step s reads row
    start+s of its T rows, the backward one's start+W-1-s."""
    s = np.arange(W)
    return np.stack((s, W - 1 - s)[:D], axis=1)[:, :, None] + starts + T * np.arange(D)[:, None]


def _lstm_recurrence(step_gates, w_hh, c, tanh_c, h, outs):
    """One time loop over every direction of a layer, one stacked matmul per step.

    ``step_gates(s)`` returns step s's (4, D, B, d) working projection, which
    the loop adds the recurrent product to and turns into the gate activations
    in place; ``w_hh`` (4, D, d, d) holds the working recurrent weights. c and
    h (n+1, D, B, d) start from a zero row 0 and tanh_c is (n, D, B, d): n = W
    keeps every step for the backward, n = 1 only the latest. Direction k
    writes step s into ``outs[k][:, s]``, a (B, W, d) view in its processing
    order.
    """
    n = len(tanh_c)
    rec = np.empty(w_hh.shape[:2] + h.shape[2:])
    for s in range(outs[0].shape[1]):
        prev, cur = s % (n + 1), (s + 1) % (n + 1)
        z = step_gates(s)
        z += np.matmul(h[prev], w_hh, out=rec)
        np.tanh(z, out=z)
        sig = z[:3]
        sig += 1.0
        sig *= 0.5
        i_t, f_t, o_t, g_t = z
        c_t, tc_t = c[cur], tanh_c[s % n]
        np.multiply(f_t, c[prev], out=c_t)
        c_t += np.multiply(i_t, g_t, out=rec[0])
        np.tanh(c_t, out=tc_t)
        np.multiply(o_t, tc_t, out=h[cur])
        for k, out in enumerate(outs):
            out[:, s] = h[cur, k]


def _lstm_stack(h, weights, config: StandConfig, ws: _Workspace, keep: bool, proj=None, rows=None):
    """LSTM layers over batch-major windows h (B, W, in) -> ((B, W, D*d), caches).

    ``weights`` comes from ``_lstm_weights``. ``proj`` (4, D*T, d) and
    ``rows`` (W, D, B) stand in for layer 0's working projection and the
    rows its steps read: ``infer`` projects the span of series rows a batch
    covers, and passes no ``h``.
    """
    D, d = len(config.directions), config.d_model
    caches: list[_LstmCache] = []
    for layer, (w_ih, w_hh, b) in enumerate(weights):
        if proj is None:
            B, W = h.shape[:2]
            # each direction's input step-major in its processing order: one
            # GEMM projects it, and step s is a basic slice of the result
            xs = ws.array(f"lstm.{layer}.xs", (D, W, B, h.shape[2]))
            for k in range(D):
                xs[k] = _in_order(h, k).transpose(1, 0, 2)
            gates = ws.array(f"lstm.{layer}.gates", (4, D, W, B, d))
            np.matmul(xs.reshape(D, W * B, -1), w_ih, out=gates.reshape(4, D, W * B, d))
            gates += b[:, :, None]
            step_gates = lambda s: gates[:, :, s]
        else:
            W, _, B = rows.shape
            gates = ws.array(f"lstm.{layer}.gates", (4, D, B, d))
            step_gates = lambda s: np.take(proj, rows[s], axis=1, out=gates, mode="clip")
        n = W if keep else 1
        c = ws.array(f"lstm.{layer}.c", (n + 1, D, B, d))
        steps = ws.array(f"lstm.{layer}.h", (n + 1, D, B, d))
        tanh_c = ws.array(f"lstm.{layer}.tanh_c", (n, D, B, d))
        out = ws.rows_array(f"lstm.{layer}.out", (B, W, D, d))
        c[0] = 0.0
        steps[0] = 0.0
        _lstm_recurrence(step_gates, w_hh, c, tanh_c, steps,
                         [_in_order(out[:, :, k], k) for k in range(D)])
        if keep:
            caches.append(_LstmCache(x=h, gates=gates, c=c, tanh_c=tanh_c, h=steps))
        h, proj = out.reshape(B, W, D * d), None
    return h, caches


def forward_batch(
    x: np.ndarray, params: dict[str, np.ndarray], config: StandConfig,
    workspace: _Workspace | None = None,
) -> tuple[np.ndarray, ForwardTrace]:
    """Batched forward over (B, T, C) windows; returns (logits (B, T), trace).

    The trace's arrays live in ``workspace`` (a fresh one by default), so a
    trace stays valid only until the next pass on the same workspace.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != config.input_channels:
        raise ConfigError(f"expected input (B, T, {config.input_channels}), got {x.shape}")
    ws = workspace if workspace is not None else _Workspace()
    x_in = ws.rows_array("x", x.shape)  # the first layer's input, which a reduction reads
    x_in[...] = x
    h_embed, embed_caches = _embed(x_in, params, config, ws=ws)
    h_enc, lstm_caches = h_embed, []
    if config.use_tem:
        h_enc, lstm_caches = _lstm_stack(h_embed, _lstm_weights(params, config), config, ws,
                                         keep=True)
    logits = np.matmul(h_enc, params["head.w"], out=ws.rows_array("logits", x.shape[:2]))
    logits += params["head.b"][0]
    return logits, ForwardTrace(
        embed=embed_caches, h_embed=h_embed, lstm=lstm_caches, h_enc=h_enc, logits=logits,
        workspace=ws,
    )


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


def _layernorm_backward(dy, cache: _EmbedLayerCache, gain, ws: _Workspace):
    """The LayerNorm input gradient of one layer's rows, in a ``ws`` buffer."""
    dxhat = np.multiply(dy, gain, out=ws.array("embed.dg", dy.shape))
    scratch = ws.array("embed.s1", dy.shape)
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = np.multiply(dxhat, cache.xhat, out=scratch).mean(axis=-1, keepdims=True)
    # inv_std * (dxhat - m1 - xhat * m2)
    dxhat -= m1
    dxhat -= np.multiply(cache.xhat, m2, out=scratch)
    dxhat *= cache.inv_std
    return dxhat


def _lstm_recurrence_backward(cache: _LstmCache, dh_steps, w_hh, dz_all):
    """BPTT through ``_lstm_recurrence`` for every direction at once.

    ``dh_steps`` (W, D, B, d) is the loss gradient of each step's output and
    ``w_hh`` (D, 4d, d) the recurrent weights. Fills ``dz_all`` (D, B, W, 4d)
    with the gate pre-activation gradients in the parameter order
    [i, f, g, o], batch-major with each direction's steps in its processing
    order, so the weight-gradient sums run over (batch, step) as before.
    """
    W, D, B, d = dh_steps.shape
    dz_steps = dz_all.reshape(D, B, W, 4, d)
    part = np.empty((4, D, B, d))  # one step's dz, gate-major in the parameter order
    one_minus = np.empty((3, D, B, d))
    dh = np.zeros((D, B, d))
    dc_rec = np.zeros((D, B, d))
    for s in range(W - 1, -1, -1):
        dh += dh_steps[s]
        gates = cache.gates[:, :, s]
        i_t, f_t, o_t, g_t = gates
        tc = cache.tanh_c[s]
        dc = dh * o_t
        dc *= 1.0 - tc * tc
        dc += dc_rec
        np.subtract(1.0, gates[:3], out=one_minus)
        np.multiply(dc, g_t, out=part[0])
        np.multiply(dc, cache.c[s], out=part[1])
        np.multiply(dh, tc, out=part[3])
        part[:2] *= gates[:2]
        part[3] *= o_t
        part[:2] *= one_minus[:2]
        part[3] *= one_minus[2]
        np.multiply(dc, i_t, out=part[2])
        part[2] *= 1.0 - g_t * g_t
        dz_steps[:, :, s] = part.transpose(1, 2, 0, 3)
        np.matmul(dz_all[:, :, s], w_hh, out=dh)
        np.multiply(dc, f_t, out=dc_rec)


def backward(
    trace: ForwardTrace, labels, params: dict[str, np.ndarray], config: StandConfig
) -> dict[str, np.ndarray] | None:
    """Exact gradients of bce_loss(forward_batch(x)) for every parameter tensor.

    A row pass (``_backward_rows``) and then the reductions (``_reduce``).
    The gradients are arrays of the trace's workspace. A gang worker's
    trace holds rows of a larger batch: then only the row pass runs, the
    gang sums over the whole batch afterwards, and this returns None.
    """
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != trace.logits.shape:
        raise ConfigError(f"labels {y.shape} do not match logits {trace.logits.shape}")
    ws = trace.workspace
    _backward_rows(trace, y, params, config)
    if ws.batch is not None:
        return None
    B, T = y.shape
    for task in _reductions(config):
        _reduce(task, ws, B, T, config)
    return _gradients(ws, params, config)


def _backward_rows(trace: ForwardTrace, y, params, config: StandConfig) -> None:
    """The backward pass of each row on its own: dlogits (scaled by the whole
    batch), the head, BPTT, the input gradients and the embedding's
    LayerNorm and GELU. What the reductions read goes into rows arrays."""
    ws = trace.workspace
    b, T = y.shape
    dlogits = np.subtract(sigmoid(trace.logits), y, out=ws.rows_array("dlogits", (b, T)))
    dlogits /= (b if ws.batch is None else ws.batch_rows) * T
    d = config.d_model

    def embed_dy(layer):  # the gradient of an embedding layer's output
        return ws.rows_array(f"embed.{layer}.dy", (b, T, d))

    # each layer writes the gradient of its input where the layer below reads it
    if not config.use_tem:
        if config.use_embedding:
            np.multiply(dlogits[..., None], params["head.w"], out=embed_dy(config.mlp_layers - 1))
    else:
        D = len(config.directions)
        dh = np.multiply(dlogits[..., None], params["head.w"],
                         out=ws.array("bptt.dh_out", (b, T, D * d)))
        for layer in range(config.tem_layers - 1, -1, -1):
            cache = trace.lstm[layer]
            keys = _lstm_keys(layer, config)
            dh_steps = ws.array("bptt.dh", (T, D, b, d))
            for k in range(D):
                dh_steps[:, k] = _in_order(dh.reshape(b, T, D, d)[:, :, k], k).transpose(1, 0, 2)
            dz_all = ws.rows_array(f"bptt.{layer}.dz", (D, b, T, 4 * d), axis=1)
            _lstm_recurrence_backward(
                cache, dh_steps, np.stack([params[key + ".w_hh"] for key in keys]), dz_all
            )
            # each direction's layer input in its processing order beside its
            # h_{t-1}: one GEMM gives both weight gradients
            n_in = cache.x.shape[2]
            operands = ws.rows_array(f"bptt.{layer}.operands", (D, b, T, n_in + d), axis=1)
            for k in range(D):
                operands[k, :, :, :n_in] = _in_order(cache.x, k)
                operands[k, :, :, n_in:] = cache.h[:-1, k].transpose(1, 0, 2)
            if layer == 0 and not config.use_embedding:
                break
            dx = np.matmul(dz_all, np.stack([params[key + ".w_ih"] for key in keys])[:, None],
                           out=ws.array("bptt.dx", (D, b, T, n_in)))
            dh = embed_dy(config.mlp_layers - 1) if layer == 0 else dh
            if D == 2:
                np.add(dx[0], dx[1][:, ::-1], out=dh)
            else:
                dh[...] = dx[0]
    for layer in range(config.mlp_layers - 1, -1, -1) if config.use_embedding else ():
        cache = trace.embed[layer]
        dg = _layernorm_backward(embed_dy(layer), cache, params[f"embed.{layer}.gain"], ws)
        da = gelu_grad(cache.a, cache.tanh, out=(ws.rows_array(f"embed.{layer}.da", (b, T, d)),
                                                 ws.array("embed.s1", (b, T, d)),
                                                 ws.array("embed.s2", (b, T, d))))
        da *= dg
        if layer > 0:
            np.matmul(da, params[f"embed.{layer}.w"], out=embed_dy(layer - 1))


def _reductions(config: StandConfig) -> list:
    """The reduce tasks, split by parameter so that no task splits a sum:
    each LSTM (layer, direction), the head (None), then each embedding layer,
    top first. Dealt out in this order, the heavy LSTM tasks spread first."""
    lstm = range(config.tem_layers) if config.use_tem else ()
    embed = range(config.mlp_layers - 1, -1, -1) if config.use_embedding else ()
    directions = range(len(config.directions))
    return [(layer, k) for layer in lstm for k in directions] + [None] + list(embed)


def _encoding(ws: _Workspace, B: int, T: int, config: StandConfig) -> np.ndarray:
    """The whole batch's encoder output, the head's input, from ``ws``."""
    if config.use_tem:
        D = len(config.directions)
        out = ws.array(f"lstm.{config.tem_layers - 1}.out", (B, T, D, config.d_model))
        return out.reshape(B, T, -1)
    if config.use_embedding:
        return ws.array(f"embed.{config.mlp_layers - 1}.out", (B, T, config.d_model))
    return ws.array("x", (B, T, config.input_channels))


def _reduce(task, ws: _Workspace, B: int, T: int, config: StandConfig) -> None:
    """Sum one task's gradients over the B rows of the whole-batch arrays
    that the row pass left in ``ws.batch`` (or ``ws``), into its gradient
    arrays: an LSTM (layer, direction), the head (None) or an embedding
    layer (an int). Scratch space comes from ``ws``."""
    whole = ws.batch or ws
    D, d = len(config.directions), config.d_model

    def grad(key, shape):
        return whole.array("grad." + key, shape)

    if task is None:
        dlogits = whole.array("dlogits", (B, T))
        h_enc = _encoding(whole, B, T, config)
        grad("head.w", h_enc.shape[-1:])[...] = np.einsum("bt,btk->k", dlogits, h_enc)
        grad("head.b", (1,))[0] = dlogits.sum()
    elif isinstance(task, tuple):
        layer, k = task
        key = _lstm_keys(layer, config)[k]
        n_in = config.embed_width if layer == 0 else D * d
        dz = whole.array(f"bptt.{layer}.dz", (D, B, T, 4 * d))[k].reshape(B * T, -1)
        operands = whole.array(f"bptt.{layer}.operands", (D, B, T, n_in + d))[k]
        np.matmul(dz.T, operands.reshape(B * T, -1), out=grad(key + ".w", (4 * d, n_in + d)))
        np.sum(dz, axis=0, out=grad(key + ".b", (4 * d,)))
    else:
        layer = task
        x = whole.array(f"embed.{layer - 1}.out", (B, T, d)) if layer else \
            whole.array("x", (B, T, config.input_channels))
        dy, xhat, da = (whole.array(f"embed.{layer}.{name}", (B, T, d))
                        for name in ("dy", "xhat", "da"))
        np.sum(np.multiply(dy, xhat, out=ws.array("reduce.scratch", (B, T, d))), axis=(0, 1),
               out=grad(f"embed.{layer}.gain", (d,)))
        np.sum(dy, axis=(0, 1), out=grad(f"embed.{layer}.beta", (d,)))
        da_flat = da.reshape(B * T, d)
        np.matmul(da_flat.T, x.reshape(B * T, -1), out=grad(f"embed.{layer}.w", (d, x.shape[2])))
        np.sum(da_flat, axis=0, out=grad(f"embed.{layer}.b", (d,)))


def _gradients(ws: _Workspace, params, config: StandConfig) -> dict[str, np.ndarray]:
    """``_reduce``'s gradient arrays in ``ws``, keyed like ``params``: each LSTM
    direction's w_ih and w_hh are the column blocks of its one GEMM."""
    grads = {}
    for key, p in params.items():
        if key.endswith((".w_ih", ".w_hh")):
            base, _, name = key.rpartition(".")
            n_in = params[base + ".w_ih"].shape[1]
            dw = ws.array(f"grad.{base}.w", (4 * config.d_model, n_in + config.d_model))
            grads[key] = dw[:, :n_in] if name == "w_ih" else dw[:, n_in:]
        else:
            grads[key] = ws.array("grad." + key, p.shape)
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
    def for_params(cls, params: dict[str, np.ndarray], ws: _Workspace) -> "AdamState":
        """Zero moments, as arrays of ``ws``."""
        return cls(m={k: _filled(ws, "adam.m." + k, np.zeros_like(p)) for k, p in params.items()},
                   v={k: _filled(ws, "adam.v." + k, np.zeros_like(p)) for k, p in params.items()})


def _filled(ws: _Workspace, name: str, value: np.ndarray) -> np.ndarray:
    out = ws.array(name, value.shape)
    out[...] = value
    return out


def adam_step(params, grads, state: AdamState, learning_rate: float) -> dict[str, np.ndarray]:
    """One Adam update (beta1=0.9, beta2=0.999, eps=1e-8, bias-corrected) of
    ``params`` and the moment state, in place; returns ``params``."""
    state.step += 1
    t = state.step
    for key, p in params.items():
        g, m, v = grads[key], state.m[key], state.v[key]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        p -= learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params


def gd_step(params, grads, learning_rate: float) -> dict[str, np.ndarray]:
    """Plain gradient descent, in place: theta <- theta - eta * grad; returns ``params``."""
    for key, p in params.items():
        p -= learning_rate * grads[key]
    return params


# ---------------------------------------------------------------------------
# training and inference
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    params: dict[str, np.ndarray]
    loss_history: list[float]  # mean loss per epoch
    steps: int


def train(windows: WindowSet, config: StandConfig) -> TrainResult:
    """Mini-batch training over labeled windows, deterministic given config.seed.

    Every step runs as two phases of a ``pool.Gang``, this process being
    worker 0. In the first, the workers deal the batch's contiguous row parts
    among themselves and take each through ``forward_batch`` and
    ``backward``'s row pass; this process then takes the loss. In the second,
    they deal the reductions, one per parameter group, and this process then
    steps the optimizer on the shared parameters. The first step runs here
    alone and sizes every array the gang shares; the gang forks after it
    when the work pays for one worker per usable CPU (``pool.workers``),
    and otherwise never forks. A row's bits do not depend on which process
    computes it and no sum is split, so the result is the same bits for any
    number of workers.
    """
    if windows.labels is None:
        raise ContractError("supervised training requires labeled windows")
    if windows.values.shape[2] != config.input_channels:
        raise ConfigError(
            f"windows have {windows.values.shape[2]} channels, config expects "
            f"{config.input_channels}"
        )
    x_all = windows.values
    y_all = windows.labels.astype(np.float64)
    n, W = len(windows), config.window
    rows = min(config.batch_size, n)
    # no part has one row: a recurrent product of one row takes a
    # matrix-vector kernel that rounds unlike the GEMM of larger batches.
    # The first step runs here alone, so only the later steps pay for workers.
    later = n * config.epochs - rows
    count = workers(rows // 2, 3 * flop_estimate(config, W).total * later / LOCKSTEP_WORK)

    # the parameters, moments and gradients are workspace arrays, so the
    # gang's workers read what this process's optimizer writes
    ws = _Workspace()
    params = {key: _filled(ws, "param." + key, p) for key, p in init_params(config).items()}
    state = AdamState.for_params(params, ws) if config.optimizer == "adam" else None
    shuffle_rng = make_rng(config.seed, _STREAM_SHUFFLE)
    batch = shared_array(rows + 1, np.int64)  # the step's row count, then its window indices
    grads = _gradients(ws, params, config)
    tasks = _reductions(config)
    own: dict[int, _Workspace] = {}  # the private arrays of this process's gang worker

    def workspace(worker):
        if worker not in own:
            own[worker] = _Workspace(batch=ws)
        return own[worker]

    def rows_pass(worker):
        B = int(batch[0])
        parts = min(count, max(1, B // 2))
        mine = workspace(worker)
        # before the fork this process deals itself every part in turn, so
        # that its own arrays are sized for one part
        for part in gang.deal(worker, parts):
            lo, hi = B * part // parts, B * (part + 1) // parts
            mine.rows, mine.batch_rows = slice(lo, hi), B
            idx = batch[1 + lo : 1 + hi]
            _, trace = forward_batch(x_all[idx], params, config, workspace=mine)
            backward(trace, y_all[idx], params, config)

    def reduce_pass(worker):
        for task in gang.deal(worker, len(tasks)):
            _reduce(tasks[task], workspace(worker), int(batch[0]), W, config)

    history: list[float] = []
    steps = 0
    with Gang([rows_pass, reduce_pass]) as gang:
        for _ in range(config.epochs):
            order = shuffle_rng.permutation(n)
            total = 0.0
            for lo in range(0, n, config.batch_size):
                idx = order[lo : lo + config.batch_size]
                batch[0] = len(idx)
                batch[1 : 1 + len(idx)] = idx
                gang.run(0)
                total += bce_loss(ws.array("logits", (len(idx), W)), y_all[idx]) * len(idx)
                gang.run(1)
                if state is not None:
                    adam_step(params, grads, state, config.learning_rate)
                else:
                    gd_step(params, grads, config.learning_rate)
                steps += 1
                if steps == 1 and count > 1:  # the first step sized every shared array
                    gang.fork(count)
            history.append(total / n)
    return TrainResult(params={key: p.copy() for key, p in params.items()},
                       loss_history=history, steps=steps)


def infer(
    x,
    params: dict[str, np.ndarray],
    config: StandConfig,
    stride: int | None = None,
    batch_size: int = 128,
) -> np.ndarray:
    """Score a full (T, C) series: windowed forward, logits averaged per timestep.

    Returns logits; apply a sigmoid for the probability view. The default
    stride W/2 overlaps windows, which smooths scores at window seams. Each
    timestep is embedded once; each batch projects the span of rows its
    windows cover into the first LSTM layer, the windows read those rows by
    index, and no backward trace is kept.

    When the work pays for it (``pool.workers``), the batches run on a
    ``pool.Gang`` with this process as worker 0: the series is embedded
    here, then the workers deal the window batches among themselves and
    write their scores into shared memory. A batch is computed the same way
    wherever it runs, so the scores do not depend on how many workers there
    were.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != config.input_channels:
        raise ConfigError(
            f"series has shape {x.shape}, expected (T, {config.input_channels})"
        )
    W = config.window
    stride = stride if stride is not None else max(1, W // 2)
    starts = window_starts(len(x), W, stride)
    batches = -(-len(starts) // batch_size)
    count = workers(batches, flop_estimate(config, W).total * len(starts))
    h = _embed(x, params, config, keep=False)[0]  # forked workers inherit it
    weights = _lstm_weights(params, config) if config.use_tem else None
    scores = shared_array((len(starts), W))  # forked workers write their scores here

    def score_batches(worker):
        workspace = _Workspace()  # one per worker, reused by each batch it takes
        for batch in gang.deal(worker, batches):
            lo = batch * batch_size
            _score_batch(h, weights, params, config, starts[lo : lo + batch_size],
                         scores[lo : lo + batch_size], workspace)

    with Gang([score_batches]) as gang:
        if count > 1:
            gang.fork(count)
        gang.run(0)
    ws = WindowSet(window=W, stride=stride, series_length=len(x), starts=starts,
                   values=None, labels=None)
    return reassemble(ws, scores)


def _score_batch(h, weights, params, config: StandConfig, starts, out, workspace) -> None:
    """Write the logits of the windows at ``starts`` (ascending) of the
    embedded series h into ``out`` (len(starts), W); ``weights`` comes from
    ``_lstm_weights``, or is None without the temporal encoder."""
    W = config.window
    n = len(starts)
    if n == 1:
        # one window would send the recurrent product to a matrix-vector
        # kernel that rounds unlike the GEMM of larger batches: run it twice
        starts = np.repeat(starts, 2)
    if weights is not None:
        # the rows the windows cover, at least W >= 2 of them: a GEMM of two
        # or more rows gives each row the bits of a whole-series projection,
        # so no score depends on batch_size, and the buffer is bounded by the
        # batch, not the series
        D, d = len(config.directions), config.d_model
        w_ih, _, b = weights[0]
        first, span = starts[0], starts[-1] + W - starts[0]
        proj = workspace.array("infer.proj", (4, D, span, d))
        np.matmul(h[first : first + span], w_ih, out=proj)
        proj += b
        h_enc, _ = _lstm_stack(None, weights, config, workspace, keep=False,
                               proj=proj.reshape(4, D * span, d),
                               rows=_step_rows(W, D, starts - first, span))
    else:
        h_enc = h[starts[:, None] + np.arange(W)]
    # batch-major (B, W, .) head: a per-window matvec, the same for any batch grouping
    out[:] = (h_enc @ params["head.w"] + params["head.b"][0])[:n]


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
