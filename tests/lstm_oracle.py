"""Reference implementations the fused code paths are checked against.

These are the per-direction LSTM forward and backward, the batched forward,
backward, one-process ``train`` and windowed ``infer`` built on them, and the
window-by-window ``reassemble`` loop, kept as they were before the recurrence
was fused, with the gates in the parameter order [i, f, g, o]. The embedding and LayerNorm
helpers are shared with ``standbench.stand``.
``layernorm`` is the one-vector LayerNorm the batched embedding is compared
against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from standbench import data, stand
from standbench.exceptions import ConfigError
from standbench.ndcore import gelu_grad, make_rng, sigmoid


@dataclass
class DirCache:
    x: np.ndarray  # direction input in processing order (B, T, in)
    gates: np.ndarray  # (B, T, 4d) activations in [i, f, g, o] order
    c: np.ndarray
    tanh_c: np.ndarray
    h: np.ndarray


@dataclass
class Trace:
    x: np.ndarray
    embed: list
    h_embed: np.ndarray
    lstm: list  # per layer: {direction: DirCache}
    h_enc: np.ndarray
    logits: np.ndarray


def gate_activations(z, d):
    """In-place gate nonlinearities on a (..., 4d) pre-activation block, the
    sigmoid evaluated as 0.5*(1 + tanh(z/2))."""
    z[..., : 2 * d] *= 0.5
    z[..., 3 * d :] *= 0.5
    np.tanh(z, out=z)
    z[..., : 2 * d] += 1.0
    z[..., : 2 * d] *= 0.5
    z[..., 3 * d :] += 1.0
    z[..., 3 * d :] *= 0.5
    return z[..., :d], z[..., d : 2 * d], z[..., 2 * d : 3 * d], z[..., 3 * d :]


def lstm_dir_forward(x, w_ih, w_hh, b):
    B, T, _ = x.shape
    d = w_hh.shape[1]
    zx = x @ w_ih.T + b
    h_t = np.zeros((B, d))
    c_t = np.zeros((B, d))
    w_hh_t = np.ascontiguousarray(w_hh.T)
    gate_rows, c_rows, tc_rows, h_rows = [], [], [], []
    for t in range(T):
        z = zx[:, t] + h_t @ w_hh_t
        i_t, f_t, g_t, o_t = gate_activations(z, d)
        c_t = f_t * c_t + i_t * g_t
        tc_t = np.tanh(c_t)
        h_t = o_t * tc_t
        gate_rows.append(z)
        c_rows.append(c_t)
        tc_rows.append(tc_t)
        h_rows.append(h_t)
    h = np.stack(h_rows, axis=1)
    return h, DirCache(
        x=x,
        gates=np.stack(gate_rows, axis=1),
        c=np.stack(c_rows, axis=1),
        tanh_c=np.stack(tc_rows, axis=1),
        h=h,
    )


def lstm_dir_backward(cache: DirCache, dh_out, w_ih, w_hh):
    B, T, d = dh_out.shape
    dz_all = np.empty((B, T, 4 * d))
    dh_rec = np.zeros((B, d))
    dc_rec = np.zeros((B, d))
    for t in range(T - 1, -1, -1):
        dh = dh_out[:, t] + dh_rec
        tc = cache.tanh_c[:, t]
        step = cache.gates[:, t]
        i_t, f_t = step[:, :d], step[:, d : 2 * d]
        g_t, o_t = step[:, 2 * d : 3 * d], step[:, 3 * d :]
        do = dh * tc
        dc = dh * o_t * (1.0 - tc * tc) + dc_rec
        c_prev = cache.c[:, t - 1] if t > 0 else np.zeros((B, d))
        dz = dz_all[:, t]
        dz[:, :d] = dc * g_t * i_t * (1.0 - i_t)
        dz[:, d : 2 * d] = dc * c_prev * f_t * (1.0 - f_t)
        dz[:, 2 * d : 3 * d] = dc * i_t * (1.0 - g_t * g_t)
        dz[:, 3 * d :] = do * o_t * (1.0 - o_t)
        dh_rec = dz @ w_hh
        dc_rec = dc * f_t
    h_prev = np.concatenate([np.zeros((B, 1, d)), cache.h[:, :-1]], axis=1)
    dz_flat = dz_all.reshape(B * T, 4 * d)
    dw_ih = dz_flat.T @ cache.x.reshape(B * T, -1)
    dw_hh = dz_flat.T @ h_prev.reshape(B * T, d)
    db = dz_flat.sum(axis=0)
    dx = dz_all @ w_ih
    return dx, dw_ih, dw_hh, db


def forward_batch(x, params, config):
    x = np.asarray(x, dtype=np.float64)
    h = x
    embed_caches = []
    if config.use_embedding:
        for layer in range(config.mlp_layers):
            h, cache = stand._embed_layer_forward(
                h,
                params[f"embed.{layer}.w"],
                params[f"embed.{layer}.b"],
                params[f"embed.{layer}.gain"],
                params[f"embed.{layer}.beta"],
            )
            embed_caches.append(cache)
    h_embed = h
    lstm_caches = []
    if config.use_tem:
        for layer in range(config.tem_layers):
            caches = {}
            outs = []
            for direction in config.directions:
                key = f"lstm.{layer}.{direction}"
                inp = h if direction == "fwd" else h[:, ::-1]
                out, cache = lstm_dir_forward(
                    inp, params[key + ".w_ih"], params[key + ".w_hh"], params[key + ".b"]
                )
                caches[direction] = cache
                outs.append(out if direction == "fwd" else out[:, ::-1])
            h = np.concatenate(outs, axis=-1) if len(outs) > 1 else outs[0]
            lstm_caches.append(caches)
    logits = h @ params["head.w"] + params["head.b"][0]
    return logits, Trace(x=x, embed=embed_caches, h_embed=h_embed, lstm=lstm_caches,
                         h_enc=h, logits=logits)


def backward(trace: Trace, labels, params, config):
    y = np.asarray(labels, dtype=np.float64)
    B, T = trace.logits.shape
    grads = {}
    dlogits = (sigmoid(trace.logits) - y) / (B * T)
    grads["head.w"] = np.einsum("bt,btk->k", dlogits, trace.h_enc)
    grads["head.b"] = np.array([dlogits.sum()])
    dh = dlogits[..., None] * params["head.w"]
    if config.use_tem:
        d = config.d_model
        for layer in range(config.tem_layers - 1, -1, -1):
            caches = trace.lstm[layer]
            dx_total = None
            for k, direction in enumerate(config.directions):
                key = f"lstm.{layer}.{direction}"
                dh_dir = dh[..., k * d : (k + 1) * d]
                if direction == "bwd":
                    dh_dir = dh_dir[:, ::-1]
                dx, dw_ih, dw_hh, db = lstm_dir_backward(
                    caches[direction], dh_dir, params[key + ".w_ih"], params[key + ".w_hh"]
                )
                if direction == "bwd":
                    dx = dx[:, ::-1]
                grads[key + ".w_ih"] = dw_ih
                grads[key + ".w_hh"] = dw_hh
                grads[key + ".b"] = db
                dx_total = dx if dx_total is None else dx_total + dx
            dh = dx_total
    if config.use_embedding:
        for layer in range(config.mlp_layers - 1, -1, -1):
            cache = trace.embed[layer]
            dxhat = dh * params[f"embed.{layer}.gain"]
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * cache.xhat).mean(axis=-1, keepdims=True)
            dg = cache.inv_std * (dxhat - m1 - cache.xhat * m2)
            dgain = np.sum(dh * cache.xhat, axis=(0, 1))
            dbeta = np.sum(dh, axis=(0, 1))
            da = dg * gelu_grad(cache.a)
            da_flat = da.reshape(-1, da.shape[-1])
            grads[f"embed.{layer}.w"] = da_flat.T @ cache.x.reshape(da_flat.shape[0], -1)
            grads[f"embed.{layer}.b"] = da_flat.sum(axis=0)
            grads[f"embed.{layer}.gain"] = dgain
            grads[f"embed.{layer}.beta"] = dbeta
            dh = da @ params[f"embed.{layer}.w"]
    return grads


def train(windows, config):
    """``stand.train``'s steps on this forward and backward, in one process:
    its initial parameters, shuffle stream, per-window loss weighting and
    optimizer steps."""
    x_all, y_all = windows.values, windows.labels.astype(np.float64)
    n = len(windows)
    params = stand.init_params(config)
    state = stand.AdamState.for_params(params, stand._Workspace())
    shuffle_rng = make_rng(config.seed, stand._STREAM_SHUFFLE)
    history, steps = [], 0
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(n)
        total = 0.0
        for lo in range(0, n, config.batch_size):
            idx = order[lo : lo + config.batch_size]
            logits, trace = forward_batch(x_all[idx], params, config)
            total += stand.bce_loss(logits, y_all[idx]) * len(idx)
            grads = backward(trace, y_all[idx], params, config)
            if config.optimizer == "adam":
                stand.adam_step(params, grads, state, config.learning_rate)
            else:
                stand.gd_step(params, grads, config.learning_rate)
            steps += 1
        history.append(total / n)
    return stand.TrainResult(params=params, loss_history=history, steps=steps)


def reassemble(ws, window_scores):
    """Window-by-window overlap average."""
    total = np.zeros(ws.series_length)
    count = np.zeros(ws.series_length)
    for s, row in zip(ws.starts, window_scores):
        total[s : s + ws.window] += row
        count[s : s + ws.window] += 1.0
    return total / count


def infer(x, params, config, stride=None, batch_size=256):
    """Windowed scoring: every window copied out and run through the traced forward."""
    x = np.asarray(x, dtype=np.float64)
    ds = data.TimeSeriesDataset(name="infer", values=x)
    stride = stride if stride is not None else max(1, config.window // 2)
    ws = data.make_windows(ds, config.window, stride)
    rows = np.empty((len(ws), config.window))
    for lo in range(0, len(ws), batch_size):
        logits, _ = forward_batch(ws.values[lo : lo + batch_size], params, config)
        rows[lo : lo + len(logits)] = logits
    return reassemble(ws, rows)


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
