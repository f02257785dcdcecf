import numpy as np
import pytest

from lstm_oracle import layernorm
from standbench import stand
from standbench.exceptions import ConfigError
from standbench.ndcore import gelu, make_rng, sigmoid


def tiny_config(**kw):
    base = dict(input_channels=3, d_model=4, window=6, tem_layers=1,
                mlp_layers=2, bidirectional=True, seed=0)
    base.update(kw)
    return stand.StandConfig(**base)


def reference_lstm(x, w_ih, w_hh, b):
    """Naive per-step, per-unit oracle for the gate equations."""
    T = x.shape[0]
    d = w_hh.shape[1]
    h_prev = np.zeros(d)
    c_prev = np.zeros(d)
    hs = []
    for t in range(T):
        z = w_ih @ x[t] + w_hh @ h_prev + b
        i = np.array([1 / (1 + np.exp(-v)) for v in z[:d]])
        f = np.array([1 / (1 + np.exp(-v)) for v in z[d:2 * d]])
        g = np.array([np.tanh(v) for v in z[2 * d:3 * d]])
        o = np.array([1 / (1 + np.exp(-v)) for v in z[3 * d:]])
        c_prev = f * c_prev + i * g
        h_prev = o * np.tanh(c_prev)
        hs.append(h_prev.copy())
    return np.stack(hs)


class TestConfig:
    def test_invariants(self):
        with pytest.raises(ConfigError):
            tiny_config(d_model=0)
        with pytest.raises(ConfigError):
            tiny_config(window=1)
        with pytest.raises(ConfigError):
            tiny_config(epochs=0)
        with pytest.raises(ConfigError):
            tiny_config(learning_rate=0.0)
        with pytest.raises(ConfigError):
            tiny_config(optimizer="sgdm")

    def test_classifier_width_follows_bidirectionality(self):
        assert tiny_config().encoder_width == 8
        assert tiny_config(bidirectional=False).encoder_width == 4
        assert tiny_config(use_tem=False).encoder_width == 4  # embedding width
        assert tiny_config(use_tem=False, use_embedding=False).encoder_width == 3

    def test_param_shapes(self):
        cfg = tiny_config()
        p = stand.init_params(cfg)
        assert p["embed.0.w"].shape == (4, 3)
        assert p["embed.1.w"].shape == (4, 4)
        assert p["lstm.0.fwd.w_ih"].shape == (16, 4)
        assert p["lstm.0.bwd.w_hh"].shape == (16, 4)
        assert p["head.w"].shape == (8,)
        stand.check_params(p, cfg)

    def test_forget_gate_bias_is_one(self):
        p = stand.init_params(tiny_config())
        b = p["lstm.0.fwd.b"]
        assert np.all(b[4:8] == 1.0)
        assert np.all(b[:4] == 0.0)


class TestEmbedForward:
    def test_timestep_independence(self):
        cfg = tiny_config()
        p = stand.init_params(cfg)
        rng = make_rng(4)
        x = rng.standard_normal((8, 3))
        x[7] = x[1]
        _, trace = stand.forward_batch(x[None], p, cfg)
        out = trace.h_embed[0]
        assert np.array_equal(out[7], out[1])

    def test_bypass_passes_input_through(self):
        cfg = tiny_config(use_embedding=False, use_tem=False)
        p = stand.init_params(cfg)
        x = make_rng(5).standard_normal((6, 3))
        logits, trace = stand.forward_batch(x[None], p, cfg)
        assert np.array_equal(trace.h_embed[0], x)
        assert np.allclose(logits[0], x @ p["head.w"] + p["head.b"][0])

    def test_single_layer_matches_composed_kernels(self):
        cfg = tiny_config(mlp_layers=1, d_model=3)
        p = stand.init_params(cfg)
        p["embed.0.w"] = np.eye(3)
        p["embed.0.b"] = np.zeros(3)
        x = make_rng(6).standard_normal((4, 3))
        _, trace = stand.forward_batch(x[None], p, cfg)
        for t in range(4):
            expected = layernorm(gelu(x[t]), np.ones(3), np.zeros(3),
                                 eps=stand.LAYERNORM_EPS)
            assert np.allclose(trace.h_embed[0, t], expected, atol=1e-12)


def encoder_output(x, p, cfg):
    """The temporal encoder's (T, width) output for one (T, C) window."""
    _, trace = stand.forward_batch(x[None], p, cfg)
    return trace.h_enc[0]


class TestBilstmForward:
    def test_zero_weights_zero_states(self):
        cfg = tiny_config(use_embedding=False)
        p = stand.init_params(cfg)
        for key in list(p):
            if key.startswith("lstm."):
                p[key] = np.zeros_like(p[key])
        out = encoder_output(make_rng(0).standard_normal((5, 3)), p, cfg)
        assert np.allclose(out, 0.0)

    def test_unidirectional_equals_forward_half(self):
        cfg_bi = tiny_config(use_embedding=False)
        cfg_uni = tiny_config(use_embedding=False, bidirectional=False)
        p_bi = stand.init_params(cfg_bi)
        p_uni = {k: v for k, v in stand.init_params(cfg_uni).items()}
        for suffix in ("w_ih", "w_hh", "b"):
            p_uni[f"lstm.0.fwd.{suffix}"] = p_bi[f"lstm.0.fwd.{suffix}"]
        x = make_rng(1).standard_normal((7, 3))
        out_bi = encoder_output(x, p_bi, cfg_bi)
        out_uni = encoder_output(x, p_uni, cfg_uni)
        assert out_uni.shape == (7, 4)
        assert np.allclose(out_bi[:, :4], out_uni, atol=1e-12)

    def test_matches_naive_loop_oracle(self):
        cfg = tiny_config(use_embedding=False, bidirectional=False, d_model=2)
        p = stand.init_params(cfg)
        x = make_rng(2).standard_normal((3, 3))
        out = encoder_output(x, p, cfg)
        ref = reference_lstm(x, p["lstm.0.fwd.w_ih"], p["lstm.0.fwd.w_hh"],
                             p["lstm.0.fwd.b"])
        assert np.allclose(out, ref, atol=1e-10)

    def test_backward_direction_matches_reversed_oracle(self):
        cfg = tiny_config(use_embedding=False, d_model=2)
        p = stand.init_params(cfg)
        x = make_rng(3).standard_normal((5, 3))
        out = encoder_output(x, p, cfg)
        ref = reference_lstm(x[::-1], p["lstm.0.bwd.w_ih"], p["lstm.0.bwd.w_hh"],
                             p["lstm.0.bwd.b"])[::-1]
        assert np.allclose(out[:, 2:], ref, atol=1e-10)

    def test_identity_when_tem_disabled(self):
        cfg = tiny_config(use_tem=False)
        p = stand.init_params(cfg)
        _, trace = stand.forward_batch(make_rng(4).standard_normal((6, 3))[None], p, cfg)
        assert trace.h_embed.shape == (1, 6, 4)
        assert np.array_equal(trace.h_enc, trace.h_embed)


class TestScoreForward:
    def test_zero_weight_constant_logits(self):
        cfg = tiny_config()
        p = stand.init_params(cfg)
        p["head.w"] = np.zeros(8)
        p["head.b"] = np.array([1.5])
        logits, _ = stand.forward_batch(make_rng(4).standard_normal((6, 3))[None], p, cfg)
        assert np.allclose(logits, 1.5)

    def test_linearity(self):
        cfg = tiny_config()
        rng = make_rng(5)
        p = stand.init_params(cfg)
        p["head.w"] = rng.standard_normal(8)
        p["head.b"] = np.array([0.3])
        doubled = {**p, "head.w": 2 * p["head.w"], "head.b": 2 * p["head.b"]}
        x = rng.standard_normal((5, 3))
        assert np.allclose(stand.forward_batch(x[None], doubled, cfg)[0],
                           2 * stand.forward_batch(x[None], p, cfg)[0], atol=1e-12)

    def test_dot_product_oracle(self):
        cfg = tiny_config()
        rng = make_rng(6)
        p = stand.init_params(cfg)
        p["head.w"] = rng.standard_normal(8)
        p["head.b"] = np.array([-0.2])
        out, trace = stand.forward_batch(rng.standard_normal((5, 3))[None], p, cfg)
        for t in range(5):
            assert out[0, t] == pytest.approx(float(np.dot(trace.h_enc[0, t], p["head.w"]) - 0.2))

    def test_width_mismatch(self):
        cfg = tiny_config()
        p = stand.init_params(cfg)
        p["head.w"] = np.zeros(5)  # the encoder is 8 wide
        with pytest.raises(ConfigError):
            stand.check_params(p, cfg)


class TestForward:
    def test_zero_params_constant_logits(self):
        cfg = tiny_config()
        p = {k: np.zeros_like(v) for k, v in stand.init_params(cfg).items()}
        p["head.b"] = np.array([0.7])
        logits, _ = stand.forward_batch(make_rng(7).standard_normal((6, 3))[None], p, cfg)
        assert np.allclose(logits, 0.7)

    def test_fully_ablated_is_affine(self):
        cfg = tiny_config(use_embedding=False, use_tem=False)
        p = stand.init_params(cfg)
        rng = make_rng(8)
        x1 = rng.standard_normal((6, 3))
        x2 = rng.standard_normal((6, 3))
        l1, _ = stand.forward_batch(x1[None], p, cfg)
        l2, _ = stand.forward_batch(x2[None], p, cfg)
        lmix, _ = stand.forward_batch(0.5 * (x1 + x2)[None], p, cfg)
        assert np.allclose(lmix, 0.5 * (l1 + l2), atol=1e-12)

    def test_full_pipeline_matches_chained_ops(self):
        # per-timestep affine -> GELU -> LayerNorm layers, both LSTM directions
        # from the naive loop, then the dot-product head
        cfg = tiny_config()
        p = stand.init_params(cfg)
        x = make_rng(9).standard_normal((6, 3))
        logits, trace = stand.forward_batch(x[None], p, cfg)
        h = x
        for i in range(cfg.mlp_layers):
            h = np.stack([layernorm(gelu(p[f"embed.{i}.w"] @ h_t + p[f"embed.{i}.b"]),
                                    p[f"embed.{i}.gain"], p[f"embed.{i}.beta"],
                                    eps=stand.LAYERNORM_EPS) for h_t in h])
        fwd = reference_lstm(h, p["lstm.0.fwd.w_ih"], p["lstm.0.fwd.w_hh"], p["lstm.0.fwd.b"])
        bwd = reference_lstm(h[::-1], p["lstm.0.bwd.w_ih"], p["lstm.0.bwd.w_hh"],
                             p["lstm.0.bwd.b"])[::-1]
        h_enc = np.concatenate([fwd, bwd], axis=1)
        assert np.allclose(trace.h_embed[0], h, atol=1e-12)
        assert np.allclose(trace.h_enc[0], h_enc, atol=1e-12)
        assert np.allclose(logits[0], h_enc @ p["head.w"] + p["head.b"][0], atol=1e-12)

    def test_wrong_channel_count(self):
        cfg = tiny_config()
        p = stand.init_params(cfg)
        with pytest.raises(ConfigError):
            stand.forward_batch(np.zeros((1, 6, 4)), p, cfg)


class TestBceLoss:
    def test_zero_logits_ln2(self):
        assert stand.bce_loss(np.zeros(10), np.array([0, 1] * 5)) == pytest.approx(np.log(2))

    def test_saturated_correct_is_tiny_and_finite(self):
        s = np.array([40.0, -40.0, 40.0])
        y = np.array([1.0, 0.0, 1.0])
        loss = stand.bce_loss(s, y)
        assert 0 <= loss < 1e-15
        assert np.isfinite(stand.bce_loss(np.array([800.0]), np.array([0.0])))

    def test_matches_unfused_oracle(self):
        rng = make_rng(10)
        s = rng.standard_normal(16) * 3
        y = (rng.uniform(size=16) < 0.4).astype(float)
        direct = -np.mean(y * np.log(sigmoid(s)) + (1 - y) * np.log(1 - sigmoid(s)))
        assert stand.bce_loss(s, y) == pytest.approx(direct, rel=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            stand.bce_loss(np.zeros(3), np.zeros(4))
