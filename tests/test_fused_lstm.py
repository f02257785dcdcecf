"""The fused recurrence, trace-free inference and vectorized reassembly
against the per-direction and window-by-window references in lstm_oracle."""

import numpy as np
import pytest

import lstm_oracle as oracle
from standbench import data, stand
from standbench.ndcore import make_rng


def acceptance_size_config(**kw):
    base = dict(input_channels=8, d_model=32, window=32, seed=3)
    base.update(kw)
    return stand.StandConfig(**base)


CONFIGS = {
    "full": {},
    "unidirectional": dict(bidirectional=False),
    "two_layers": dict(tem_layers=2),
    "no_embedding": dict(use_embedding=False),
    "no_tem": dict(use_tem=False),
}


def batch(config, B=128, seed=0):
    rng = make_rng(seed)
    x = rng.standard_normal((B, config.window, config.input_channels))
    y = (rng.uniform(size=(B, config.window)) < 0.2).astype(float)
    return x, y


class TestTrainingPassBitwise:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_logits_and_gradients_equal_oracle(self, name):
        cfg = acceptance_size_config(**CONFIGS[name])
        params = stand.init_params(cfg)
        x, y = batch(cfg)
        logits, trace = stand.forward_batch(x, params, cfg)
        ref_logits, ref_trace = oracle.forward_batch(x, params, cfg)
        assert logits.tobytes() == ref_logits.tobytes()
        grads = stand.backward(trace, y, params, cfg)
        ref_grads = oracle.backward(ref_trace, y, params, cfg)
        assert set(grads) == set(ref_grads) == set(params)
        for key in params:
            assert grads[key].tobytes() == ref_grads[key].tobytes(), key

    def test_loss_history_equals_oracle_training(self, monkeypatch):
        cfg = stand.StandConfig(input_channels=3, d_model=4, window=6, epochs=3,
                                batch_size=8, seed=2)
        spec = data.SyntheticSpec(T=80, C=3, seed=4, anomalies=(
            {"kind": "spike", "start": 30, "duration": 5, "magnitude": 6.0},))
        ws = data.make_windows(data.generate_synthetic(spec), cfg.window, 2)
        fused = stand.train(ws, cfg)
        monkeypatch.setattr(stand, "forward_batch", oracle.forward_batch)
        monkeypatch.setattr(stand, "backward", oracle.backward)
        ref = stand.train(ws, cfg)
        assert fused.loss_history == ref.loss_history
        for key in ref.params:
            assert fused.params[key].tobytes() == ref.params[key].tobytes()


class TestInferAgainstWindowedOracle:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    # T - W = 272: strides 1 and W/2 tile it exactly, 7 leaves a tail window
    @pytest.mark.parametrize("stride", [1, 16, 7])
    def test_within_tolerance(self, name, stride):
        cfg = acceptance_size_config(**CONFIGS[name])
        params = stand.init_params(cfg)
        x = make_rng(5).standard_normal((304, cfg.input_channels))
        got = stand.infer(x, params, cfg, stride=stride, batch_size=64)
        want = oracle.infer(x, params, cfg, stride=stride, batch_size=64)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_batch_size_does_not_change_scores(self):
        cfg = acceptance_size_config(tem_layers=2)
        params = stand.init_params(cfg)
        # 57 windows: no batch holds a single window, whose recurrent product
        # numpy routes through a matrix-vector kernel that rounds differently
        x = make_rng(6).standard_normal((200, cfg.input_channels))
        a = stand.infer(x, params, cfg, stride=3, batch_size=5)
        b = stand.infer(x, params, cfg, stride=3, batch_size=256)
        assert a.tobytes() == b.tobytes()

    def test_invalid_stride_rejected(self):
        cfg = acceptance_size_config()
        params = stand.init_params(cfg)
        with pytest.raises(stand.ConfigError):
            stand.infer(np.zeros((100, 8)), params, cfg, stride=cfg.window + 1)
        with pytest.raises(stand.ConfigError):
            stand.infer(np.zeros((10, 8)), params, cfg)


class TestReassembleOracle:
    @pytest.mark.parametrize("stride", [1, 3, 16, 32])
    def test_bitwise_equal_to_window_loop(self, stride):
        rng = make_rng(7)
        ds = data.TimeSeriesDataset(name="r", values=rng.standard_normal((203, 1)))
        ws = data.make_windows(ds, 32, stride)
        assert ws.starts[-1] == 203 - 32
        scores = rng.standard_normal((len(ws), 32)) * 10.0 ** rng.integers(-8, 8, (len(ws), 1))
        assert data.reassemble(ws, scores).tobytes() == oracle.reassemble(ws, scores).tobytes()
