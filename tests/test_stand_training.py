import numpy as np
import pytest

from instruments import calibrate_gd_learning_rate, timing_probe
from standbench import data, stand
from standbench.exceptions import ConfigError, ContractError
from standbench.ndcore import make_rng, sigmoid


def tiny_config(**kw):
    base = dict(input_channels=3, d_model=4, window=6, tem_layers=1,
                mlp_layers=2, bidirectional=True, seed=0)
    base.update(kw)
    return stand.StandConfig(**base)


def finite_difference_grads(x, y, params, config, h=1e-4):
    def loss_at():
        logits, _ = stand.forward(x, params, config)
        return stand.bce_loss(logits, y)

    out = {}
    for key, tensor in params.items():
        num = np.zeros_like(tensor)
        flat, nflat = tensor.reshape(-1), num.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_at()
            flat[idx] = orig - h
            down = loss_at()
            flat[idx] = orig
            nflat[idx] = (up - down) / (2 * h)
        out[key] = num
    return out


def max_relative_error(analytic, numeric):
    worst = 0.0
    for key in analytic:
        scale = max(np.abs(analytic[key]).max(), np.abs(numeric[key]).max(), 1e-12)
        worst = max(worst, float(np.abs(analytic[key] - numeric[key]).max() / scale))
    return worst


class TestBackward:
    def test_classifier_gradient_closed_form(self):
        cfg = tiny_config()
        p = stand.init_params(cfg)
        rng = make_rng(1)
        x = rng.standard_normal((6, 3))
        y = np.array([0, 1, 0, 0, 1, 1], dtype=float)
        logits, trace = stand.forward(x, p, cfg)
        grads = stand.backward(trace, y, p, cfg)
        residual = (sigmoid(logits) - y) / len(y)
        expected_w = residual @ trace.h_enc[0]
        assert np.allclose(grads["head.w"], expected_w, atol=1e-12)
        assert grads["head.b"][0] == pytest.approx(residual.sum(), abs=1e-14)

    def test_gradient_norm_vanishes_when_saturated_correct(self):
        cfg = tiny_config(use_embedding=False, use_tem=False)
        p = stand.init_params(cfg)
        x = np.ones((6, 3))
        x[::2] = -1.0
        y = (x[:, 0] > 0).astype(float)
        norms = []
        for scale in (1.0, 50.0):
            p_s = dict(p)
            p_s["head.w"] = np.array([scale, 0.0, 0.0])
            p_s["head.b"] = np.zeros(1)
            _, trace = stand.forward(x, p_s, cfg)
            grads = stand.backward(trace, y, p_s, cfg)
            norms.append(max(np.abs(g).max() for g in grads.values()))
        assert norms[1] < 1e-10 < norms[0]

    def test_finite_differences_full_model(self):
        cfg = tiny_config()
        p = stand.init_params(cfg)
        rng = make_rng(7)
        x = rng.standard_normal((6, 3))
        y = np.array([0, 1, 1, 0, 0, 1], dtype=float)
        _, trace = stand.forward(x, p, cfg)
        analytic = stand.backward(trace, y, p, cfg)
        numeric = finite_difference_grads(x, y, p, cfg)
        assert max_relative_error(analytic, numeric) < 1e-4

    @pytest.mark.parametrize("kw", [
        dict(bidirectional=False),
        dict(use_embedding=False),
        dict(use_tem=False),
        dict(use_tem=False, use_embedding=False),
        dict(tem_layers=2),
    ])
    def test_finite_differences_ablations(self, kw):
        cfg = tiny_config(**kw)
        p = stand.init_params(cfg)
        rng = make_rng(17)
        x = rng.standard_normal((6, 3))
        y = np.array([1, 0, 1, 0, 1, 0], dtype=float)
        _, trace = stand.forward(x, p, cfg)
        analytic = stand.backward(trace, y, p, cfg)
        numeric = finite_difference_grads(x, y, p, cfg)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_stale_trace_rejected(self):
        cfg = tiny_config()
        p = stand.init_params(cfg)
        _, trace = stand.forward(make_rng(0).standard_normal((6, 3)), p, cfg)
        with pytest.raises(ConfigError):
            stand.backward(trace, np.zeros(5), p, cfg)


class TestOptimizers:
    def test_zero_gradient_leaves_params(self):
        cfg = tiny_config()
        p = stand.init_params(cfg)
        zeros = {k: np.zeros_like(v) for k, v in p.items()}
        state = stand.AdamState.for_params(p)
        after_adam = stand.adam_step(p, zeros, state, 0.1)
        after_gd = stand.gd_step(p, zeros, 0.1)
        for key in p:
            assert np.array_equal(after_adam[key], p[key])
            assert np.array_equal(after_gd[key], p[key])

    def test_gd_scalar_recurrence(self):
        # J(theta) = theta^2 from theta=1 with eta=0.1: theta_k = 0.8^k
        theta = {"w": np.array([1.0])}
        for step in range(1, 6):
            grads = {"w": 2.0 * theta["w"]}
            theta = stand.gd_step(theta, grads, 0.1)
            assert theta["w"][0] == pytest.approx(0.8**step, rel=1e-12)

    def test_adam_first_step_magnitude(self):
        for scale in (1e-4, 1.0, 1e4):
            p = {"w": np.array([0.0])}
            g = {"w": np.array([scale])}
            state = stand.AdamState.for_params(p)
            out = stand.adam_step(p, g, state, 0.01)
            # bias-corrected first step is eta * g/|g| up to eps rounding
            assert abs(out["w"][0]) == pytest.approx(0.01, rel=1e-3)

    def test_adam_matches_reference_recurrence(self):
        rng = make_rng(3)
        p = {"w": rng.standard_normal(5)}
        state = stand.AdamState.for_params(p)
        m = np.zeros(5)
        v = np.zeros(5)
        ref = p["w"].copy()
        for t in range(1, 8):
            g = rng.standard_normal(5)
            p = stand.adam_step(p, {"w": g}, state, 0.05)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref = ref - 0.05 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
            assert np.allclose(p["w"], ref, atol=1e-14)


def labeled_windows(T=60, C=3, seed=0, window=6, stride=3):
    spec = data.SyntheticSpec(
        T=T, C=C, seed=seed, noise_scale=0.4,
        anomalies=({"kind": "spike", "start": 20, "duration": 4, "magnitude": 6.0},
                   {"kind": "level_shift", "start": 40, "duration": 8, "magnitude": 2.0}),
    )
    ds = data.generate_synthetic(spec)
    return data.make_windows(ds, window, stride)


class TestTrain:
    def test_one_epoch_full_batch_is_one_step(self):
        ws = labeled_windows()
        cfg = tiny_config(epochs=1, batch_size=1000)
        result = stand.train(ws, cfg)
        assert result.steps == 1
        assert len(result.loss_history) == 1

    def test_unlabeled_windows_rejected(self):
        ws = labeled_windows()
        unlabeled = data.WindowSet(window=ws.window, stride=ws.stride,
                                   series_length=ws.series_length, starts=ws.starts,
                                   values=ws.values, labels=None)
        with pytest.raises(ContractError):
            stand.train(unlabeled, tiny_config())

    def test_seed_determinism_bitwise(self):
        ws = labeled_windows()
        cfg = tiny_config(epochs=3, batch_size=8, seed=5)
        a = stand.train(ws, cfg)
        b = stand.train(ws, cfg)
        for key in a.params:
            assert np.array_equal(a.params[key], b.params[key])
        assert a.loss_history == b.loss_history

    def test_training_reduces_loss(self):
        ws = labeled_windows()
        cfg = tiny_config(epochs=20, batch_size=8, learning_rate=5e-3)
        result = stand.train(ws, cfg)
        assert result.loss_history[-1] < result.loss_history[0]

    def test_calibrated_gd_descent_is_monotone(self):
        ws = labeled_windows(T=48, stride=6)
        cfg = tiny_config(optimizer="gd")
        eta, history = calibrate_gd_learning_rate(ws, cfg, steps=100)
        assert len(history) == 101
        assert all(b <= a for a, b in zip(history, history[1:]))
        assert eta > 0

    def test_loss_history_export(self, tmp_path):
        path = tmp_path / "loss.csv"
        stand.write_loss_history(path, [0.5, 0.25])
        assert path.read_text().splitlines() == ["epoch,mean_loss", "1,0.5", "2,0.25"]


class TestInfer:
    def test_single_window_no_overlap_matches_forward(self):
        cfg = tiny_config()
        ws = labeled_windows(stride=6, window=6)
        result = stand.train(ws, tiny_config(epochs=1))
        x = ws.values[0]
        logits, _ = stand.forward(x, result.params, cfg)
        scores = stand.infer(x, result.params, cfg, stride=cfg.window)
        assert np.allclose(scores, logits, atol=1e-12)

    def test_batch_grouping_invariance(self):
        cfg = tiny_config()
        p = stand.init_params(cfg)
        x = make_rng(9).standard_normal((40, 3))
        a = stand.infer(x, p, cfg, stride=2, batch_size=3)
        b = stand.infer(x, p, cfg, stride=2, batch_size=64)
        assert np.allclose(a, b, rtol=0, atol=0)
        # one-window batches: batch_size=1, and 65 windows leave a one-window
        # tail batch at batch sizes 2, 4, 8 and 64 (at d=32 such a batch
        # used to round differently from larger ones)
        x = make_rng(9).standard_normal((200, 3))
        assert len(data.window_starts(200, 8, 3)) == 65
        for kw in ({}, {"tem_layers": 2}, {"bidirectional": False}):
            cfg = tiny_config(d_model=32, window=8, **kw)
            p = stand.init_params(cfg)
            ref = stand.infer(x, p, cfg, stride=3, batch_size=256)
            for batch_size in (1, 2, 4, 8, 64):
                got = stand.infer(x, p, cfg, stride=3, batch_size=batch_size)
                assert np.array_equal(got, ref), (kw, batch_size)

    def test_channel_mismatch(self):
        cfg = tiny_config()
        p = stand.init_params(cfg)
        with pytest.raises(ConfigError):
            stand.infer(np.zeros((20, 5)), p, cfg)

    def test_scores_cover_every_timestep(self):
        cfg = tiny_config()
        p = stand.init_params(cfg)
        scores = stand.infer(make_rng(2).standard_normal((23, 3)), p, cfg)
        assert scores.shape == (23,)
        assert np.all(np.isfinite(scores))


class TestComplexityProbes:
    def test_linear_in_T(self):
        cfg = stand.StandConfig(input_channels=25, d_model=64)
        a = stand.flop_estimate(cfg, 1000)
        b = stand.flop_estimate(cfg, 2000)
        assert (b.embed, b.temporal, b.scoring) == (2 * a.embed, 2 * a.temporal, 2 * a.scoring)
        assert b.total == 2 * a.total

    def test_doubling_width(self):
        small = stand.flop_estimate(stand.StandConfig(input_channels=25, d_model=32), 1000)
        big = stand.flop_estimate(stand.StandConfig(input_channels=25, d_model=64), 1000)
        assert big.temporal == 4 * small.temporal
        assert big.embed == 2 * small.embed

    def test_closed_form_sum(self):
        cfg = stand.StandConfig(input_channels=25, d_model=64, tem_layers=1)
        est = stand.flop_estimate(cfg, 1000)
        assert est.embed == 1000 * 25 * 64
        assert est.temporal == 8 * 1000 * 64 * 64 * 1 * 2
        assert est.scoring == 1000 * 64
        assert est.total == est.embed + est.temporal + est.scoring

    def test_timing_probe_returns_positive_median(self):
        cfg = stand.StandConfig(input_channels=4, d_model=8, window=16)
        times = timing_probe(cfg, (64, 32), repeats=3)
        assert times.shape == (3, 2) and np.all(times > 0)
