"""The fused recurrence, trace-free inference and vectorized reassembly
against the per-direction and window-by-window references in lstm_oracle."""

import os
import tracemalloc

import numpy as np
import pytest

import lstm_oracle as oracle
from standbench import data, pool, stand
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


class TestReusedWorkspace:
    @pytest.mark.parametrize("name", ["full", "two_layers"])
    def test_gradients_equal_freshly_allocated_buffers(self, name):
        cfg = acceptance_size_config(**CONFIGS[name])
        params = stand.init_params(cfg)
        workspace = stand._Workspace()
        # a short first batch grows the buffers, a short later one reuses a prefix
        for B, seed in ((37, 0), (128, 1), (128, 2), (5, 3), (128, 4)):
            x, y = batch(cfg, B=B, seed=seed)
            logits, trace = stand.forward_batch(x, params, cfg, workspace=workspace)
            grads = stand.backward(trace, y, params, cfg)
            ref_logits, ref_trace = stand.forward_batch(x, params, cfg)
            ref_grads = stand.backward(ref_trace, y, params, cfg)
            assert logits.tobytes() == ref_logits.tobytes()
            for key in params:
                assert grads[key].tobytes() == ref_grads[key].tobytes(), (B, key)

    def test_training_with_short_last_batch_equals_oracle(self, monkeypatch):
        cfg = acceptance_size_config(epochs=2, batch_size=128)
        spec = data.SyntheticSpec(T=940, C=8, seed=5, anomalies=(
            {"kind": "spike", "start": 300, "duration": 40, "magnitude": 6.0},))
        ws = data.make_windows(data.generate_synthetic(spec), cfg.window, 3)
        assert len(ws) % cfg.batch_size not in (0, 1)
        fused = stand.train(ws, cfg)
        monkeypatch.setattr(stand, "forward_batch", oracle.forward_batch)
        monkeypatch.setattr(stand, "backward", oracle.backward)
        monkeypatch.setattr(pool, "usable_cpus", lambda: 1)  # the oracle knows no gang shards
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

    def test_memory_bounded_by_batch_not_series(self, monkeypatch):
        # without the embedding, a whole-series input projection (4*D*T*d
        # floats) would outweigh everything else infer keeps per timestep
        cfg = acceptance_size_config(use_embedding=False)
        params = stand.init_params(cfg)
        T = 6000
        workspace_bytes = {}
        array = stand._Workspace.array

        def recording(ws, name, shape):
            workspace_bytes[name] = max(workspace_bytes.get(name, 0), 8 * int(np.prod(shape)))
            return array(ws, name, shape)

        monkeypatch.setattr(stand._Workspace, "array", recording)
        monkeypatch.setattr(pool, "usable_cpus", lambda: 1)  # workspaces in this process
        x = make_rng(8).standard_normal((T, cfg.input_channels))
        tracemalloc.start()
        try:
            stand.infer(x, params, cfg, batch_size=16)
            traced_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        whole_series_projection = 8 * 4 * 2 * T * cfg.d_model
        assert traced_peak + sum(workspace_bytes.values()) < whole_series_projection / 4


# (T, stride, batch_size, windows in the last batch) at W = 16
POOLED_CASES = [
    (213, 1, 16, 6),  # stride 1: 198 windows, a last batch with a remainder
    (224, 1, 16, 1),  # 209 windows: a one-window tail batch
    (213, 8, 5, 1),  # stride W/2: 26 windows with the tail window, a one-window tail batch
    (213, 16, 4, 2),  # stride W: 14 windows, a last batch of 2
]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="infer pools only where os.fork exists")
class TestPooledInfer:
    """infer's batches, split across forked workers, give the in-process scores bit for bit."""

    @pytest.mark.parametrize("name", ["full", "no_tem", "unidirectional"])
    @pytest.mark.parametrize("T, stride, batch_size, last", POOLED_CASES)
    def test_bitwise_equal_to_in_process(self, tmp_path, monkeypatch, name, T, stride,
                                         batch_size, last):
        cfg = stand.StandConfig(input_channels=3, d_model=8, window=16, seed=2,
                                **CONFIGS[name])
        params = stand.init_params(cfg)
        x = make_rng(11).standard_normal((T, 3))
        starts = data.window_starts(T, cfg.window, stride)
        assert len(starts) % batch_size == last
        log = tmp_path / "workers.txt"  # forked workers append to it too
        real = stand._score_windows

        def logging(h, weights, params, config, starts, out, batch_size):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {starts[0]} {len(starts)}\n")
            real(h, weights, params, config, starts, out, batch_size)

        monkeypatch.setattr(stand, "_score_windows", logging)

        monkeypatch.setattr(pool, "WORK_PER_WORKER", 1e-9)  # these series are too short to pool

        def scores(cpus):
            """The scores, and (first window, windows, pid) of each run of windows scored."""
            monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
            log.unlink(missing_ok=True)
            got = stand.infer(x, params, cfg, stride=stride, batch_size=batch_size)
            return got, sorted((int(np.searchsorted(starts, int(first))), int(n), int(pid))
                               for pid, first, n in map(str.split, log.read_text().splitlines()))

        want, runs = scores(1)
        assert runs == [(0, len(starts), os.getpid())]
        for cpus in (2, 3):
            got, runs = scores(cpus)
            assert got.tobytes() == want.tobytes()
            # one task per CPU at most, each a contiguous run of whole batches, all
            # scored in forked workers
            assert len(runs) == min(cpus, -(-len(starts) // batch_size))
            assert os.getpid() not in {pid for _, _, pid in runs}
            ends = [first + n for first, n, _ in runs]
            assert [first for first, _, _ in runs] == [0] + ends[:-1]
            assert ends[-1] == len(starts) and all(end % batch_size == 0 for end in ends[:-1])


class TestWorkRule:
    def test_long_series_pool_unless_the_stride_leaves_too_little_work(self, monkeypatch):
        monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
        cfg = acceptance_size_config()

        def infer_workers(stride):  # as stand.infer decides on a held-out series of 18000 steps
            windows = len(data.window_starts(18000, cfg.window, stride))
            work = stand.flop_estimate(cfg, cfg.window).total * windows
            return pool.workers(-(-windows // 256), work)

        assert infer_workers(1) == infer_workers(4) == 2
        assert infer_workers(16) == 1


class TestReassembleOracle:
    @pytest.mark.parametrize("stride", [1, 3, 16, 32])
    def test_bitwise_equal_to_window_loop(self, stride):
        rng = make_rng(7)
        ds = data.TimeSeriesDataset(name="r", values=rng.standard_normal((203, 1)))
        ws = data.make_windows(ds, 32, stride)
        assert ws.starts[-1] == 203 - 32
        scores = rng.standard_normal((len(ws), 32)) * 10.0 ** rng.integers(-8, 8, (len(ws), 1))
        assert data.reassemble(ws, scores).tobytes() == oracle.reassemble(ws, scores).tobytes()
