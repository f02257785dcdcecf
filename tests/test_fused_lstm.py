"""The fused recurrence, trace-free inference and vectorized reassembly
against the per-direction and window-by-window references in lstm_oracle."""

import os
import time
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


def assert_same_training(got, want):
    """The same loss history and parameters, byte for byte."""
    assert got.loss_history == want.loss_history
    for key in want.params:
        assert got.params[key].tobytes() == want.params[key].tobytes(), key


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

    def test_loss_history_equals_oracle_training(self, bounded):
        cfg = stand.StandConfig(input_channels=3, d_model=4, window=6, epochs=3,
                                batch_size=8, seed=2)
        spec = data.SyntheticSpec(T=80, C=3, seed=4, anomalies=(
            {"kind": "spike", "start": 30, "duration": 5, "magnitude": 6.0},))
        ws = data.make_windows(data.generate_synthetic(spec), cfg.window, 2)
        assert_same_training(stand.train(ws, cfg), oracle.train(ws, cfg))


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

    def test_training_with_short_last_batch_equals_oracle(self, bounded):
        cfg = acceptance_size_config(epochs=2, batch_size=128)
        spec = data.SyntheticSpec(T=940, C=8, seed=5, anomalies=(
            {"kind": "spike", "start": 300, "duration": 40, "magnitude": 6.0},))
        ws = data.make_windows(data.generate_synthetic(spec), cfg.window, 3)
        assert len(ws) % cfg.batch_size not in (0, 1)
        assert_same_training(stand.train(ws, cfg), oracle.train(ws, cfg))


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


@pytest.fixture
def logged_batches(tmp_path, monkeypatch):
    """Log (first window, windows, pid, parent pid) of every batch infer
    scores; forked workers append too."""
    log = tmp_path / "batches.txt"
    real = stand._score_batch

    def logging(h, weights, params, config, starts, out, workspace):
        with open(log, "a") as fh:
            fh.write(f"{starts[0]} {len(starts)} {os.getpid()} {os.getppid()}\n")
        real(h, weights, params, config, starts, out, workspace)

    monkeypatch.setattr(stand, "_score_batch", logging)

    def batches(starts):
        """The logged batches as (first window index, windows, pid, parent pid), emptying the log."""
        got = sorted((int(np.searchsorted(starts, first)), n, pid, ppid) for first, n, pid, ppid
                     in (map(int, line.split()) for line in log.read_text().splitlines()))
        log.unlink()
        return got

    return batches


@pytest.mark.skipif(not hasattr(os, "fork"), reason="infer pools only where os.fork exists")
class TestPooledInfer:
    """infer's batches, dealt to a gang of forked workers, give the in-process scores bit for bit."""

    @pytest.mark.parametrize("name", ["full", "no_tem", "unidirectional"])
    @pytest.mark.parametrize("T, stride, batch_size, last", POOLED_CASES)
    def test_bitwise_equal_to_in_process(self, monkeypatch, logged_batches, name, T, stride,
                                         batch_size, last):
        cfg = stand.StandConfig(input_channels=3, d_model=8, window=16, seed=2,
                                **CONFIGS[name])
        params = stand.init_params(cfg)
        x = make_rng(11).standard_normal((T, 3))
        starts = data.window_starts(T, cfg.window, stride)
        assert len(starts) % batch_size == last
        batches = -(-len(starts) // batch_size)
        monkeypatch.setattr(pool, "WORK_PER_WORKER", 1e-9)  # these series are too short to pool
        monkeypatch.setattr(pool, "blas_threads", lambda: 1)

        def scores(cpus):
            monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
            return stand.infer(x, params, cfg, stride=stride, batch_size=batch_size)

        want = scores(1)
        assert logged_batches(starts) == [
            (lo, min(batch_size, len(starts) - lo), os.getpid(), os.getppid())
            for lo in range(0, len(starts), batch_size)]
        for cpus in (2, 3):
            assert scores(cpus).tobytes() == want.tobytes()
            # every batch scored once, whole, by this process or a forked child of it
            runs = logged_batches(starts)
            assert [(lo, n) for lo, n, _, _ in runs] == [
                (lo, min(batch_size, len(starts) - lo)) for lo in range(0, len(starts), batch_size)]
            pids = {pid for _, _, pid, _ in runs}
            assert len(pids) <= min(cpus, batches)
            assert all(ppid == os.getpid() for _, _, pid, ppid in runs if pid != os.getpid())

    def test_a_slowed_worker_takes_fewer_batches(self, monkeypatch, logged_batches):
        # the forked worker sleeps before each batch: this process deals itself the rest
        cfg = acceptance_size_config(d_model=8)
        params = stand.init_params(cfg)
        x = make_rng(12).standard_normal((400, cfg.input_channels))
        starts = data.window_starts(len(x), cfg.window, 1)
        monkeypatch.setattr(pool, "WORK_PER_WORKER", 1e-9)
        monkeypatch.setattr(pool, "blas_threads", lambda: 1)
        monkeypatch.setattr(pool, "usable_cpus", lambda: 1)
        want = stand.infer(x, params, cfg, stride=1, batch_size=8)
        logged_batches(starts)
        parent, logging = os.getpid(), stand._score_batch

        def slowed(*args):
            if os.getpid() != parent:
                time.sleep(0.05)
            logging(*args)

        monkeypatch.setattr(stand, "_score_batch", slowed)
        monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
        assert stand.infer(x, params, cfg, stride=1, batch_size=8).tobytes() == want.tobytes()
        runs = logged_batches(starts)
        assert sorted(lo for lo, _, _, _ in runs) == list(range(0, len(starts), 8))
        mine = sum(pid == parent for _, _, pid, _ in runs)
        assert mine > len(runs) - mine  # 47 batches: the child sleeps 50 ms before each of its own


class TestWorkRule:
    """As stand.infer decides on held-out series of the acceptance size (d=32)."""

    @staticmethod
    def infer_workers(T, stride):
        cfg = acceptance_size_config()
        windows = len(data.window_starts(T, cfg.window, stride))
        work = stand.flop_estimate(cfg, cfg.window).total * windows
        return pool.workers(-(-windows // 128), work)

    def test_long_series_pool_unless_the_stride_leaves_too_little_work(self, monkeypatch):
        monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
        monkeypatch.setattr(pool, "blas_threads", lambda: 1)
        assert self.infer_workers(18000, 1) == self.infer_workers(18000, 4) == 2
        assert self.infer_workers(18000, 16) == self.infer_workers(9000, 16) == 2
        assert self.infer_workers(9000, 32) == self.infer_workers(4500, 16) == 1

    def test_threaded_blas_never_pools(self, monkeypatch):
        monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
        monkeypatch.setattr(pool, "blas_threads", lambda: 2)
        assert {self.infer_workers(18000, stride) for stride in (1, 4, 8, 16)} == {1}


class TestReassembleOracle:
    @pytest.mark.parametrize("stride", [1, 3, 16, 32])
    def test_bitwise_equal_to_window_loop(self, stride):
        rng = make_rng(7)
        ds = data.TimeSeriesDataset(name="r", values=rng.standard_normal((203, 1)))
        ws = data.make_windows(ds, 32, stride)
        assert ws.starts[-1] == 203 - 32
        scores = rng.standard_normal((len(ws), 32)) * 10.0 ** rng.integers(-8, 8, (len(ws), 1))
        assert data.reassemble(ws, scores).tobytes() == oracle.reassemble(ws, scores).tobytes()
