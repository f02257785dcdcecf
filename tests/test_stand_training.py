import hashlib
import json
import os

import numpy as np
import pytest

from instruments import calibrate_gd_learning_rate, fresh_interpreter, timing_probe
from standbench import data, pool, stand
from standbench.exceptions import ConfigError, ContractError, WorkerError
from standbench.ndcore import make_rng, sigmoid


def tiny_config(**kw):
    base = dict(input_channels=3, d_model=4, window=6, tem_layers=1,
                mlp_layers=2, bidirectional=True, seed=0)
    base.update(kw)
    return stand.StandConfig(**base)


def finite_difference_grads(x, y, params, config, h=1e-4):
    def loss_at():
        logits, _ = stand.forward_batch(x[None], params, config)
        return stand.bce_loss(logits, y[None])

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
        logits, trace = stand.forward_batch(x[None], p, cfg)
        grads = stand.backward(trace, y[None], p, cfg)
        residual = (sigmoid(logits[0]) - y) / len(y)
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
            _, trace = stand.forward_batch(x[None], p_s, cfg)
            grads = stand.backward(trace, y[None], p_s, cfg)
            norms.append(max(np.abs(g).max() for g in grads.values()))
        assert norms[1] < 1e-10 < norms[0]

    def test_finite_differences_full_model(self):
        cfg = tiny_config()
        p = stand.init_params(cfg)
        rng = make_rng(7)
        x = rng.standard_normal((6, 3))
        y = np.array([0, 1, 1, 0, 0, 1], dtype=float)
        _, trace = stand.forward_batch(x[None], p, cfg)
        analytic = stand.backward(trace, y[None], p, cfg)
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
        _, trace = stand.forward_batch(x[None], p, cfg)
        analytic = stand.backward(trace, y[None], p, cfg)
        numeric = finite_difference_grads(x, y, p, cfg)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_stale_trace_rejected(self):
        cfg = tiny_config()
        p = stand.init_params(cfg)
        _, trace = stand.forward_batch(make_rng(0).standard_normal((1, 6, 3)), p, cfg)
        with pytest.raises(ConfigError):
            stand.backward(trace, np.zeros((1, 5)), p, cfg)


class TestOptimizers:
    def test_zero_gradient_leaves_params(self):
        cfg = tiny_config()
        p = stand.init_params(cfg)
        zeros = {k: np.zeros_like(v) for k, v in p.items()}
        state = stand.AdamState.for_params(p, stand._Workspace())
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
            state = stand.AdamState.for_params(p, stand._Workspace())
            out = stand.adam_step(p, g, state, 0.01)
            # bias-corrected first step is eta * g/|g| up to eps rounding
            assert abs(out["w"][0]) == pytest.approx(0.01, rel=1e-3)

    def test_adam_matches_reference_recurrence(self):
        rng = make_rng(3)
        p = {"w": rng.standard_normal(5)}
        state = stand.AdamState.for_params(p, stand._Workspace())
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


def train_digest(result) -> str:
    """A hash of a training's loss history and of every parameter's bytes."""
    digest = hashlib.sha256(np.array(result.loss_history).tobytes())
    for key in sorted(result.params):
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(result.params[key]).tobytes())
    return digest.hexdigest()[:16]


def gang_series(T, config):
    spec = data.SyntheticSpec(T=T, C=config.input_channels, seed=4, anomalies=(
        {"kind": "spike", "start": T // 3, "duration": 5, "magnitude": 6.0},
        {"kind": "level_shift", "start": T // 2, "duration": 9, "magnitude": 2.0}))
    return data.generate_synthetic(spec)


def gang_windows(T, config, stride=2):
    return data.make_windows(gang_series(T, config), config.window, stride)


GANG_BASE = dict(input_channels=3, d_model=8, window=8, epochs=3, batch_size=16, seed=2)
# name: (config, series length, stride, digest of the in-process training before
# the gang existed). T=198 gives 96 windows (whole batches of 16), 218 gives 106
# (a last batch of 10) and 200 gives 97 (a last batch of one window).
GANG_CASES = {
    "full": ({}, 198, 2, "09640c1d8b236664"),
    "two_layers": (dict(tem_layers=2), 198, 2, "e26c1fad99a050d6"),
    "unidirectional": (dict(bidirectional=False), 198, 2, "8e8c229fadcc3d4b"),
    "no_tem": (dict(use_tem=False), 198, 2, "8de0c907b09bc75e"),
    "no_embedding": (dict(use_embedding=False), 198, 2, "08cbdcea38344f68"),
    "gd": (dict(optimizer="gd", learning_rate=0.05), 198, 2, "7575430dad79378e"),
    "short_last_batch": ({}, 218, 2, "be9c74fdcd1f0835"),
    "one_window_last_batch": ({}, 200, 2, "a0dcc1dd01d8498e"),
    "batch_of_five": (dict(batch_size=5), 198, 2, "391dfbc6e131161d"),  # < 2 x 3 workers
    "acceptance_size": (dict(input_channels=8, d_model=32, window=32, batch_size=128, seed=3),
                        940, 3, "da76b0be0fe43956"),  # 304 windows: a last batch of 48
}

INFER_BASE = dict(input_channels=3, d_model=32, window=16, seed=2)
# name: (tem_layers, stride, digest of stand.infer's scores when the layers
# above the first still ran the training layout). Over T=300, stride 1 gives
# 285 windows (a last batch of 29) and the default stride W/2 gives 36. Like
# GANG_CASES, the digests hold for one numpy/OpenBLAS build.
INFER_CASES = {
    "one_layer_stride_1": (1, 1, "fbfb50edf51d1726"),
    "one_layer_default_stride": (1, None, "d404ba4ad6267f70"),
    "two_layers_stride_1": (2, 1, "dfd143742dd4d1c7"),
    "two_layers_default_stride": (2, None, "dd05bbdcd941b801"),
}


@pytest.mark.parametrize("name", sorted(INFER_CASES))
def test_infer_matches_pinned_digest(name):
    layers, stride, want = INFER_CASES[name]
    cfg = stand.StandConfig(**INFER_BASE, tem_layers=layers)
    x = gang_series(300, cfg).values
    scores = stand.infer(x, stand.init_params(cfg), cfg, stride=stride)
    assert hashlib.sha256(scores.tobytes()).hexdigest()[:16] == want


@pytest.fixture
def logged_forward(tmp_path, monkeypatch):
    """Log each forward_batch call's pid and rows; forked workers append too."""
    log = tmp_path / "forward.txt"
    real = stand.forward_batch

    def logging(x, params, config, workspace=None):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {os.getppid()} {len(x)}\n")
        return real(x, params, config, workspace=workspace)

    monkeypatch.setattr(stand, "forward_batch", logging)
    return log


def logged_calls(log):
    """(pid, parent pid, rows) of every logged call, emptying the log."""
    calls = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    log.unlink()
    return calls


@pytest.fixture
def started(monkeypatch):
    """The worker count of every gang that forks, in order."""
    counts, fork = [], pool.Gang.fork
    monkeypatch.setattr(pool.Gang, "fork",
                        lambda gang, count: fork(gang, count) or counts.append(count))
    return counts


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the training gang forks")
@pytest.mark.usefixtures("one_blas_thread", "bounded")
class TestTrainingGang:
    @pytest.mark.parametrize("name", sorted(GANG_CASES))
    def test_bitwise_equal_for_any_worker_count(self, name, monkeypatch, logged_forward, started):
        changes, T, stride, want = GANG_CASES[name]
        cfg = stand.StandConfig(**{**GANG_BASE, **changes})
        ws = gang_windows(T, cfg, stride)
        monkeypatch.setattr(pool, "WORK_PER_WORKER", 1e-9)  # a gang for any work
        for cpus in (1, 2, 3):  # three workers on fewer cores too
            monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
            started.clear()
            assert train_digest(stand.train(ws, cfg)) == want, cpus
            calls = logged_calls(logged_forward)
            assert sum(rows for _, _, rows in calls) == len(ws) * cfg.epochs
            assert all(rows >= 2 or rows == len(ws) % cfg.batch_size for _, _, rows in calls)
            # the parts are dealt, so any worker may compute any of them: this
            # process, worker 0, computes the first step, the others are its
            # forked children
            count = min(cpus, cfg.batch_size // 2)
            assert started == ([count] if count > 1 else [])
            assert os.getpid() in {pid for pid, _, _ in calls}
            assert {ppid for pid, ppid, _ in calls if pid != os.getpid()} <= {os.getpid()}

    @pytest.mark.parametrize("threads", [1, 2])
    def test_small_work_or_threaded_blas_trains_in_process(self, threads, monkeypatch,
                                                           logged_forward):
        cfg = stand.StandConfig(**GANG_BASE)
        monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
        if threads > 1:  # then even work that would pay for a gang stays here
            monkeypatch.setattr(pool, "blas_threads", lambda: threads)
            monkeypatch.setattr(pool, "WORK_PER_WORKER", 1e-9)
        assert train_digest(stand.train(gang_windows(198, cfg), cfg)) == GANG_CASES["full"][-1]
        assert {pid for pid, _, _ in logged_calls(logged_forward)} == {os.getpid()}

    @pytest.mark.parametrize("epochs, forks", [(1, []), (2, [2])])
    def test_only_the_steps_after_the_first_pay_for_the_gang(self, epochs, forks, monkeypatch,
                                                             started):
        # the first step runs in this process alone, so a one-step training
        # forks no gang, whatever its work
        cfg = stand.StandConfig(**{**GANG_BASE, "epochs": epochs, "batch_size": 128})
        monkeypatch.setattr(pool, "WORK_PER_WORKER", 1e-9)
        monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
        stand.train(gang_windows(198, cfg), cfg)  # 96 windows, one batch an epoch
        assert started == forks

    def test_a_lockstep_gang_needs_more_work_per_worker(self, monkeypatch):
        # the work after the first step, in windows of the acceptance size
        # (d=32): two workers broke even at 256 of them and won at 512
        monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
        cfg = stand.StandConfig(input_channels=8, d_model=32, window=32)
        per_window = 3 * stand.flop_estimate(cfg, cfg.window).total
        assert pool.workers(64, 400 * per_window / pool.LOCKSTEP_WORK) == 1
        assert pool.workers(64, 512 * per_window / pool.LOCKSTEP_WORK) == 2
        assert pool.workers(64, 400 * per_window / 3) == 2  # infer pools from less

    @pytest.mark.parametrize("death", ["exit", "raise"])
    def test_dead_worker_is_an_error_and_leaves_no_child(self, death, monkeypatch):
        cfg = stand.StandConfig(**GANG_BASE)
        parent, calls, children = os.getpid(), [], []
        real_forward, real_fork = stand.forward_batch, os.fork

        def dying(x, params, config, workspace=None):
            if os.getpid() != parent:  # a worker dies in its second row part
                calls.append(len(x))
            if len(calls) == 2:
                if death == "exit":
                    os._exit(7)
                raise RuntimeError("worker lost")
            return real_forward(x, params, config, workspace=workspace)

        def forking():
            children.append(real_fork())
            return children[-1]

        monkeypatch.setattr(stand, "forward_batch", dying)
        monkeypatch.setattr(os, "fork", forking)
        monkeypatch.setattr(pool, "WORK_PER_WORKER", 1e-9)
        monkeypatch.setattr(pool, "usable_cpus", lambda: 3)
        # a worker that dies held a dealt row part; one that raises names its error
        what = (r"a worker died running task \d of rows_pass" if death == "exit"
                else "gang worker [12] failed: RuntimeError: worker lost in phase rows_pass")
        with pytest.raises(WorkerError, match=what):
            stand.train(gang_windows(198, cfg), cfg)
        assert len(children) == 2
        for pid in children:  # stopped and reaped: not even a zombie is left
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


def test_blas_threads_read_like_openblas(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(pool, "usable_cpus", lambda: 4)
    assert pool.blas_threads() == 4
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    assert pool.blas_threads() == 2
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert pool.blas_threads() == 1


# what a fresh interpreter's environment and pool.blas_threads read once it has
# imported the package, with whatever ``before`` imports first
THREADS_AFTER_IMPORT = """if True:
    import json, os, sys
    exec(sys.argv[1])
    import standbench
    from standbench import pool
    print(json.dumps([{var: os.environ.get(var) for var in standbench._BLAS_THREAD_VARS},
                      pool.blas_threads(), pool.usable_cpus()]))
"""


@pytest.mark.parametrize("before, env, want_vars, want_threads", [
    ("", {}, {"OPENBLAS_NUM_THREADS": "1"}, 1),  # the package's default
    ("", {"OMP_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}, 2),  # a user's count is kept
    # numpy's BLAS already runs what the environment said: one thread per CPU
    ("import numpy", {}, {}, None),
], ids=["default", "users_count", "numpy_first"])
def test_one_blas_thread_is_the_default(before, env, want_vars, want_threads):
    got_vars, threads, cpus = json.loads(fresh_interpreter(THREADS_AFTER_IMPORT, before, **env))
    assert {var: value for var, value in got_vars.items() if value is not None} == want_vars
    assert threads == (want_threads or cpus)


class TestInfer:
    def test_single_window_no_overlap_matches_forward(self):
        cfg = tiny_config()
        ws = labeled_windows(stride=6, window=6)
        result = stand.train(ws, tiny_config(epochs=1))
        x = ws.values[0]
        logits, _ = stand.forward_batch(x[None], result.params, cfg)
        scores = stand.infer(x, result.params, cfg, stride=cfg.window)
        assert np.allclose(scores, logits[0], atol=1e-12)

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
