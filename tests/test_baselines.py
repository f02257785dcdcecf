import inspect
import json

import numpy as np
import pytest

from standbench import baselines, bench, checkpoint, stand
from standbench.checkpoint import load_checkpoint, save_checkpoint
from standbench.data import NormStats
from standbench.exceptions import ConfigError, ContractError
from standbench.metrics import auc_roc
from standbench.ndcore import make_rng, sigmoid


class TestRandom:
    def test_same_seed_identical(self):
        assert np.array_equal(baselines.random_score(100, 7), baselines.random_score(100, 7))

    def test_auc_near_half_on_long_series(self):
        rng = make_rng(0)
        y = (rng.uniform(size=6000) < 0.2).astype(int)
        scores = baselines.random_score(6000, seed=3)
        assert 47.0 <= auc_roc(scores, y) <= 53.0

    def test_mean_near_half(self):
        assert baselines.random_score(10_000, seed=1).mean() == pytest.approx(0.5, abs=0.02)


class TestPca:
    def test_full_rank_reconstructs(self):
        rng = make_rng(1)
        x = rng.standard_normal((200, 4))
        det = baselines.PcaDetector(rank=4).fit(x)
        assert np.allclose(det.score(x), 0.0, atol=1e-18)

    def test_rank_one_flags_off_subspace_point(self):
        rng = make_rng(2)
        direction = np.array([1.0, 2.0, -1.0])
        train = np.outer(rng.standard_normal(100), direction)
        det = baselines.PcaDetector(rank=1).fit(train)
        queries = np.vstack([np.outer(rng.standard_normal(5), direction),
                             [[-2.0, 1.0, 0.0]]])
        scores = det.score(queries)
        assert np.argmax(scores) == 5
        assert scores[5] > 10 * scores[:5].max() + 1e-9

    def test_centering_makes_offset_invariant(self):
        rng = make_rng(3)
        x = rng.standard_normal((150, 3))
        q = rng.standard_normal((20, 3))
        a = baselines.PcaDetector(rank=2).fit(x).score(q)
        b = baselines.PcaDetector(rank=2).fit(x + 5.0).score(q + 5.0)
        assert np.allclose(a, b, atol=1e-9)

    def test_rank_exceeds_channels(self):
        with pytest.raises(ConfigError):
            baselines.PcaDetector(rank=5).fit(np.zeros((10, 3)))


def knn_loop_oracle(train, q, k, chunk=2048):
    """The scoring loop before slicing: each 2048-row block assembled whole."""
    t_sq = np.sum(train**2, axis=1)
    out = np.empty(len(q))
    for lo in range(0, len(q), chunk):
        block = q[lo : lo + chunk]
        d_sq = np.sum(block**2, axis=1)[:, None] + t_sq[None, :] - 2.0 * block @ train.T
        np.maximum(d_sq, 0.0, out=d_sq)
        nearest = np.partition(d_sq, k - 1, axis=1)[:, :k]
        out[lo : lo + len(block)] = np.sqrt(nearest).mean(axis=1)
    return out


class TestKnnKmeans:
    def test_stored_point_scores_zero(self):
        rng = make_rng(4)
        train = rng.standard_normal((10, 3))
        det = baselines.KnnDetector(k=1).fit(train)
        assert det.score(train[3:4])[0] == pytest.approx(0.0, abs=1e-12)

    def test_knn_brute_force_oracle(self):
        rng = make_rng(5)
        train = rng.standard_normal((10, 3))
        queries = rng.standard_normal((3, 3))
        det = baselines.KnnDetector(k=4).fit(train)
        got = det.score(queries)
        for i, q in enumerate(queries):
            dists = sorted(np.linalg.norm(train - q, axis=1))
            assert got[i] == pytest.approx(np.mean(dists[:4]), rel=1e-12)

    def test_kmeans_single_centroid_is_mean_distance(self):
        rng = make_rng(6)
        train = rng.standard_normal((50, 2))
        det = baselines.KmeansDetector(n_clusters=1, seed=0).fit(train)
        assert np.allclose(det.centroids_[0], train.mean(axis=0), atol=1e-9)
        q = rng.standard_normal((5, 2))
        assert np.allclose(det.score(q), np.linalg.norm(q - train.mean(axis=0), axis=1))

    def test_kmeans_brute_force_nearest_centroid(self):
        rng = make_rng(7)
        train = rng.standard_normal((60, 3))
        det = baselines.KmeansDetector(n_clusters=4, seed=1).fit(train)
        q = rng.standard_normal((10, 3))
        got = det.score(q)
        for i in range(10):
            expect = min(np.linalg.norm(q[i] - c) for c in det.centroids_)
            assert got[i] == pytest.approx(expect, rel=1e-12)

    def test_empty_training_rejected(self):
        with pytest.raises(ConfigError):
            baselines.KnnDetector(k=1).fit(np.zeros((0, 3)))
        with pytest.raises(ConfigError):
            baselines.KmeansDetector(3).fit(np.zeros((0, 3)))

    def test_k_exceeds_training(self):
        with pytest.raises(ConfigError):
            baselines.KnnDetector(k=5).fit(np.zeros((3, 2)))

    # The GEMM's row count can move the scores' last bits at 2133 training
    # rows; 3249 rows is the other training size of the benchmark grid. The
    # query count leaves a one-row tail slice in a short last block.
    @pytest.mark.parametrize("n_train", [2133, 3249])
    def test_knn_bitwise_equals_one_block_loop(self, n_train):
        rng = make_rng(8)
        train = rng.standard_normal((n_train, 8))
        queries = rng.standard_normal((2 * baselines.KNN_GEMM_ROWS + 129, 8))
        det = baselines.KnnDetector(k=5).fit(train)
        assert np.array_equal(det.score(queries), knn_loop_oracle(train, queries, 5))


class TestLogReg:
    def test_separable_toy_reaches_full_accuracy(self):
        x = np.concatenate([np.linspace(-3, -1, 20), np.linspace(1, 3, 20)])[:, None]
        y = np.concatenate([np.zeros(20), np.ones(20)]).astype(int)
        det = baselines.LogRegDetector(learning_rate=0.5, epochs=400).fit(x, y)
        scores = det.score(x)
        pred = (scores > 0).astype(int)
        assert np.array_equal(pred, y)

    def test_first_step_closed_form(self):
        rng = make_rng(8)
        x = rng.standard_normal((30, 4))
        y = (rng.uniform(size=30) < 0.5).astype(int)
        det = baselines.LogRegDetector(learning_rate=0.2, epochs=1).fit(x, y)
        grad_w = x.T @ (sigmoid(np.zeros(30)) - y) / 30
        grad_b = float(np.mean(sigmoid(np.zeros(30)) - y))
        assert np.allclose(det.w_, -0.2 * grad_w, atol=1e-12)
        assert det.b_ == pytest.approx(-0.2 * grad_b, abs=1e-12)

    def test_permutation_invariance(self):
        rng = make_rng(9)
        x = rng.standard_normal((40, 3))
        y = (rng.uniform(size=40) < 0.4).astype(int)
        perm = rng.permutation(40)
        a = baselines.LogRegDetector(epochs=100).fit(x, y)
        b = baselines.LogRegDetector(epochs=100).fit(x[perm], y[perm])
        assert np.allclose(a.w_, b.w_, atol=1e-10)

    def test_requires_labels(self):
        with pytest.raises(ContractError):
            baselines.LogRegDetector().fit(np.zeros((5, 2)))


class TestDetectorContracts:
    def detectors(self, seed=0):
        return [
            baselines.RandomDetector(seed=seed),
            baselines.PcaDetector(rank=2),
            baselines.KnnDetector(k=3),
            baselines.KmeansDetector(n_clusters=4, seed=seed),
        ]

    def test_scores_finite_and_full_length(self):
        rng = make_rng(10)
        train = rng.standard_normal((80, 3))
        test = rng.standard_normal((37, 3))
        y = (rng.uniform(size=80) < 0.3).astype(int)
        for det in self.detectors():
            det.fit(train, y)
            scores = det.score(test)
            assert scores.shape == (37,)
            assert np.all(np.isfinite(scores))
        sup = baselines.LogRegDetector(epochs=50).fit(train, y)
        assert np.all(np.isfinite(sup.score(test)))

    def test_utad_ignores_labels(self):
        rng = make_rng(11)
        train = rng.standard_normal((60, 3))
        y = (rng.uniform(size=60) < 0.3).astype(int)
        test = rng.standard_normal((20, 3))
        for with_labels, without in zip(self.detectors(), self.detectors()):
            with_labels.fit(train, y)
            without.fit(train)
            assert np.array_equal(with_labels.score(test), without.score(test))

    def test_stad_refuses_unlabeled_fit(self):
        for det in (baselines.LogRegDetector(),
                    baselines.StandDetector(input_channels=3, d_model=4, window=6, epochs=1)):
            with pytest.raises(ContractError):
                det.fit(np.zeros((30, 3)))

    def test_build_detector_kinds(self):
        for kind in baselines.DETECTOR_KINDS:
            if kind == "stand":
                det = baselines.build_detector(kind, input_channels=3, d_model=4,
                                               window=6, epochs=1)
            else:
                det = baselines.build_detector(kind)
            assert det.kind == kind
        with pytest.raises(ConfigError):
            baselines.build_detector("iforest")

    def test_malformed_config_rejected(self):
        with pytest.raises(ConfigError, match="kk"):
            baselines.build_detector("knn", kk=3)
        with pytest.raises(ConfigError, match="input_channels"):
            baselines.build_detector("stand", d_model=4)
        with pytest.raises(ConfigError, match="strid"):
            baselines.build_detector("stand", input_channels=3, strid=2)


def numeric_parameters():
    """(kind, parameter) for every detector constructor parameter and every
    StandConfig field whose default is an int or a float (not a bool)."""
    for kind, cls in baselines.DETECTOR_KINDS.items():
        params = dict(inspect.signature(cls).parameters)
        if kind == "stand":
            params.update(inspect.signature(stand.StandConfig).parameters)
        for name, param in params.items():
            if type(param.default) in (int, float):
                yield kind, name


class TestNumericSettings:
    @pytest.mark.parametrize("value", [True, "1", float("nan")], ids=["bool", "string", "nan"])
    @pytest.mark.parametrize("kind, name", list(numeric_parameters()))
    def test_wrong_kind_of_number_rejected(self, kind, name, value):
        base = {"input_channels": 3} if kind == "stand" else {}
        with pytest.raises(ConfigError, match=name):
            baselines.build_detector(kind, **base, **{name: value})


def boolean_parameters():
    """(kind, parameter) for every detector constructor parameter and every
    StandConfig field whose default is a bool."""
    for kind, cls in baselines.DETECTOR_KINDS.items():
        params = dict(inspect.signature(cls).parameters)
        if kind == "stand":
            params.update(inspect.signature(stand.StandConfig).parameters)
        for name, param in params.items():
            if type(param.default) is bool:
                yield kind, name


class TestBooleanSettings:
    def test_stand_flags_found(self):
        assert sorted(boolean_parameters()) == [
            ("stand", "bidirectional"), ("stand", "use_embedding"), ("stand", "use_tem")]

    # each value used to be read by truthiness: "no" as true, 0 and null as false
    @pytest.mark.parametrize("value", ["no", 0, None], ids=["string", "zero", "null"])
    @pytest.mark.parametrize("kind, name", list(boolean_parameters()))
    def test_non_boolean_rejected(self, kind, name, value):
        base = {"input_channels": 3} if kind == "stand" else {}
        with pytest.raises(ConfigError, match=name):
            baselines.build_detector(kind, **base, **{name: value})


# One small fitted detector per kind; stand with a non-default train stride.
FITTED_ENTRIES = {
    "random": {"seed": 4},
    "pca": {"rank": 2},
    "knn": {"k": 3},
    "kmeans": {"n_clusters": 4, "seed": 1},
    "logreg": {"epochs": 50},
    "stand": {"input_channels": 3, "d_model": 4, "window": 6, "epochs": 2, "seed": 1,
              "train_stride": 3},
}


def fitted(kind, seed=13):
    rng = make_rng(seed)
    train = rng.standard_normal((60, 3))
    y = (rng.uniform(size=60) < 0.3).astype(int)
    det = baselines.build_detector(kind, **FITTED_ENTRIES[kind])
    return det.fit(train, y) if det.supervision == baselines.STAD else det.fit(train)


class TestDetectorClassContract:
    """What the benchmark tracer, the bench harness and the checkpoint path
    assume of every detector class."""

    @pytest.mark.parametrize("kind", sorted(baselines.DETECTOR_KINDS))
    def test_class_owns_its_interface(self, kind):
        cls = baselines.DETECTOR_KINDS[kind]
        # the tracer wraps cls.__dict__["fit"] and ["score"]: no inherited methods
        for name in ("fit", "score", "state", "from_state"):
            assert name in cls.__dict__, f"{cls.__name__}.{name} is not defined in its body"
        assert cls.kind == kind
        assert cls.supervision in (baselines.UTAD, baselines.STAD)
        assert isinstance(cls.seeded, bool)

    @pytest.mark.parametrize("kind", sorted(baselines.DETECTOR_KINDS))
    def test_from_state_inverts_state(self, kind):
        det = fitted(kind)
        config, tensors = det.state()
        again = type(det).from_state(config, tensors)
        again_config, again_tensors = again.state()
        assert again_config == config
        assert sorted(again_tensors) == sorted(tensors)
        for name, value in tensors.items():
            assert np.asarray(again_tensors[name]).tobytes() == np.asarray(value).tobytes()
        # bench offsets the "seed" key of exactly the seeded kinds
        assert type(det).seeded == ("seed" in config)


class TestSerialization:
    def test_container_round_trip(self, tmp_path):
        rng = make_rng(12)
        tensors = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal(5)}
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, "demo", {"alpha": 1.5, "name": "t"}, tensors)
        kind, config, back = load_checkpoint(path)
        assert kind == "demo"
        assert config == {"alpha": 1.5, "name": "t"}
        for key, val in tensors.items():
            assert np.array_equal(back[key], val)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        from standbench.exceptions import IngestError
        with pytest.raises(IngestError):
            load_checkpoint(path)

    @pytest.mark.parametrize("kind", ["random", "pca", "knn", "kmeans", "logreg"])
    def test_detector_round_trip(self, kind, tmp_path):
        fitted_round_trip(fitted(kind), tmp_path)

    def test_stand_detector_round_trip(self, tmp_path):
        fitted_round_trip(fitted("stand"), tmp_path)


_NORM = ["norm.mean", "norm.std"]
_STAND_CONFIG = ["batch_size", "bidirectional", "d_model", "epochs", "infer_stride",
                 "input_channels", "learning_rate", "mlp_layers", "optimizer", "seed",
                 "tem_layers", "train_stride", "use_embedding", "use_tem", "window"]
_STAND_TENSORS = [f"det.embed.{i}.{n}" for i in (0, 1) for n in ("b", "beta", "gain", "w")] + [
    "det.head.b", "det.head.w"] + [
    f"det.lstm.0.{d}.{n}" for d in ("bwd", "fwd") for n in ("b", "w_hh", "w_ih")]
# The fitted-checkpoint layout per kind: (detector config keys, sorted tensor names).
FITTED_LAYOUT = {
    "random": (["seed"], _NORM),
    "pca": (["rank"], ["det.components", "det.mean"] + _NORM),
    "knn": (["k"], ["det.train"] + _NORM),
    "kmeans": (["n_clusters", "seed"], ["det.centroids"] + _NORM),
    "logreg": (["epochs", "learning_rate"], ["det.b", "det.w"] + _NORM),
    "stand": (_STAND_CONFIG, _STAND_TENSORS + _NORM),
}


def fitted_round_trip(det, tmp_path):
    """save_fitted writes the pinned layout, and load_fitted restores the state."""
    stats = NormStats(mean=np.array([0.5, -1.0, 2.0]), std=np.array([1.0, 2.0, 0.25]))
    path = tmp_path / f"{det.kind}.ckpt"
    bench.save_fitted(path, det, stats)
    blob = path.read_bytes()
    assert blob[:4] == checkpoint.MAGIC
    header = json.loads(blob[8 : 8 + int.from_bytes(blob[4:8], "little")])
    config_keys, tensor_names = FITTED_LAYOUT[det.kind]
    assert header["version"] == checkpoint.FORMAT_VERSION == 1
    assert header["kind"] == det.kind
    assert sorted(header["config"]) == ["detector"]
    assert sorted(header["config"]["detector"]) == config_keys
    assert [t["name"] for t in header["tensors"]] == sorted(tensor_names)

    loaded, loaded_stats = bench.load_fitted(path)
    assert type(loaded) is type(det)
    assert loaded_stats.mean.tobytes() == stats.mean.tobytes()
    assert loaded_stats.std.tobytes() == stats.std.tobytes()
    config, tensors = det.state()
    loaded_config, loaded_tensors = loaded.state()
    assert loaded_config == config
    for name, value in tensors.items():
        assert np.asarray(loaded_tensors[name]).tobytes() == np.asarray(value).tobytes()


class TestCategoryOrdering:
    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [0, 2])
    def test_supervised_beat_unsupervised_on_auc(self, acceptance_runs, seed):
        # the module-level restatement of the labels-beat-models ordering:
        # both supervised detectors rank strictly above every unsupervised one
        utad = {name: acceptance_runs.cell(name, seed).auc_roc
                for name in ("random", "pca", "knn", "kmeans")}
        stand_auc = acceptance_runs.cell("stand", seed).auc_roc
        logreg_auc = acceptance_runs.cell("logreg", seed).auc_roc
        for name, value in utad.items():
            assert stand_auc > value, f"stand {stand_auc:.2f} <= {name} {value:.2f}"
            assert logreg_auc > value, f"logreg {logreg_auc:.2f} <= {name} {value:.2f}"
