"""Reference detectors sharing one score-sequence interface.

Unsupervised detectors (random, pca, knn, kmeans) fit on per-timestep channel
vectors and ignore labels entirely; supervised ones (logreg, stand) refuse to
fit without labels. ``score`` always returns one finite real per timestep,
higher meaning more anomalous.

Each class owns its state: the constructor takes flat config keys, ``state()``
returns them with the fitted tensors, and ``from_state`` inverts it. Adding a
detector means one such class and its ``DETECTOR_KINDS`` entry.
"""

from __future__ import annotations

import numpy as np

from . import stand as stand_mod
from .data import TimeSeriesDataset, make_windows
from .exceptions import ConfigError, ContractError, config_int
from .ndcore import make_rng, sigmoid

UTAD = "UTAD-I"
STAD = "STAD"

KMEANS_MAX_ITER = 100
KMEANS_TOL = 1e-6


def random_score(T: int, seed: int) -> np.ndarray:
    """i.i.d. uniform(0,1) scores from the seeded stream."""
    if T < 1:
        raise ConfigError("T must be >= 1")
    return make_rng(seed).uniform(size=T)


class RandomDetector:
    """Scores every timestep with an independent uniform draw."""

    kind = "random"
    supervision = UTAD
    seeded = True

    def __init__(self, seed: int = 0):
        self.seed = config_int("seed", seed)

    def fit(self, values, labels=None):
        return self

    def score(self, values) -> np.ndarray:
        return random_score(len(values), self.seed)

    def state(self):
        return {"seed": self.seed}, {}

    @classmethod
    def from_state(cls, config, tensors):
        return cls(**config)


class PcaDetector:
    """Squared reconstruction error through the top-k principal subspace."""

    kind = "pca"
    supervision = UTAD
    seeded = False

    def __init__(self, rank: int = 10):
        self.rank = config_int("rank", rank)
        self.mean_ = None
        self.components_ = None  # (k, C)

    def fit(self, values, labels=None):
        x = np.asarray(values, dtype=np.float64)
        if self.rank > x.shape[1]:
            raise ConfigError(f"pca rank {self.rank} exceeds channel count {x.shape[1]}")
        k = self.rank
        self.mean_ = x.mean(axis=0)
        centered = x - self.mean_
        cov = centered.T @ centered / max(len(x), 1)
        eigvals, eigvecs = np.linalg.eigh(cov)  # ascending
        self.components_ = eigvecs[:, ::-1][:, :k].T.copy()
        return self

    def score(self, values) -> np.ndarray:
        if self.components_ is None:
            raise ConfigError("pca detector is not fitted")
        centered = np.asarray(values, dtype=np.float64) - self.mean_
        proj = centered @ self.components_.T @ self.components_
        return np.sum((centered - proj) ** 2, axis=1)

    def state(self):
        return {"rank": self.rank}, {"mean": self.mean_, "components": self.components_}

    @classmethod
    def from_state(cls, config, tensors):
        det = cls(**config)
        det.mean_, det.components_ = tensors["mean"], tensors["components"]
        return det


# Query rows per distance GEMM. The row count decides how OpenBLAS splits the
# product, and so the last bits of the scores: keep it fixed.
KNN_GEMM_ROWS = 2048
# Query rows per distance assembly, clamp and partition: a slice of the
# cross product small enough to stay in cache.
KNN_SLICE_ROWS = 128


class KnnDetector:
    """Mean Euclidean distance to the k nearest stored training vectors."""

    kind = "knn"
    supervision = UTAD
    seeded = False

    def __init__(self, k: int = 5):
        self.k = config_int("k", k)
        if self.k < 1:
            raise ConfigError("knn needs k >= 1")
        self.train_ = None

    def fit(self, values, labels=None):
        x = np.asarray(values, dtype=np.float64)
        if len(x) == 0:
            raise ConfigError("knn training set is empty")
        if self.k > len(x):
            raise ConfigError(f"knn k={self.k} exceeds training size {len(x)}")
        self.train_ = x.copy()
        return self

    def score(self, values) -> np.ndarray:
        if self.train_ is None:
            raise ConfigError("knn detector is not fitted")
        q = np.asarray(values, dtype=np.float64)
        train = self.train_
        t_sq = np.sum(train**2, axis=1)
        out = np.empty(len(q))
        cross = np.empty((min(len(q), KNN_GEMM_ROWS), len(train)))  # reused by every block
        for lo in range(0, len(q), KNN_GEMM_ROWS):
            block = q[lo : lo + KNN_GEMM_ROWS]
            q_sq = np.sum(block**2, axis=1)
            d_sq = np.matmul(2.0 * block, train.T, out=cross[: len(block)])
            for s in range(0, len(block), KNN_SLICE_ROWS):
                part = d_sq[s : s + KNN_SLICE_ROWS]
                # |q|^2 + |t|^2 - 2 q.t, clamped at 0, written over the cross product
                np.subtract(q_sq[s : s + KNN_SLICE_ROWS, None] + t_sq, part, out=part)
                np.maximum(part, 0.0, out=part)
                nearest = np.partition(part, self.k - 1, axis=1)[:, : self.k]
                out[lo + s : lo + s + len(part)] = np.sqrt(nearest).mean(axis=1)
        return out

    def state(self):
        return {"k": self.k}, {"train": self.train_}

    @classmethod
    def from_state(cls, config, tensors):
        det = cls(**config)
        det.train_ = tensors["train"]
        return det


class KmeansDetector:
    """Distance to the nearest of k centroids fitted by seeded Lloyd iterations.

    Assignment ties break toward the lowest centroid index; clusters that
    empty out are re-seeded from the point farthest from its centroid.
    """

    kind = "kmeans"
    supervision = UTAD
    seeded = True

    def __init__(self, n_clusters: int = 10, seed: int = 0):
        self.n_clusters = config_int("n_clusters", n_clusters)
        self.seed = config_int("seed", seed)
        if self.n_clusters < 1:
            raise ConfigError("kmeans needs n_clusters >= 1")
        self.centroids_ = None

    def fit(self, values, labels=None):
        x = np.asarray(values, dtype=np.float64)
        if len(x) == 0:
            raise ConfigError("kmeans training set is empty")
        k = min(self.n_clusters, len(x))
        rng = make_rng(self.seed)
        centroids = x[rng.choice(len(x), size=k, replace=False)].copy()
        for _ in range(KMEANS_MAX_ITER):
            d = _pairwise_dist(x, centroids)
            assign = np.argmin(d, axis=1)  # argmin picks the lowest index on ties
            new = np.empty_like(centroids)
            for j in range(k):
                members = x[assign == j]
                if len(members) == 0:
                    farthest = int(np.argmax(d[np.arange(len(x)), assign]))
                    new[j] = x[farthest]
                else:
                    new[j] = members.mean(axis=0)
            shift = float(np.max(np.linalg.norm(new - centroids, axis=1)))
            centroids = new
            if shift < KMEANS_TOL:
                break
        self.centroids_ = centroids
        return self

    def score(self, values) -> np.ndarray:
        if self.centroids_ is None:
            raise ConfigError("kmeans detector is not fitted")
        return np.min(_pairwise_dist(np.asarray(values, dtype=np.float64), self.centroids_), axis=1)

    def state(self):
        return {"n_clusters": self.n_clusters, "seed": self.seed}, {"centroids": self.centroids_}

    @classmethod
    def from_state(cls, config, tensors):
        det = cls(**config)
        det.centroids_ = tensors["centroids"]
        return det


def _pairwise_dist(a, b):
    d_sq = np.sum(a**2, axis=1)[:, None] + np.sum(b**2, axis=1)[None, :] - 2.0 * a @ b.T
    return np.sqrt(np.maximum(d_sq, 0.0))


class LogRegDetector:
    """Pointwise logistic regression trained by full-batch gradient descent on BCE.

    Weights start at zero, so the first step is exactly (1/N) sum (sigma(0)-y) x.
    Scores are logits.
    """

    kind = "logreg"
    supervision = STAD
    seeded = False

    def __init__(self, learning_rate: float = 0.1, epochs: int = 500):
        self.learning_rate = learning_rate
        self.epochs = config_int("epochs", epochs)
        self.w_ = None
        self.b_ = 0.0

    def fit(self, values, labels=None):
        if labels is None:
            raise ContractError("logreg is supervised; fit requires labels")
        x = np.asarray(values, dtype=np.float64)
        y = np.asarray(labels, dtype=np.float64)
        n = len(x)
        w = np.zeros(x.shape[1])
        b = 0.0
        for _ in range(self.epochs):
            p = sigmoid(x @ w + b)
            err = (p - y) / n
            w = w - self.learning_rate * (x.T @ err)
            b = b - self.learning_rate * float(err.sum())
        self.w_, self.b_ = w, b
        return self

    def score(self, values) -> np.ndarray:
        if self.w_ is None:
            raise ConfigError("logreg detector is not fitted")
        return np.asarray(values, dtype=np.float64) @ self.w_ + self.b_

    def state(self):
        return (
            {"learning_rate": self.learning_rate, "epochs": self.epochs},
            {"w": self.w_, "b": np.array([self.b_])},
        )

    @classmethod
    def from_state(cls, config, tensors):
        det = cls(**config)
        det.w_, det.b_ = tensors["w"], float(tensors["b"][0])
        return det


class StandDetector:
    """Harness adapter around the supervised sequence detector; takes the
    ``StandConfig`` fields as flat keywords beside the two window strides."""

    kind = "stand"
    supervision = STAD
    seeded = True

    def __init__(self, train_stride: int = 2, infer_stride: int | None = None, **config):
        self.config = stand_mod.StandConfig(**config)
        self.train_stride = min(config_int("train_stride", train_stride), self.config.window)
        self.infer_stride = None if infer_stride is None else config_int("infer_stride", infer_stride)
        self.params_ = None
        self.loss_history_ = None

    def fit(self, values, labels=None):
        if labels is None:
            raise ContractError("stand is supervised; fit requires labels")
        ds = TimeSeriesDataset(name="train", values=np.asarray(values, dtype=np.float64),
                               labels=np.asarray(labels))
        windows = make_windows(ds, self.config.window, self.train_stride)
        result = stand_mod.train(windows, self.config)
        self.params_ = result.params
        self.loss_history_ = result.loss_history
        return self

    def score(self, values) -> np.ndarray:
        if self.params_ is None:
            raise ConfigError("stand detector is not fitted")
        return stand_mod.infer(values, self.params_, self.config, stride=self.infer_stride)

    def state(self):
        strides = {"train_stride": self.train_stride, "infer_stride": self.infer_stride}
        return {**self.config.to_dict(), **strides}, dict(self.params_)

    @classmethod
    def from_state(cls, config, tensors):
        det = cls(**config)
        stand_mod.check_params(tensors, det.config)
        det.params_ = tensors
        return det


DETECTOR_KINDS = {
    "random": RandomDetector,
    "pca": PcaDetector,
    "knn": KnnDetector,
    "kmeans": KmeansDetector,
    "logreg": LogRegDetector,
    "stand": StandDetector,
}


def build_detector(kind: str, **kwargs):
    """An unfitted detector from its kind tag and flat config keys."""
    if kind not in DETECTOR_KINDS:
        raise ConfigError(f"unknown detector kind '{kind}'")
    try:
        return DETECTOR_KINDS[kind](**kwargs)
    except TypeError as exc:  # an unknown or missing key
        raise ConfigError(f"invalid '{kind}' detector config: {exc}") from None
