# First, before numpy loads: the package then sets its default of one BLAS
# thread per process (unless the environment sets a count), so the tests run
# as a user's commands do, and pool.workers forks where it would for them.
import standbench  # noqa: F401

import signal

import numpy as np
import pytest

from family import (
    LOGREG_DETECTOR_ENTRY,
    UTAD_DETECTOR_ENTRIES,
    acceptance_spec,
    stand_config,
)
from standbench import baselines, data, pool, stand
from standbench.metrics import MetricsConfig, evaluate


class AcceptanceRuns:
    """Lazily computed, memoized detector runs on the acceptance family.

    Several acceptance criteria (and the category-ordering test) share the
    same trained models; computing each (detector, threshold, seed) cell once
    keeps the suite inside its runtime budgets.
    """

    def __init__(self):
        self._datasets = {}
        self._prepared = {}
        self._cells = {}

    def dataset(self, seed):
        if seed not in self._datasets:
            self._datasets[seed] = data.generate_synthetic(acceptance_spec(seed))
        return self._datasets[seed]

    def prepared(self, seed, threshold):
        key = (seed, threshold)
        if key not in self._prepared:
            ds = self.dataset(seed)
            split = data.prefix_split(ds, threshold)
            stats = data.zscore_fit(ds, (0, split.train_end))
            norm = data.zscore_apply(ds, stats)
            self._prepared[key] = {
                "split": split,
                "train_values": norm.values[: split.train_end],
                "train_labels": ds.labels[: split.train_end],
                "eval_values": norm.values[split.train_end :],
                "eval_labels": ds.labels[split.train_end :],
            }
        return self._prepared[key]

    def _build(self, name, seed):
        stand_flags = {
            "stand": {},
            "stand_no_bidir": {"bidirectional": False},
            "stand_no_tem": {"bidirectional": False, "use_tem": False, "use_embedding": False},
        }
        if name in stand_flags:
            config = stand_config(seed, **stand_flags[name]).to_dict()
            return baselines.StandDetector(train_stride=2, infer_stride=4, **config)
        if name == "logreg":
            cfg = {k: v for k, v in LOGREG_DETECTOR_ENTRY.items() if k != "kind"}
            return baselines.LogRegDetector(**cfg)
        for entry in UTAD_DETECTOR_ENTRIES:
            if entry["kind"] == name:
                kwargs = {k: v for k, v in entry.items() if k != "kind"}
                if baselines.DETECTOR_KINDS[name].seeded:
                    kwargs["seed"] = seed
                return baselines.build_detector(name, **kwargs)
        raise KeyError(name)

    def cell(self, name, seed, threshold=0.10):
        key = (name, seed, threshold)
        if key not in self._cells:
            prep = self.prepared(seed, threshold)
            detector = self._build(name, seed)
            if detector.supervision == baselines.STAD:
                detector.fit(prep["train_values"], prep["train_labels"])
            else:
                detector.fit(prep["train_values"])
            scores = detector.score(prep["eval_values"])
            report = evaluate(scores, prep["eval_labels"], MetricsConfig(seed=seed))
            self._cells[key] = report
        return self._cells[key]

    def mean_of_six(self, name, seeds, threshold=0.10):
        return float(np.mean([self.cell(name, s, threshold).mean_score() for s in seeds]))

    def mean_auc(self, name, seeds, threshold=0.10):
        return float(np.mean([self.cell(name, s, threshold).auc_roc for s in seeds]))


@pytest.fixture(scope="session")
def acceptance_runs():
    return AcceptanceRuns()


@pytest.fixture
def bounded():
    """Fail a test that runs for more than a minute instead of hanging, as a
    test that forks a gang would if a worker were lost."""
    def expire(*_):
        raise TimeoutError("no result within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def one_blas_thread(monkeypatch):
    """Run as if BLAS ran one thread per process, the package's default, even
    when the environment sets a BLAS thread count: pool.workers then forks as
    it does with no count set, so the tests that use this cover the forked
    path whatever the environment says."""
    monkeypatch.setattr(pool, "blas_threads", lambda: 1)
