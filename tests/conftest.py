# First, before numpy loads: the package then sets its default of one BLAS
# thread per process (unless the environment sets a count), so the tests run
# as a user's commands do, and pool.workers forks where it would for them.
import standbench  # noqa: F401

import signal

import numpy as np
import pytest

from family import acceptance_config
from standbench import bench, pool


class AcceptanceGrid:
    """The acceptance family's cells, read from the grids that
    ``bench.run_experiment`` computes (``family.acceptance_config``).

    Several acceptance criteria (and the category-ordering test) share the
    same trained models. Each threshold's grid runs once, when a test first
    asks for one of its cells, so that test's timing includes it.
    """

    def __init__(self, output_dir):
        self._output_dir = output_dir
        self._reports = {}  # threshold -> {(detector label, seed): MetricReport}

    def cell(self, label, seed, threshold=0.10):
        if threshold not in self._reports:
            table, failed = bench.run_experiment(acceptance_config(threshold, self._output_dir))
            assert not failed, [row.error for row in table.rows if row.error]
            self._reports[threshold] = {(row.detector, row.seed): row.report for row in table.rows}
        return self._reports[threshold][label, seed]

    def mean_of_six(self, label, seeds, threshold=0.10):
        return float(np.mean([self.cell(label, s, threshold).mean_score() for s in seeds]))

    def mean_auc(self, label, seeds, threshold=0.10):
        return float(np.mean([self.cell(label, s, threshold).auc_roc for s in seeds]))


@pytest.fixture(scope="session")
def acceptance_grid(tmp_path_factory):
    return AcceptanceGrid(str(tmp_path_factory.mktemp("acceptance")))


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
    path whatever the environment says. They are the tests that must fork:
    ``TestTrainingGang`` in ``test_stand_training.py``; the ``grid_path``
    fixture and ``TestProcessPool``'s identical-files, stand-cells-in-workers
    and dead-worker tests in ``test_bench.py``; criterion 10 in
    ``test_acceptance.py``; and ``test_pool.py``'s two failure tests."""
    monkeypatch.setattr(pool, "blas_threads", lambda: 1)
