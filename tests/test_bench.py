import ast
import csv
import hashlib
import json
import os
import re
import struct
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from standbench import baselines, bench, checkpoint, cli, pool, stand
from standbench.bench import ExperimentConfig, ResultsTable
from standbench.data import (SyntheticSpec, generate_synthetic, write_csv, zscore_apply,
                             zscore_fit)
from standbench.exceptions import ConfigError, IngestError, WorkerError
from standbench.metrics import MetricReport, MetricsConfig, write_scores_csv
from standbench.ndcore import make_rng


def small_spec_dict(seed=3, T=900):
    # compact labeled family with all three kinds and an early 0.10 crossing
    events = [
        {"kind": "spike", "start": 60, "duration": 6, "magnitude": 6.0},
        {"kind": "level_shift", "start": 150, "duration": 24, "magnitude": 2.0},
        {"kind": "variance_burst", "start": 260, "duration": 20, "magnitude": 5.0},
        {"kind": "spike", "start": 380, "duration": 8, "magnitude": 6.0},
        {"kind": "level_shift", "start": 470, "duration": 26, "magnitude": 2.0},
        {"kind": "variance_burst", "start": 600, "duration": 24, "magnitude": 5.0},
        {"kind": "spike", "start": 720, "duration": 8, "magnitude": 6.0},
        {"kind": "level_shift", "start": 800, "duration": 24, "magnitude": 2.0},
    ]
    return {"T": T, "C": 3, "seed": seed, "anomalies": events, "name": "mini"}


def small_config(tmp_path, detectors=None, thresholds=(0.1,), seeds=(0,), name="mini"):
    return ExperimentConfig.from_dict({
        "name": name,
        "datasets": [{"synthetic": small_spec_dict()}],
        "detectors": detectors or [
            {"kind": "random"},
            {"kind": "stand", "input_channels": 3, "d_model": 8, "window": 16,
             "epochs": 4, "batch_size": 64, "learning_rate": 5e-3},
        ],
        "split_thresholds": list(thresholds),
        "seeds": list(seeds),
        "output_dir": str(tmp_path / "out"),
        "metrics": {"buffer_max": 4, "mc_draws": 8},
    })


STAND = {"kind": "stand", "input_channels": 3, "d_model": 4, "window": 16, "epochs": 1}

# Detector settings out of range or of the wrong kind, each with the field its
# error names.
BAD_DETECTORS = {
    "logreg_string_rate": ({"kind": "logreg", "learning_rate": "0.1"}, "learning_rate"),
    "logreg_bool_rate": ({"kind": "logreg", "learning_rate": True}, "learning_rate"),
    "logreg_nan_rate": ({"kind": "logreg", "learning_rate": float("nan")}, "learning_rate"),
    "logreg_zero_rate": ({"kind": "logreg", "learning_rate": 0}, "learning_rate"),
    "logreg_zero_epochs": ({"kind": "logreg", "epochs": 0}, "epochs"),
    "pca_zero_rank": ({"kind": "pca", "rank": 0}, "rank"),
    "pca_negative_rank": ({"kind": "pca", "rank": -1}, "rank"),
    "stand_zero_train_stride": ({**STAND, "train_stride": 0}, "train_stride"),
    "stand_zero_infer_stride": ({**STAND, "infer_stride": 0}, "infer_stride"),
    "stand_infer_stride_past_window": ({**STAND, "infer_stride": 17}, "infer_stride"),
    "stand_nan_rate": ({**STAND, "learning_rate": float("nan")}, "learning_rate"),
    "stand_string_flag": ({**STAND, "use_tem": "no"}, "use_tem"),
    "stand_zero_flag": ({**STAND, "bidirectional": 0}, "bidirectional"),
    "stand_null_flag": ({**STAND, "use_embedding": None}, "use_embedding"),
}

# The same for a whole bench config: an edit of small_config and the field named.
BAD_SETTINGS = {
    **{name: ({"detectors": [entry]}, field) for name, (entry, field) in BAD_DETECTORS.items()},
    "zero_sine_period": (
        {"datasets": [{"synthetic": {**small_spec_dict(), "sine_periods": [0]}}]},
        "sine_periods"),
    "nan_magnitude": ({"datasets": [{"synthetic": {**small_spec_dict(), "anomalies": [
        {"kind": "spike", "start": 60, "duration": 6, "magnitude": float("nan")}]}}]},
        "magnitude"),
    "string_threshold_number": ({"split_thresholds": ["0.1"]}, "split_thresholds"),
    "exploding_ar_coeff": (
        {"datasets": [{"synthetic": {**small_spec_dict(), "ar_coeff": 1.5}}]}, "ar_coeff"),
}


class TestConfig:
    def test_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            small_config(tmp_path, thresholds=(0.3, 0.2))
        with pytest.raises(ConfigError):
            small_config(tmp_path, thresholds=(0.0,))
        with pytest.raises(ConfigError):
            small_config(tmp_path, detectors=[{"kind": "mystery"}])
        with pytest.raises(ConfigError):
            small_config(tmp_path, seeds=())

    def test_round_trip(self, tmp_path):
        cfg = small_config(tmp_path)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_dataset_entries_parsed_without_generating(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bench, "generate_synthetic", None)  # any call would raise
        cfg = small_config(tmp_path)
        spec = bench.dataset_source(cfg.datasets[0])
        assert spec == SyntheticSpec.from_dict(small_spec_dict())
        assert bench.dataset_label(cfg.datasets[0]) == "mini"
        no_seed = {k: v for k, v in small_spec_dict().items() if k not in ("seed", "name")}
        assert bench.dataset_source({"synthetic": no_seed}).seed == 0
        assert bench.dataset_label({"synthetic": no_seed}) == "synthetic"
        assert bench.dataset_source({"path": "a/b.csv", "label_column": "y"}) == ("a/b.csv", "y")
        assert bench.dataset_label({"path": "a/b.csv"}) == "b"


class TestRunExperiment:
    def test_stand_dominates_random(self, tmp_path):
        cfg = small_config(tmp_path)
        table, failures = bench.run_experiment(cfg)
        assert not failures
        by_det = {row.detector: row.report for row in table.rows}
        assert by_det["stand"].auc_roc > by_det["random"].auc_roc

    def test_rerun_reuses_cache_and_is_identical(self, tmp_path):
        cfg = small_config(tmp_path)
        bench.run_experiment(cfg)
        results = os.path.join(cfg.output_dir, "mini_results.json")
        first = Path(results).read_text()
        mtime = os.path.getmtime(results)
        cells = os.listdir(os.path.join(cfg.output_dir, "cells"))
        table2, _ = bench.run_experiment(cfg)
        assert Path(results).read_text() == first
        assert sorted(os.listdir(os.path.join(cfg.output_dir, "cells"))) == sorted(cells)

    def test_removing_detector_reuses_other_cells(self, tmp_path):
        cfg = small_config(tmp_path)
        bench.run_experiment(cfg)
        cells_dir = os.path.join(cfg.output_dir, "cells")
        before = set(os.listdir(cells_dir))
        mtimes = {f: os.path.getmtime(os.path.join(cells_dir, f)) for f in before}
        only_random = small_config(tmp_path, detectors=[{"kind": "random"}])
        bench.run_experiment(only_random)
        for f in before:
            assert os.path.getmtime(os.path.join(cells_dir, f)) == mtimes[f]

    def test_crash_resume_equivalence(self, tmp_path):
        # precompute one cell, then run; table must equal an uninterrupted run
        cfg = small_config(tmp_path)
        full_table, _ = bench.run_experiment(cfg)
        fresh = small_config(tmp_path / "b", name="mini")
        os.makedirs(os.path.join(fresh.output_dir, "cells"), exist_ok=True)
        partial = ExperimentConfig.from_dict({**fresh.to_dict(),
                                              "detectors": [fresh.detectors[0]]})
        bench.run_experiment(partial)  # simulates the part that survived a crash
        resumed_table, _ = bench.run_experiment(fresh)
        assert json.dumps(resumed_table.to_dict(), sort_keys=True) == json.dumps(
            full_table.to_dict(), sort_keys=True
        )

    def test_unreachable_threshold_recorded_not_raised(self, tmp_path):
        cfg = small_config(tmp_path, thresholds=(0.1, 0.8))
        table, failures = bench.run_experiment(cfg)
        assert failures
        failed = [r for r in table.rows if r.error is not None]
        assert failed and all("@0.8" in r.dataset for r in failed)
        ok = [r for r in table.rows if r.report is not None]
        assert len(ok) == len(table.rows) - len(failed) > 0

    def test_csv_dataset_entry(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec.from_dict(small_spec_dict()))
        path = tmp_path / "series.csv"
        write_csv(ds, path)
        cfg = ExperimentConfig.from_dict({
            "name": "csvrun",
            "datasets": [{"path": str(path)}],
            "detectors": [{"kind": "random"}],
            "split_thresholds": [0.1],
            "seeds": [0, 1],
            "output_dir": str(tmp_path / "out"),
            "metrics": {"mc_draws": 4},
        })
        table, failures = bench.run_experiment(cfg)
        assert not failures
        assert {row.dataset for row in table.rows} == {"series@0.1"}

    def test_edited_csv_is_not_served_from_the_cache(self, tmp_path):
        # a path entry's cells are keyed by the file's bytes, not only by its path
        spec = small_spec_dict(T=600)
        spec["anomalies"] = [event for event in spec["anomalies"] if event["start"] < 600]
        ds = generate_synthetic(SyntheticSpec.from_dict(spec))
        path = tmp_path / "series.csv"
        write_csv(ds, path)

        def report(out):
            cfg = ExperimentConfig.from_dict({
                "name": "csvrun", "datasets": [{"path": str(path)}],
                "detectors": [{"kind": "pca", "rank": 1}], "split_thresholds": [0.02],
                "seeds": [0], "output_dir": str(tmp_path / out), "metrics": {"mc_draws": 4}})
            table, failures = bench.run_experiment(cfg)
            assert not failures
            return table.rows[0].report.to_dict()

        before = report("out")
        values = ds.values.copy()
        values[400:421] += 5.0
        write_csv(replace(ds, values=values), path)
        after = report("out")
        assert after != before
        assert after == report("fresh")

    def test_unreadable_csv_fails_its_cells_until_it_can_be_read(self, tmp_path):
        path = tmp_path / "series.csv"
        cfg = ExperimentConfig.from_dict({
            "name": "csvrun", "datasets": [{"path": str(path)}],
            "detectors": [{"kind": "random"}], "split_thresholds": [0.1], "seeds": [0],
            "output_dir": str(tmp_path / "out"), "metrics": {"mc_draws": 4}})
        table, failures = bench.run_experiment(cfg)
        assert failures and "no such file" in table.rows[0].error
        write_csv(generate_synthetic(SyntheticSpec.from_dict(small_spec_dict())), path)
        assert not bench.run_experiment(cfg)[1]  # the failed cell is not reused


@pytest.fixture(params=["in_process", "pool"])
def grid_path(request, monkeypatch, one_blas_thread):
    """Run a grid's (dataset, seed) groups in this process, or on two forked workers."""
    monkeypatch.setattr(pool, "usable_cpus", lambda: 2 if request.param == "pool" else 1)
    return request.param


class TestSharedSeries:
    def test_one_generation_per_dataset_and_seed(self, tmp_path, monkeypatch, grid_path):
        log = tmp_path / "generated.txt"  # forked workers append to it too
        real = bench.generate_synthetic

        def counting(spec):
            with open(log, "a") as fh:
                fh.write(f"{spec.seed} {os.getpid()}\n")
            return real(spec)

        def calls():
            lines = log.read_text().split() if log.exists() else []
            return sorted(int(seed) for seed in lines[::2]), set(map(int, lines[1::2]))

        monkeypatch.setattr(bench, "generate_synthetic", counting)
        cfg = small_config(tmp_path, detectors=[{"kind": "random"}, {"kind": "pca", "rank": 2}],
                           thresholds=(0.05, 0.1), seeds=(0, 1))
        table, failures = bench.run_experiment(cfg)
        assert not failures and len(table.rows) == 8
        seeds, pids = calls()
        assert seeds == [3, 4]  # spec seed 3 plus each run seed
        if grid_path == "pool" and hasattr(os, "fork"):
            assert os.getpid() not in pids
        else:
            assert pids == {os.getpid()}
        log.unlink()
        bench.run_experiment(cfg)  # warm: every cell is cached
        assert calls()[0] == []

    def test_cells_share_read_only_arrays(self, tmp_path, monkeypatch):
        seen = []
        real = bench._compute_cell

        def recording(ds, *args, **kwargs):
            seen.append(ds)
            return real(ds, *args, **kwargs)

        monkeypatch.setattr(bench, "_compute_cell", recording)
        cfg = small_config(tmp_path, detectors=[{"kind": "random"}, {"kind": "knn"}],
                           thresholds=(0.05, 0.1))
        bench.run_experiment(cfg)
        assert len(seen) == 4 and all(ds is seen[0] for ds in seen)
        assert not seen[0].values.flags.writeable and not seen[0].labels.flags.writeable

    def test_series_that_cannot_be_made_fails_its_group(self, tmp_path, monkeypatch):
        calls = []

        def broken(path, label_column):
            calls.append(path)
            raise IngestError(f"{path}: row 3, column 'ch0' is not a number")

        monkeypatch.setattr(bench, "load_csv", broken)
        doc = small_config(tmp_path, detectors=[{"kind": "random"}, {"kind": "knn"}],
                           thresholds=(0.05, 0.1)).to_dict()
        cfg = ExperimentConfig.from_dict({**doc, "datasets": [{"path": "series.csv"}]})
        table, failures = bench.run_experiment(cfg)
        assert failures and calls == ["series.csv"]  # made once, not once per cell
        assert [row.error for row in table.rows] == [
            "series.csv: row 3, column 'ch0' is not a number"] * 4

    def test_shared_series_equal_fresh_ones(self, tmp_path):
        # the grid's table is the same as one that materializes per cell
        cfg = small_config(tmp_path, detectors=[{"kind": "random"}, {"kind": "knn"}],
                           thresholds=(0.05, 0.1), seeds=(0, 1))
        table, _ = bench.run_experiment(cfg)
        for row in table.rows:
            entry = next(d for d in cfg.detectors if bench.detector_label(d) == row.detector)
            threshold = float(row.dataset.rsplit("@", 1)[1])
            ds = bench.materialize_dataset(cfg.datasets[0], row.seed)
            record = bench._compute_cell(ds, row.dataset, threshold, entry, row.seed, cfg)
            assert record.report.values() == row.report.values()


class TestNumericFailures:
    @pytest.mark.parametrize("error", [np.linalg.LinAlgError, FloatingPointError])
    def test_raising_detector_fails_its_cells_only(self, tmp_path, monkeypatch, error, grid_path):
        def broken_fit(self, values, labels=None):
            raise error("did not converge")

        monkeypatch.setattr(baselines.PcaDetector, "fit", broken_fit)
        cfg = small_config(tmp_path, detectors=[{"kind": "random"}, {"kind": "pca", "rank": 2}],
                           seeds=(0, 1))
        table, failures = bench.run_experiment(cfg)
        assert failures
        by_det = {}
        for row in table.rows:
            by_det.setdefault(row.detector, []).append(row)
        assert all(r.report is not None for r in by_det["random"])
        assert [r.error for r in by_det["pca"]] == [f"{error.__name__}: did not converge"] * 2
        assert os.path.exists(os.path.join(cfg.output_dir, "mini_results.md"))


class TestProcessPool:
    @pytest.mark.usefixtures("one_blas_thread")
    def test_pool_and_in_process_write_identical_files(self, tmp_path, monkeypatch):
        second = {**small_spec_dict(seed=7), "name": "other"}
        files = {}
        for cpus in (2, 1):
            monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
            out = tmp_path / f"cpus{cpus}"
            doc = {**small_config(tmp_path, thresholds=(0.05, 0.1)).to_dict(),
                   "output_dir": str(out), "seeds": [0, 1],
                   "datasets": [{"synthetic": small_spec_dict()}, {"synthetic": second}],
                   "detectors": [{"kind": "random"}, {"kind": "pca", "rank": 2}]}
            # half the cells cached first: every group mixes cached and computed cells
            bench.run_experiment(ExperimentConfig.from_dict({**doc, "detectors": doc["detectors"][1:]}))
            table, failures = bench.run_experiment(ExperimentConfig.from_dict(doc))
            assert not failures and len(table.rows) == 16
            files[cpus] = {os.path.relpath(os.path.join(root, name), out):
                           Path(root, name).read_bytes()
                           for root, _, names in os.walk(out) for name in names}
        assert len(files[1]) == 16 + 3 and files[2] == files[1]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="grids pool only where os.fork exists")
    @pytest.mark.usefixtures("one_blas_thread")
    def test_stand_cells_score_in_process_inside_workers(self, tmp_path, monkeypatch):
        # a grid worker that scored on a gang of its own would fork grandchildren
        log = tmp_path / "infer.txt"  # forked workers append to it too
        real_score, real_fork = stand._score_batch, pool.Gang.fork

        def scoring(*args):
            with open(log, "a") as fh:
                fh.write(f"score {os.getpid()} {os.getppid()} {pool.workers(2)}\n")
            real_score(*args)

        def forking(gang, count):
            with open(log, "a") as fh:
                fh.write(f"fork {os.getpid()} {os.getppid()} {count}\n")
            real_fork(gang, count)

        monkeypatch.setattr(stand, "_score_batch", scoring)
        monkeypatch.setattr(pool.Gang, "fork", forking)
        files = {}
        for cpus in (2, 1):
            monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
            out = tmp_path / f"cpus{cpus}"
            # stride 1 over ~800 held-out steps: several infer batches per cell
            doc = {**small_config(tmp_path, seeds=(0, 1)).to_dict(), "output_dir": str(out),
                   "detectors": [{"kind": "random"}, {**STAND, "window": 8, "infer_stride": 1}]}
            table, failures = bench.run_experiment(ExperimentConfig.from_dict(doc))
            assert not failures and len(table.rows) == 4
            files[cpus] = {os.path.relpath(os.path.join(root, name), out):
                           Path(root, name).read_bytes()
                           for root, _, names in os.walk(out) for name in names}
            if cpus == 2:
                calls = [line.split() for line in log.read_text().splitlines()]
                # one gang, forked here for the grid: no worker forked again
                assert [(kind, int(pid), int(count)) for kind, pid, _, count in calls
                        if kind == "fork"] == [("fork", os.getpid(), 3)]
                # every batch scored in a grid worker, in-process there
                scored = [tuple(map(int, rest)) for kind, *rest in calls if kind == "score"]
                assert len(scored) > 2
                assert all(pid != os.getpid() and ppid == os.getpid() and workers == 1
                           for pid, ppid, workers in scored)
                log.unlink()
        assert len(files[1]) == 4 + 3 and files[2] == files[1]

    def test_importing_the_package_loads_no_pool(self, tmp_path):
        code = ("import sys, standbench.cli; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True).stdout
        assert out.strip() == "[]"
        # nor does pooling: the gang is made of os.fork and pipes
        code = """if True:
            import json, sys
            import numpy as np
            from standbench import bench, pool, stand
            forks, real = [], pool.Gang.fork
            pool.Gang.fork = lambda gang, count: (forks.append(count), real(gang, count))[1]
            pool.usable_cpus, pool.blas_threads = (lambda: 2), (lambda: 1)
            pool.WORK_PER_WORKER = 1e-9
            cfg = stand.StandConfig(input_channels=2, d_model=4, window=8)
            stand.infer(np.zeros((3000, 2)), stand.init_params(cfg), cfg, stride=1)
            bench.run_experiment(bench.ExperimentConfig.from_dict(json.loads(sys.argv[1])))
            print(forks, sorted(m for m in sys.modules
                                if m.split('.')[0] in ('multiprocessing', 'concurrent')))
        """
        grid = small_config(tmp_path, detectors=[{"kind": "random"}], seeds=(0, 1)).to_dict()
        out = subprocess.run([sys.executable, "-c", code, json.dumps(grid)], capture_output=True,
                             text=True, check=True).stdout
        # an infer gang, then a grid's two workers and this process waiting
        assert out.strip() == ("[2, 3] []" if hasattr(os, "fork") else "[] []")

    @staticmethod
    def package_modules():
        """(file name, syntax tree) of every module of the package."""
        package = os.path.dirname(bench.__file__)
        for name in sorted(os.listdir(package)):
            if name.endswith(".py"):
                with open(os.path.join(package, name), encoding="utf-8") as fh:
                    yield name, ast.parse(fh.read())

    def test_only_pool_forks(self):
        # the modules that name os.fork (or os.forkpty), or import it from os
        forking = set()
        for name, tree in self.package_modules():
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    names = [node.attr] if node.value.id == "os" else []
                elif isinstance(node, ast.ImportFrom) and node.module == "os":
                    names = [alias.name for alias in node.names]
                else:
                    names = []
                if any(n.startswith("fork") for n in names):
                    forking.add(name)
        assert forking == {"pool.py"}

    def test_only_pool_workers_reads_blas_threads(self):
        # one rule decides every fork; another reader of the BLAS threads
        # would be a second rule. Each reader is named by its innermost function.
        readers = set()
        for name, tree in self.package_modules():
            functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
            for node in ast.walk(tree):
                if "blas_threads" in (getattr(node, "id", None), getattr(node, "attr", None),
                                      node.name if isinstance(node, ast.alias) else None):
                    around = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                    readers.add((name, max(around, key=lambda f: f.lineno).name
                                 if around else None))
        assert readers == {("pool.py", "workers")}

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="grids pool only where os.fork exists")
    def test_training_inside_workers_stays_in_process(self, tmp_path, monkeypatch, bounded):
        # a grid worker that trained on a gang of its own would fork grandchildren
        log = tmp_path / "train.txt"  # forked workers append to it too
        real = stand.forward_batch

        def logging(x, params, config, workspace=None):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {os.getppid()}\n")
            return real(x, params, config, workspace=workspace)

        monkeypatch.setattr(stand, "forward_batch", logging)
        # anywhere else, a gang for any work
        monkeypatch.setattr(pool, "WORK_PER_WORKER", 1e-9)
        monkeypatch.setattr(pool, "blas_threads", lambda: 1)
        monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
        doc = {**small_config(tmp_path, seeds=(0, 1)).to_dict(), "detectors": [STAND]}
        table, failures = bench.run_experiment(ExperimentConfig.from_dict(doc))
        assert not failures and len(table.rows) == 2
        calls = {tuple(map(int, line.split())) for line in log.read_text().splitlines()}
        assert len({pid for pid, _ in calls}) == 2
        assert {ppid for _, ppid in calls} == {os.getpid()}

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="grids pool only where os.fork exists")
    @pytest.mark.usefixtures("one_blas_thread")
    def test_dead_worker_exits_3_and_keeps_finished_groups(self, tmp_path, monkeypatch, capsys,
                                                           bounded):
        out = tmp_path / "out"
        pids = tmp_path / "pids.txt"  # forked workers append to it
        real, parent = bench._compute_group, os.getpid()

        def dying(dataset_entry, cells, config):
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            # the seed-1 group dies once seed 0's cells are written, in a worker
            if cells[0][-1] == 1 and os.getpid() != parent:
                deadline, cells_dir = time.monotonic() + 30, out / "cells"
                while len(list(cells_dir.glob("*.json"))) < 2 and time.monotonic() < deadline:
                    time.sleep(0.01)
                os._exit(9)
            return real(dataset_entry, cells, config)

        monkeypatch.setattr(bench, "_compute_group", dying)
        monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
        detectors = [{"kind": "random"}, {"kind": "pca", "rank": 2}]
        doc = {**small_config(tmp_path, detectors=detectors, seeds=(0, 1)).to_dict(),
               "output_dir": str(out)}
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["bench", "--config", str(path)]) == 3
        assert "error: a worker died running task 1 of dying" in capsys.readouterr().err
        kept = sorted((out / "cells").glob("*.json"))
        assert len(kept) == 2 and not (out / "mini_results.json").exists()
        assert sorted(bench.read_cell(str(path)).detector for path in kept) == ["pca", "random"]
        for pid in {int(line) for line in pids.read_text().split()}:  # every worker reaped
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_worker_error_is_raised(self, tmp_path, monkeypatch, grid_path):
        # a task's own exception in-process; a WorkerError naming it from a forked worker
        log = tmp_path / "fits.txt"  # forked workers append to it too

        def broken_fit(self, values, labels=None):
            with open(log, "a") as fh:
                fh.write("fit\n")
            raise KeyError("not a cell failure")

        monkeypatch.setattr(baselines.PcaDetector, "fit", broken_fit)
        cfg = small_config(tmp_path, detectors=[{"kind": "pca", "rank": 2}], seeds=(0, 1, 2, 3))
        pooled = grid_path == "pool" and hasattr(os, "fork")
        kind, text = (WorkerError, "KeyError: 'not a cell failure'") if pooled else (
            KeyError, "not a cell failure")
        with pytest.raises(kind, match=text):
            bench.run_experiment(cfg)
        # no group started after a failure: at most one per worker
        assert len(log.read_text().split()) <= (2 if pooled else 1)


class TestAggregation:
    def make_table(self):
        table = ResultsTable(name="agg")
        for seed, auc in ((0, 80.0), (1, 90.0), (2, 100.0)):
            table.rows.append(bench.CellRecord(
                detector="d", dataset="x@0.1", seed=seed,
                report=MetricReport(cce=10, f1=20, aff_f1=30, uaff_f1=40,
                                    auc_roc=auc, vus_pr=60, threshold=0.5, seed=seed),
            ))
        return table

    def test_ci_matches_direct_recomputation(self):
        agg = self.make_table().aggregate()[0]
        vals = np.array([80.0, 90.0, 100.0])
        half = 1.96 * vals.std(ddof=1) / np.sqrt(3)
        assert agg["auc_roc"]["mean"] == pytest.approx(90.0)
        assert agg["auc_roc"]["ci_low"] == pytest.approx(90.0 - half)
        assert agg["auc_roc"]["ci_high"] == pytest.approx(90.0 + half)
        assert agg["auc_roc"]["ci_low"] <= agg["auc_roc"]["mean"] <= agg["auc_roc"]["ci_high"]

    def test_table_round_trip(self):
        table = self.make_table()
        again = ResultsTable.from_dict(table.to_dict())
        assert json.dumps(again.to_dict(), sort_keys=True) == json.dumps(
            table.to_dict(), sort_keys=True
        )


class TestReportRendering:
    def test_markdown_bolds_column_best(self):
        table = ResultsTable(name="r")
        for det, auc in (("a", 70.0), ("b", 90.0)):
            table.rows.append(bench.CellRecord(
                detector=det, dataset="x@0.1", seed=0,
                report=MetricReport(cce=10, f1=20, aff_f1=30, uaff_f1=40,
                                    auc_roc=auc, vus_pr=60, threshold=0.0, seed=0)))
        md = bench.render_table(table, "markdown")
        row_b = [line for line in md.splitlines() if line.startswith("| b ")][0]
        assert "**90.00**" in row_b
        row_a = [line for line in md.splitlines() if line.startswith("| a ")][0]
        assert "**70.00**" not in row_a

    def test_failures_render_explicitly(self):
        table = ResultsTable(name="r")
        table.rows.append(bench.CellRecord(detector="a", dataset="x@0.9", seed=0,
                                           error="threshold unreachable"))
        for fmt in ("csv", "markdown"):
            text = bench.render_table(table, fmt)
            assert "FAILED(threshold unreachable)" in text

    def test_csv_json_round_trip_lossless(self, tmp_path):
        table = self.subject_table()
        path = tmp_path / "t.json"
        bench.atomic_write(str(path), bench.render_table(table, "json"))
        again = ResultsTable.from_dict(json.loads(path.read_text()))
        assert bench.render_table(again, "csv") == bench.render_table(table, "csv")

    def subject_table(self):
        table = ResultsTable(name="rt")
        table.rows.append(bench.CellRecord(
            detector="a", dataset="x@0.1", seed=0,
            report=MetricReport(cce=1.25, f1=2.5, aff_f1=3.125, uaff_f1=-4.0,
                                auc_roc=55.0, vus_pr=6.75, threshold=0.123, seed=0)))
        return table


class TestSweeps:
    def test_gain_sweep_emits_budget_series(self, tmp_path):
        cfg = small_config(tmp_path, thresholds=(0.08, 0.12),
                           detectors=[{"kind": "logreg", "epochs": 50}])
        table, failures = bench.gain_sweep(cfg)
        assert not failures
        gain_csv = os.path.join(cfg.output_dir, "mini_gain.csv")
        lines = Path(gain_csv).read_text().splitlines()
        assert lines[0] == "detector,dataset,threshold,seed,mean_score"
        per_seed = [l for l in lines[1:] if l.startswith("logreg,mini,")
                    and len(l.split(",")) == 5]
        assert len(per_seed) == 2  # one per threshold for the single seed

    def test_ablation_matrix_variants_and_structure(self, tmp_path):
        cfg = small_config(tmp_path)
        table, failures = bench.run_experiment(bench.ablation_config(cfg))
        assert not failures
        detectors = {row.detector for row in table.rows}
        assert detectors == {"stand_full", "stand_no_bidir", "stand_no_tem"}
        variants = bench.ablation_config(cfg).detectors
        no_tem = [v for v in variants if v["label"] == "stand_no_tem"][0]
        assert no_tem["use_tem"] is False and no_tem["use_embedding"] is False

    def test_ablation_requires_single_stand(self, tmp_path):
        cfg = small_config(tmp_path, detectors=[{"kind": "random"}])
        with pytest.raises(ConfigError):
            bench.ablation_config(cfg)

    def test_sensitivity_sweep_plot_data(self, tmp_path):
        cfg = small_config(tmp_path, detectors=[
            {"kind": "stand", "input_channels": 3, "d_model": 8, "window": 16,
             "epochs": 2, "batch_size": 64}])
        table, failures = bench.sensitivity_sweep(cfg, "window", [12, 16])
        assert not failures
        path = os.path.join(cfg.output_dir, "mini_sens_window_plotdata.csv")
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "axis,value,dataset,metric,mean,ci_low,ci_high"
        assert len(lines) == 1 + 2 * 6  # 2 values x 6 metrics
        for line in lines[1:]:
            _, _, _, _, mean, lo, hi = line.split(",")
            assert float(lo) <= float(mean) <= float(hi)

    def test_labels_needing_quotes_keep_every_column(self, tmp_path):
        # a comma, a quote or a pipe in a label or a failure reason
        detector, dataset = 'knn,k="3"|x', 'mini,"m"|y'
        doc = small_config(tmp_path, thresholds=(0.1, 0.9)).to_dict()  # 0.9 cells fail
        doc["datasets"] = [{"synthetic": {**small_spec_dict(), "name": dataset}}]
        doc["detectors"] = [{"kind": "knn", "k": 3, "label": detector}]
        cfg = ExperimentConfig.from_dict(doc)
        bench.gain_sweep(cfg)
        doc["detectors"] = [{**STAND, "label": detector}]
        bench.sensitivity_sweep(ExperimentConfig.from_dict(doc), "window", [12, 16])
        out = cfg.output_dir
        for name in ("mini_results.csv", "mini_gain.csv", "mini_sens_window_plotdata.csv"):
            with open(os.path.join(out, name), newline="") as fh:
                rows = list(csv.reader(fh))
            parts = [rows]
            if name == "mini_gain.csv":  # the per-seed rows, then the aggregate's own header
                cut = rows.index(["detector", "dataset", "threshold", "mean", "ci_low", "ci_high"])
                parts = [rows[:cut], rows[cut:]]
            for part in parts:
                assert {len(row) for row in part} == {len(part[0])}, name
            assert dataset in {cell.rsplit("@", 1)[0] for row in rows for cell in row}, name
        with open(os.path.join(out, "mini_results.csv"), newline="") as fh:
            assert {row[0] for row in list(csv.reader(fh))[1:]} == {detector}
        with open(os.path.join(out, "mini_results.md")) as fh:
            widths = {len(re.split(r"(?<!\\)\|", line)) for line in fh.read().splitlines()}
        assert widths == {len(bench.METRIC_COLUMNS) + 6}

    def test_sensitivity_rejects_unknown_axis(self, tmp_path):
        cfg = small_config(tmp_path)
        with pytest.raises(ConfigError):
            bench.sensitivity_sweep(cfg, "dropout", [1])


class TestCli:
    def test_evaluate_defaults_are_the_metrics_defaults(self):
        args = cli.build_parser().parse_args(["evaluate", "--scores", "s", "--data", "d",
                                              "--out", "o"])
        default = MetricsConfig()
        assert (args.buffer_max, args.mc_draws) == (default.buffer_max, default.mc_draws)

    @pytest.mark.parametrize("entry", [
        {"kind": "random"}, {"kind": "pca", "rank": 2}, {"kind": "knn"}, {"kind": "kmeans"},
        {"kind": "logreg", "epochs": 100}, {**STAND, "batch_size": 64}], ids=lambda e: e["kind"])
    def test_generate_split_train_score_evaluate(self, tmp_path, capsys, entry):
        # the files the CLI writes and reads give the bench cell's six metrics, bit for bit
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(small_spec_dict()))
        data_path = tmp_path / "data.csv"
        assert cli.main(["generate", "--spec", str(spec_path), "--out", str(data_path)]) == 0

        capsys.readouterr()
        assert cli.main(["split", "--data", str(data_path), "--threshold", "0.1"]) == 0
        segment = f"{json.loads(capsys.readouterr().out)['train_end']}:"

        det_path = tmp_path / "det.json"
        det_path.write_text(json.dumps(entry))
        model_path = tmp_path / "model.ckpt"
        assert cli.main(["train", "--data", str(data_path), "--threshold", "0.1",
                         "--detector", str(det_path), "--out", str(model_path)]) == 0

        scores_path = tmp_path / "scores.csv"
        assert cli.main(["score", "--model", str(model_path), "--data", str(data_path),
                         "--out", str(scores_path), "--segment", segment]) == 0

        report_path = tmp_path / "report.json"
        assert cli.main(["evaluate", "--scores", str(scores_path), "--data", str(data_path),
                         "--out", str(report_path), "--segment", segment, "--buffer-max", "4",
                         "--mc-draws", "8"]) == 0
        report = json.loads(report_path.read_text())
        series = generate_synthetic(SyntheticSpec.from_dict(small_spec_dict()))
        cell = bench._compute_cell(series, "mini@0.1", 0.1, entry, 0, small_config(tmp_path))
        assert ({name: report[name] for name in MetricReport.METRIC_ORDER}
                == {name: getattr(cell.report, name) for name in MetricReport.METRIC_ORDER})
        assert sorted(os.listdir(tmp_path)) == ["data.csv", "det.json", "model.ckpt",
                                                "report.json", "scores.csv", "spec.json"]

    def test_bench_and_report_commands(self, tmp_path):
        cfg = small_config(tmp_path, detectors=[{"kind": "random"}])
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert cli.main(["bench", "--config", str(cfg_path)]) == 0
        table_path = os.path.join(cfg.output_dir, "mini_results.json")
        out_md = tmp_path / "table.md"
        assert cli.main(["report", "--table", table_path, "--format", "markdown",
                         "--out", str(out_md)]) == 0
        assert out_md.read_text().startswith("| detector |")

    def test_exit_code_one_on_cell_failure(self, tmp_path):
        cfg = small_config(tmp_path, detectors=[{"kind": "random"}],
                           thresholds=(0.1, 0.8))
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert cli.main(["bench", "--config", str(cfg_path)]) == 1

    def test_exit_code_two_on_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "datasets": [], "detectors": [],
                                   "split_thresholds": [0.1], "seeds": [],
                                   "output_dir": str(tmp_path)}))
        assert cli.main(["bench", "--config", str(bad)]) == 2
        assert cli.main(["split", "--data", str(tmp_path / "nope.csv"),
                         "--threshold", "0.2"]) == 2

    @pytest.mark.parametrize("edit", [
        {"detectors": [{"kind": "knn", "kk": 3}]},
        {"detectors": [{"kind": "random"}, {"kind": "stand", "d_model": 8, "window": 16}]},
        {"metrics": {"buffer_max": 4, "mc_draw": 8}},
        {"metrics": {"mc_draws": 0}},
        {"metrics": {"buffer_max": -1}},
        {"seed": [0]},
        {"detectors": [{"kind": "knn", "k": 2.5}]},
        {"detectors": [{"kind": "kmeans", "n_clusters": True}]},
        {"detectors": [{"kind": "random", "seed": "1"}]},
        {"detectors": [{"kind": "stand", "input_channels": 3, "window": 16.0}]},
        {"detectors": ["knn"]},
        [{"name": "x"}],
        {"seeds": ["a"]},
        {"seeds": [0.5]},
        {"split_thresholds": ["abc"]},
        {"datasets": [{"label_column": "label"}]},
        {"datasets": ["series.csv"]},
        {"datasets": [{"path": "a.csv", "synthetic": small_spec_dict()}]},
        {"datasets": [{"path": 5}]},
        {"datasets": [{"synthetic": {**small_spec_dict(), "bogus": 1}}]},
        {"datasets": [{"synthetic": {**small_spec_dict(), "anomalies": ["spike"]}}]},
        {"datasets": [{"synthetic": {**small_spec_dict(), "T": "900"}}]},
        {"output_dir": None},
        {"detectors": [{"kind": "random", "label": 7}]},
        {"metrics": {"mc_draws": 2.5}},
        {"seeds": [0, -1]},
        {"detectors": [{"kind": "random", "seed": -1}]},
        {"metrics": {"buffer_max": 4, "mc_draws": 8, "seed": -1}},
        {"detectors": [{"kind": "knn", "k": 1}, {"kind": "knn", "k": 20}]},
        {"datasets": [{"synthetic": small_spec_dict()}, {"synthetic": small_spec_dict(seed=4)}]},
        {"seeds": [0, 1, 0]},
        *(edit for edit, _ in BAD_SETTINGS.values()),
    ], ids=["detector_key", "stand_without_channels", "metrics_key", "zero_draws",
            "negative_buffer", "top_level_key", "float_int", "bool_int", "string_seed",
            "stand_float_window", "detector_not_object", "config_not_object",
            "string_seeds", "float_seeds", "string_threshold", "dataset_without_source",
            "dataset_not_object", "dataset_two_sources", "path_not_string",
            "synthetic_unknown_field", "synthetic_event_not_object", "synthetic_string_T",
            "output_dir_not_string", "label_not_string", "float_draws",
            "negative_run_seed", "negative_detector_seed", "negative_metrics_seed",
            "shared_detector_label", "shared_dataset_label", "repeated_seed",
            *BAD_SETTINGS])
    def test_exit_code_two_on_malformed_bench_config(self, tmp_path, capsys, monkeypatch, edit):
        cfg = small_config(tmp_path)
        doc = {**cfg.to_dict(), **edit} if isinstance(edit, dict) else edit
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(doc)
        monkeypatch.setattr(bench, "generate_synthetic", None)  # no series is made at load
        assert cli.main(["bench", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not os.path.exists(cfg.output_dir)  # rejected before any cell ran

    @pytest.mark.parametrize("edit, field", BAD_SETTINGS.values(), ids=list(BAD_SETTINGS))
    def test_out_of_range_setting_error_names_its_field(self, tmp_path, edit, field):
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig.from_dict({**small_config(tmp_path).to_dict(), **edit})

    def test_exit_code_two_on_malformed_train_and_evaluate(self, tmp_path):
        data_path = tmp_path / "data.csv"
        write_csv(generate_synthetic(SyntheticSpec.from_dict(small_spec_dict())), data_path)
        det_path = tmp_path / "det.json"
        det_path.write_text(json.dumps({"kind": "knn", "kk": 3}))
        assert cli.main(["train", "--data", str(data_path), "--threshold", "0.1",
                         "--detector", str(det_path), "--out", str(tmp_path / "m.ckpt")]) == 2
        scores_path = tmp_path / "scores.csv"
        write_scores_csv(scores_path, make_rng(0).uniform(size=900))
        evaluate = ["evaluate", "--scores", str(scores_path), "--data", str(data_path),
                    "--out", str(tmp_path / "r.json")]
        assert cli.main(evaluate) == 0
        assert cli.main(evaluate + ["--mc-draws", "0"]) == 2
        assert cli.main(evaluate + ["--buffer-max", "-1"]) == 2

    @pytest.mark.parametrize("text", [
        json.dumps({"kind": "knn", "k": 2.5}),
        json.dumps({"kind": "logreg", "epochs": False}),
        json.dumps([{"kind": "knn"}]),
        '{"kind": "knn",',
        *(json.dumps(entry) for entry, _ in BAD_DETECTORS.values()),
    ], ids=["float_int", "bool_int", "json_list", "invalid_json", *BAD_DETECTORS])
    def test_exit_code_two_on_malformed_detector_file(self, tmp_path, capsys, text):
        data_path = tmp_path / "data.csv"
        write_csv(generate_synthetic(SyntheticSpec.from_dict(small_spec_dict())), data_path)
        det_path = tmp_path / "det.json"
        det_path.write_text(text)
        model_path = tmp_path / "m.ckpt"
        assert cli.main(["train", "--data", str(data_path), "--threshold", "0.1",
                         "--detector", str(det_path), "--out", str(model_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not model_path.exists()

    def test_exit_code_two_on_non_integer_sweep_values(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(small_config(tmp_path).to_dict()))
        assert cli.main(["sweep", "--config", str(cfg_path), "--kind", "sensitivity",
                         "--axis", "window", "--values", "16,abc"]) == 2
        assert "error: --values" in capsys.readouterr().err

    def test_exit_code_two_on_repeated_sweep_values(self, tmp_path, capsys):
        # two values would give two detectors one label, so their rows could not be told apart
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(small_config(tmp_path).to_dict()))
        assert cli.main(["sweep", "--config", str(cfg_path), "--kind", "sensitivity",
                         "--axis", "window", "--values", "32,32"]) == 2
        assert "error: detector label 'stand[window=32]' repeats" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("command, text", [
        ("bench --config", '{"name": '),
        ("report --table", '{"name": '),
        # valid JSON, but not a results table
        ("report --table", '{"rows": []}'),
        ("report --table", '{"name": "t", "rows": [{"detector": "a", "seed": 0}]}'),
        ("report --table", '{"name": "t", "rows": [{"detector": 1, "dataset": "x", "seed": 0}]}'),
        ("report --table", '[1, 2]'),
    ], ids=["bench --config", "report --table", "table_without_name", "row_without_dataset",
            "row_detector_not_string", "table_not_object"])
    def test_exit_code_two_on_invalid_json(self, tmp_path, capsys, command, text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        argv = command.split() + [str(path)]
        if command.startswith("report"):
            argv += ["--out", str(tmp_path / "t.md")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("segment", ["abc", "300:100", "0:99999", "-5:", "900:", "1:x"])
    def test_exit_code_two_on_bad_segment(self, tmp_path, capsys, segment):
        data_path = tmp_path / "data.csv"
        write_csv(generate_synthetic(SyntheticSpec.from_dict(small_spec_dict())), data_path)
        det_path = tmp_path / "det.json"
        det_path.write_text(json.dumps({"kind": "pca", "rank": 2}))
        model_path = tmp_path / "m.ckpt"
        assert cli.main(["train", "--data", str(data_path), "--threshold", "0.1",
                         "--detector", str(det_path), "--out", str(model_path)]) == 0
        scores_path = tmp_path / "scores.csv"
        write_scores_csv(scores_path, make_rng(0).uniform(size=900))
        capsys.readouterr()
        assert cli.main(["score", "--model", str(model_path), "--data", str(data_path),
                         "--out", str(tmp_path / "s.csv"), f"--segment={segment}"]) == 2
        assert not (tmp_path / "s.csv").exists()
        assert cli.main(["evaluate", "--scores", str(scores_path), "--data", str(data_path),
                         "--out", str(tmp_path / "r.json"), f"--segment={segment}"]) == 2
        assert capsys.readouterr().err.count("error: --segment") == 2

    @pytest.mark.parametrize("row, where", [("1,abc", "row 3, column 'score'"),
                                            ("1", "row 3: expected 2 cells, got 1")],
                             ids=["non_numeric_score", "missing_score"])
    def test_exit_code_two_on_malformed_scores_file(self, tmp_path, capsys, row, where):
        data_path = tmp_path / "data.csv"
        write_csv(generate_synthetic(SyntheticSpec.from_dict(small_spec_dict())), data_path)
        scores_path = tmp_path / "scores.csv"
        scores_path.write_text("t,score\n0,0.5\n" + row + "\n")
        assert cli.main(["evaluate", "--scores", str(scores_path), "--data", str(data_path),
                         "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and where in err

    def test_exit_code_two_on_data_without_label_column(self, tmp_path, capsys):
        data_path = tmp_path / "unlabeled.csv"
        data_path.write_text("a,b\n0.5,1.0\n0.25,2.0\n0.75,3.0\n")
        scores_path = tmp_path / "scores.csv"
        write_scores_csv(scores_path, [0.1, 0.9, 0.2])
        assert cli.main(["evaluate", "--scores", str(scores_path), "--data", str(data_path),
                         "--out", str(tmp_path / "r.json")]) == 2
        assert f"error: {data_path} has no label column 'label'" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt", [
        lambda doc: json.dumps({k: v for k, v in doc.items() if k != "detector"}),
        lambda doc: json.dumps(doc)[:-3],
        lambda doc: json.dumps({**doc, "seed": "zero"}),
    ], ids=["missing_key", "invalid_json", "wrong_type"])
    def test_exit_code_two_on_corrupt_cached_cell(self, tmp_path, capsys, corrupt):
        cfg = small_config(tmp_path, detectors=[{"kind": "random"}])
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert cli.main(["bench", "--config", str(cfg_path)]) == 0
        (cell,) = (tmp_path / "out" / "cells").glob("*.json")
        cell.write_text(corrupt(json.loads(cell.read_text())))
        capsys.readouterr()
        assert cli.main(["bench", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cell}: not a cell record")

    def test_exit_code_two_on_non_finite_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,label\n0.5,0\nnan,1\n0.25,0\n")
        assert cli.main(["split", "--data", str(bad), "--threshold", "0.2"]) == 2
        assert "row 3, column 'a': non-finite cell nan" in capsys.readouterr().err

    def test_determinism_across_fresh_runs(self, tmp_path):
        texts = []
        for sub in ("a", "b"):
            cfg = small_config(tmp_path / sub, detectors=[
                {"kind": "random"},
                {"kind": "stand", "input_channels": 3, "d_model": 8, "window": 16,
                 "epochs": 2, "batch_size": 64}])
            cfg_path = tmp_path / f"exp_{sub}.json"
            cfg_path.write_text(json.dumps(cfg.to_dict()))
            assert cli.main(["bench", "--config", str(cfg_path)]) == 0
            texts.append(Path(cfg.output_dir, "mini_results.json").read_text())
        assert texts[0] == texts[1]

    def test_two_bench_runs_share_an_output_directory(self, tmp_path):
        # both runs write every cell and every table: each file is written whole
        spec = {**small_spec_dict(T=600), "anomalies": small_spec_dict()["anomalies"][:5]}
        doc = {**small_config(tmp_path, detectors=[{"kind": "random"}, {"kind": "pca", "rank": 1}],
                              thresholds=(0.05,), seeds=range(60), name="race").to_dict(),
               "datasets": [{"synthetic": spec}], "metrics": {}}  # no cell of it fails
        single = tmp_path / "single.json"
        single.write_text(json.dumps(doc))
        assert cli.main(["bench", "--config", str(single)]) == 0
        tables = {ext: (tmp_path / "out" / f"race_results.{ext}").read_bytes()
                  for ext in ("json", "csv", "md")}
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
            os.path.dirname(os.path.dirname(bench.__file__)), os.environ.get("PYTHONPATH")]))}
        for attempt in range(5):
            out = tmp_path / f"shared{attempt}"
            config = tmp_path / f"shared{attempt}.json"
            config.write_text(json.dumps({**doc, "output_dir": str(out)}))
            runs = [subprocess.Popen([sys.executable, "-m", "standbench.cli", "bench", "--config",
                                      str(config)], env=env, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, text=True) for _ in range(2)]
            try:
                errors = [run.communicate(timeout=60)[1] for run in runs]
            finally:
                for run in runs:
                    run.kill()  # a finished run is not signalled
            assert [run.returncode for run in runs] == [0, 0], errors
            cells = list((out / "cells").iterdir())
            assert len(cells) == 120
            for cell in cells:
                bench.read_cell(str(cell))
            assert {ext: (out / f"race_results.{ext}").read_bytes() for ext in tables} == tables
            assert not list(out.rglob("*.tmp"))


# One small grid with every detector kind, stand included.
PINNED_GRID = {
    "name": "pinned",
    "datasets": [{"synthetic": {"T": 800, "C": 3, "seed": 0, "name": "pinned", "anomalies": [
        {"kind": "level_shift", "start": 100, "duration": 20, "magnitude": 2.0},
        {"kind": "spike", "start": 400, "duration": 8, "magnitude": 6.0},
        {"kind": "variance_burst", "start": 620, "duration": 25, "magnitude": 5.0}]}}],
    "detectors": [{"kind": "random"}, {"kind": "pca", "rank": 2}, {"kind": "knn"},
                  {"kind": "kmeans"}, {"kind": "logreg"},
                  {"kind": "stand", "input_channels": 3, "d_model": 8, "window": 16, "epochs": 1}],
    "split_thresholds": [0.05],
    "seeds": [0],
    "metrics": {"buffer_max": 4, "mc_draws": 8},
}
# CACHE_VERSION and the sha256 of each PINNED_GRID cell file, by detector. A
# change that alters a cell fails here until it bumps CACHE_VERSION and re-pins
# the digests, so no cache reuses a cell that older code computed. Like
# GANG_CASES, the digests hold for one numpy/OpenBLAS build (numpy 2.4.6,
# OpenBLAS 0.3.31); another build is another bench.ENVIRONMENT, so its cells
# have other keys.
PINNED_CELLS = (4, {
    "kmeans": "349124707cff3d2b",
    "knn": "d04c700ef3a2b44f",
    "logreg": "a81c54d811c472a6",
    "pca": "9c91f07601d9bcb7",
    "random": "39e7c8f9e8726b4e",
    "stand": "868738d2c9a0f33a",
})


class TestCacheVersion:
    def test_cells_match_pinned_digests(self, tmp_path):
        cfg = ExperimentConfig.from_dict({**PINNED_GRID, "output_dir": str(tmp_path / "out")})
        bench.run_experiment(cfg)
        cells = os.path.join(cfg.output_dir, "cells")
        digests = {}
        for name in os.listdir(cells):
            with open(os.path.join(cells, name), "rb") as fh:
                blob = fh.read()
            digests[json.loads(blob)["detector"]] = hashlib.sha256(blob).hexdigest()[:16]
        assert (bench.CACHE_VERSION, digests) == PINNED_CELLS

    def test_version_bump_recomputes_cells(self, tmp_path, monkeypatch):
        cfg = small_config(tmp_path, detectors=[{"kind": "random"}])
        cells_dir = os.path.join(cfg.output_dir, "cells")
        bench.run_experiment(cfg)
        before = set(os.listdir(cells_dir))
        bench.run_experiment(cfg)
        assert set(os.listdir(cells_dir)) == before
        monkeypatch.setattr(bench, "CACHE_VERSION", bench.CACHE_VERSION + 1)
        bench.run_experiment(cfg)
        after = set(os.listdir(cells_dir))
        assert before < after and len(after) == 2 * len(before)

    def test_environment_change_recomputes_cells(self, tmp_path, monkeypatch):
        # a cell from another numpy or BLAS build is not reused
        cfg = small_config(tmp_path, detectors=[{"kind": "random"}])
        cells_dir = os.path.join(cfg.output_dir, "cells")
        bench.run_experiment(cfg)
        before = set(os.listdir(cells_dir))
        monkeypatch.setattr(bench, "ENVIRONMENT", "numpy 0.0, other-blas 0.0")
        bench.run_experiment(cfg)
        after = set(os.listdir(cells_dir))
        assert before < after and len(after) == 2 * len(before)


def fit_every_kind(train_vals, train_labels):
    entries = [
        {"kind": "random", "seed": 4},
        {"kind": "pca", "rank": 2},
        {"kind": "knn", "k": 3},
        {"kind": "kmeans", "n_clusters": 4, "seed": 1},
        {"kind": "logreg", "epochs": 50},
        # a non-default stride: a checkpoint that dropped it would score at W/2
        {"kind": "stand", "input_channels": 3, "d_model": 6, "window": 12,
         "epochs": 2, "batch_size": 32, "infer_stride": 1},
    ]
    for entry in entries:
        entry = dict(entry)
        det = baselines.build_detector(entry.pop("kind"), **entry)
        if det.supervision == baselines.STAD:
            det.fit(train_vals, train_labels)
        else:
            det.fit(train_vals)
        yield det


class TestFittedCheckpoint:
    def test_loaded_detector_scores_bitwise_like_in_memory(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec.from_dict(small_spec_dict()))
        stats = zscore_fit(ds, (0, 300))
        norm = zscore_apply(ds, stats)
        kinds = set()
        for det in fit_every_kind(norm.values[:300], norm.labels[:300]):
            path = tmp_path / f"{det.kind}.ckpt"
            bench.save_fitted(path, det, stats)
            loaded, loaded_stats = bench.load_fitted(path)
            assert loaded.kind == det.kind
            assert loaded_stats.mean.tobytes() == stats.mean.tobytes()
            a = det.score(norm.values[300:])
            b = loaded.score(zscore_apply(ds, loaded_stats).values[300:])
            assert a.tobytes() == b.tobytes(), det.kind
            kinds.add(det.kind)
        assert kinds == set(baselines.DETECTOR_KINDS)

    @staticmethod
    def pca_checkpoint(tmp_path):
        """A series's CSV path and the bytes of a pca checkpoint fitted on it."""
        ds = generate_synthetic(SyntheticSpec.from_dict(small_spec_dict()))
        data_path = tmp_path / "data.csv"
        write_csv(ds, data_path)
        det = baselines.build_detector("pca", rank=2).fit(ds.values[:300])
        model = tmp_path / "model.ckpt"
        bench.save_fitted(model, det, zscore_fit(ds, (0, 300)))
        return data_path, model.read_bytes()

    def test_truncated_checkpoint_is_ingest_error(self, tmp_path):
        data_path, blob = self.pca_checkpoint(tmp_path)
        hlen = int.from_bytes(blob[4:8], "little")
        # inside the magic, the length field, the header, at its end, inside the payload
        for cut in (2, 6, 8, 8 + hlen // 2, 8 + hlen, 8 + hlen + 12, len(blob) - 1):
            bad = tmp_path / f"cut{cut}.ckpt"
            bad.write_bytes(blob[:cut])
            with pytest.raises(IngestError):
                bench.load_fitted(bad)
            assert cli.main(["score", "--model", str(bad), "--data", str(data_path),
                             "--out", str(tmp_path / "s.csv")]) == 2

    # more bytes than the file holds (a read would need 8 PB), a byte count
    # past 2**64, and an empty tensor with a dimension numpy cannot index
    @pytest.mark.parametrize("shape", [[10**15], [2**32, 2**32], [0, 2**70]])
    def test_tensor_shape_beyond_the_file_is_ingest_error(self, tmp_path, shape):
        data_path, blob = self.pca_checkpoint(tmp_path)
        hlen = int.from_bytes(blob[4:8], "little")
        header = json.loads(blob[8 : 8 + hlen])
        header["tensors"][0]["shape"] = shape
        text = json.dumps(header).encode()
        bad = tmp_path / "huge.ckpt"
        bad.write_bytes(checkpoint.MAGIC + struct.pack("<I", len(text)) + text + blob[8 + hlen :])
        name = header["tensors"][0]["name"]
        with pytest.raises(IngestError, match=f"huge.ckpt: tensor '{name}'"):
            bench.load_fitted(bad)
        assert cli.main(["score", "--model", str(bad), "--data", str(data_path),
                         "--out", str(tmp_path / "s.csv")]) == 2

    @pytest.mark.parametrize("header", [b'{"version": 1}', b"\xff\xfe", b"[1, 2]",
                                        b'{"version": 1, "kind": "pca", "config": {},'
                                        b' "tensors": [{"name": "x"}]}'])
    def test_corrupt_header_is_ingest_error(self, tmp_path, header):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(checkpoint.MAGIC + struct.pack("<I", len(header)) + header)
        with pytest.raises(IngestError):
            checkpoint.load_checkpoint(path)

    @pytest.mark.parametrize("kind, config", [("iforest", {}), ("knn", {"kk": 3}),
                                              ("pca", {"rank": 2})])
    def test_checkpoint_without_detector_state_is_ingest_error(self, tmp_path, kind, config):
        # an unknown kind, an unknown config key, a missing tensor
        path = tmp_path / "bad.ckpt"
        norm = {"norm.mean": np.zeros(3), "norm.std": np.ones(3)}
        checkpoint.save_checkpoint(path, kind, {"detector": config}, norm)
        with pytest.raises(IngestError):
            bench.load_fitted(path)

    def test_checkpoint_with_out_of_range_config_is_ingest_error(self, tmp_path, capsys):
        ds = generate_synthetic(SyntheticSpec.from_dict(small_spec_dict()))
        data_path = tmp_path / "data.csv"
        write_csv(ds, data_path)
        model = tmp_path / "model.ckpt"
        bench.save_fitted(model, baselines.build_detector("pca", rank=2).fit(ds.values[:300]),
                          zscore_fit(ds, (0, 300)))
        kind, config, tensors = checkpoint.load_checkpoint(model)
        checkpoint.save_checkpoint(model, kind, {"detector": {"rank": 0}}, tensors)
        with pytest.raises(IngestError, match="rank"):
            bench.load_fitted(model)
        assert cli.main(["score", "--model", str(model), "--data", str(data_path),
                         "--out", str(tmp_path / "s.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("edit", ["drop", "resize"])
    def test_stand_checkpoint_with_bad_tensor_is_ingest_error(self, tmp_path, capsys, edit):
        ds = generate_synthetic(SyntheticSpec.from_dict(small_spec_dict()))
        data_path = tmp_path / "data.csv"
        write_csv(ds, data_path)
        det = baselines.build_detector("stand", input_channels=3, d_model=4, window=8,
                                       epochs=1, batch_size=32)
        det.fit(ds.values[:300], ds.labels[:300])
        model = tmp_path / "model.ckpt"
        bench.save_fitted(model, det, zscore_fit(ds, (0, 300)))
        kind, config, tensors = checkpoint.load_checkpoint(model)
        if edit == "drop":
            del tensors["det.head.w"]
        else:
            tensors["det.head.w"] = np.zeros(5)
        checkpoint.save_checkpoint(model, kind, config, tensors)
        with pytest.raises(IngestError, match="head.w"):
            bench.load_fitted(model)
        assert cli.main(["score", "--model", str(model), "--data", str(data_path),
                         "--out", str(tmp_path / "s.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("value", [np.inf, np.nan, 1e300])
    def test_non_finite_tensor_or_scores_is_ingest_error(self, tmp_path, capsys, value):
        ds = generate_synthetic(SyntheticSpec.from_dict(small_spec_dict()))
        data_path = tmp_path / "data.csv"
        write_csv(ds, data_path)
        det = baselines.build_detector("pca", rank=2).fit(ds.values[:300])
        model = tmp_path / "model.ckpt"
        bench.save_fitted(model, det, zscore_fit(ds, (0, 300)))
        kind, config, tensors = checkpoint.load_checkpoint(model)
        tensors["det.components"][1, 0] = value
        checkpoint.save_checkpoint(model, kind, config, tensors)
        if np.isfinite(value):  # loads, but overflows when it scores
            bench.load_fitted(model)
        else:
            with pytest.raises(IngestError, match="det.components"):
                bench.load_fitted(model)
        scores = tmp_path / "s.csv"
        assert cli.main(["score", "--model", str(model), "--data", str(data_path),
                         "--out", str(scores)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not scores.exists()

    def test_checkpoint_without_normalization_is_ingest_error(self, tmp_path):
        path = tmp_path / "plain.ckpt"
        checkpoint.save_checkpoint(path, "random", {"seed": 0}, {})
        with pytest.raises(IngestError):
            bench.load_fitted(path)
