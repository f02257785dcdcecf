"""The three benchmark workloads: stand_cell, baseline_grid and score_eval.

Every workload is a closed loop: ``op`` is called again only after the
previous call returned. Inputs come from ``inputs.json`` in this directory,
which freezes the synthetic family (event plan included) so that no edit to
the repository's tests can change a workload. The seed picks one of
``variants`` input sets; the reference metrics of every set are stored in
``reference.json`` (``make_reference.py`` writes it).

An operation delivers cells: a grid cell, or one scored held-out series.
``op`` returns an ``OpResult`` whose ``values`` map each delivered cell to
its six metrics (or an error string), and whose ``outputs`` are the bytes
that a traced run must reproduce exactly.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

METRIC_NAMES = ("cce", "f1", "aff_f1", "uaff_f1", "auc_roc", "vus_pr")


@dataclass
class OpResult:
    cells: int  # cells delivered
    steps: int  # timesteps scored and evaluated, summed over the cells
    values: list  # [(reference key, {metric: value} or error string)]
    outputs: bytes  # what traced and untraced runs must both produce
    # timed parts of the op, [(seconds, cells, steps)]; empty means the whole op is one
    samples: list = field(default_factory=list)


def _metrics_of(report) -> dict:
    return {name: getattr(report, name) for name in METRIC_NAMES}


def _read_outputs(root: str) -> bytes:
    """Every file under root, in sorted path order, with its relative path."""
    chunks = []
    for dirpath, _, files in sorted(os.walk(root)):
        for fname in sorted(files):
            path = os.path.join(dirpath, fname)
            with open(path, "rb") as fh:
                chunks.append(os.path.relpath(path, root).encode() + b"\0" + fh.read())
    return b"\0\0".join(chunks)


class Workload:
    exact = False  # reference metrics must match bitwise (else within stand_abs_tol)
    cells_per_op = 1
    lookups_per_op = 0  # cells each op asks bench for

    def __init__(self, inputs: dict, variant: int, sb):
        self.inputs = inputs
        self.variant = variant
        self.sb = sb  # standbench modules by name
        self.cfg = inputs[self.name]

    def spec(self, offset: int = 0) -> dict:
        """The frozen synthetic spec of this variant, seed shifted by offset."""
        doc = copy.deepcopy(self.inputs["synthetic"])
        doc["seed"] += self.variant + offset
        return doc

    def setup(self, workdir: str) -> None:
        pass

    def op(self, workdir: str) -> OpResult:
        raise NotImplementedError

    def verify_run(self) -> list:
        """Checks made once per run, after the timed loop; returns error strings."""
        return []


class _GridWorkload(Workload):
    def experiment(self, output_dir: str):
        return self.sb["bench"].ExperimentConfig.from_dict(dict(self.grid_doc, output_dir=output_dir))

    def _delivered(self, table) -> tuple[list, int]:
        values, steps = [], 0
        for row in table.rows:
            key = f"{row.detector}|{row.dataset}|{row.seed}"
            if row.report is None:
                values.append((key, f"cell failed: {row.error}"))
                continue
            values.append((key, _metrics_of(row.report)))
            steps += self.inputs["synthetic"]["T"] - row.report.metadata["train_end"]
        return values, steps


class StandCell(_GridWorkload):
    """One bench cell with the stand detector, into a fresh output directory."""

    name = "stand_cell"
    lookups_per_op = 1

    def setup(self, workdir):
        self.grid_doc = {
            "name": self.name,
            "datasets": [{"synthetic": self.spec()}],
            "detectors": [self.cfg["detector"]],
            "split_thresholds": [self.cfg["threshold"]],
            "seeds": [0],
            "metrics": self.inputs["metrics"],
        }

    def op(self, workdir):
        out = os.path.join(workdir, "grid")
        shutil.rmtree(out, ignore_errors=True)
        table, _ = self.sb["bench"].run_experiment(self.experiment(out))
        values, steps = self._delivered(table)
        return OpResult(cells=len(values), steps=steps, values=values, outputs=_read_outputs(out))


class BaselineGrid(_GridWorkload):
    """The baseline grid from a cold cache, then rerun warm on the same directory."""

    name = "baseline_grid"
    exact = True

    def setup(self, workdir):
        cfg = self.cfg
        self.grid_doc = {
            "name": self.name,
            "datasets": [{"synthetic": self.spec()}],
            "detectors": cfg["detectors"],
            "split_thresholds": cfg["thresholds"],
            "seeds": cfg["seeds"],
            "metrics": self.inputs["metrics"],
        }
        per_pass = len(cfg["detectors"]) * len(cfg["thresholds"]) * len(cfg["seeds"])
        self.cells_per_op = self.lookups_per_op = 2 * per_pass

    def op(self, workdir):
        out = os.path.join(workdir, "grid")
        shutil.rmtree(out, ignore_errors=True)
        bench = self.sb["bench"]
        cold, _ = bench.run_experiment(self.experiment(out))
        cold_files = _read_outputs(out)
        warm, _ = bench.run_experiment(self.experiment(out))
        warm_files = _read_outputs(out)
        values, steps = self._delivered(cold)
        warm_values, warm_steps = self._delivered(warm)
        if warm_files != cold_files:
            warm_values = [(key, "warm pass changed the result files") for key, _ in warm_values]
        return OpResult(cells=len(values) + len(warm_values), steps=steps + warm_steps,
                        values=values + warm_values, outputs=cold_files + b"\0\0\0" + warm_files)


class ScoreEval(Workload):
    """Train once through the CLI; each op scores held-out series from the checkpoint."""

    name = "score_eval"

    def setup(self, workdir):
        cfg = self.cfg
        cli, data = self.sb["cli"], self.sb["data"]
        os.makedirs(workdir, exist_ok=True)
        self.train_csv = os.path.join(workdir, "train.csv")
        self.model = os.path.join(workdir, "model.ckpt")
        self.held_out = []
        series = [(self.train_csv, 0)]
        for k, offset in enumerate(cfg["held_out_seed_offsets"]):
            series.append((os.path.join(workdir, f"held_out_{k}.csv"), offset))
        for path, offset in series:
            spec_path = path[: -len(".csv")] + ".spec.json"
            _write_json(spec_path, self.spec(offset))
            _cli_ok(cli, ["generate", "--spec", spec_path, "--out", path])
        det_path = os.path.join(workdir, "detector.json")
        _write_json(det_path, cfg["detector"])
        _cli_ok(cli, ["train", "--data", self.train_csv, "--threshold", repr(cfg["threshold"]),
                      "--detector", det_path, "--out", self.model])
        for path, _ in series[1:]:
            # held-out series share the event plan; score what follows their own prefix
            ds = data.load_csv(path)
            self.held_out.append((path, data.prefix_split(ds, cfg["threshold"]).train_end))
        self.cells_per_op = len(self.held_out)

    def op(self, workdir):
        """Each scored series is its own timed sample; the first one includes load_fitted."""
        bench, data, stand, metrics = (self.sb[m] for m in ("bench", "data", "stand", "metrics"))
        t0 = time.perf_counter()
        det, stats = bench.load_fitted(self.model)
        values, chunks, samples = [], [], []
        for k, (path, lo) in enumerate(self.held_out):
            ds = data.load_csv(path)
            norm = data.zscore_apply(ds, stats)
            # the stride is passed explicitly: checkpoints do not store infer_stride
            scores = stand.infer(norm.values[lo:], det.params_, det.config, stride=self.cfg["stride"])
            report = metrics.evaluate(scores, ds.labels[lo:],
                                      metrics.MetricsConfig(**self.inputs["metrics"]))
            t1 = time.perf_counter()
            samples.append((t1 - t0, 1, len(scores)))
            values.append((f"held_out_{k}", _metrics_of(report)))
            chunks.append(scores.tobytes())
            t0 = time.perf_counter()
        return OpResult(cells=len(values), steps=sum(s[2] for s in samples), values=values,
                        outputs=b"".join(chunks), samples=samples)

    def verify_run(self):
        """Checkpoint scores must equal the in-memory model's, bit for bit.

        The in-memory model is trained here the way ``standbench train`` trains
        it, and both score the first ``check_steps`` post-prefix steps of every
        held-out series at the workload's stride.
        """
        cfg = self.cfg
        bench, data, stand, baselines = (self.sb[m] for m in ("bench", "data", "stand", "baselines"))
        ds = data.load_csv(self.train_csv)
        split = data.prefix_split(ds, cfg["threshold"])
        stats = data.zscore_fit(ds, (0, split.train_end))
        norm = data.zscore_apply(ds, stats)
        entry = dict(cfg["detector"])
        entry.setdefault("input_channels", ds.channels)
        live = baselines.build_detector(entry.pop("kind"), **entry)
        live.fit(norm.values[: split.train_end], norm.labels[: split.train_end])
        loaded, loaded_stats = bench.load_fitted(self.model)
        errors = []
        for path, lo in self.held_out:
            values = data.load_csv(path).values[lo : lo + cfg["check_steps"]]
            a = stand.infer((values - stats.mean) / stats.std, live.params_, live.config,
                            stride=cfg["stride"])
            b = stand.infer((values - loaded_stats.mean) / loaded_stats.std, loaded.params_,
                            loaded.config, stride=cfg["stride"])
            if a.tobytes() != b.tobytes():
                errors.append(f"{os.path.basename(path)}: checkpoint scores differ from "
                              f"in-memory scores (max |diff| {np.max(np.abs(a - b)):.3g})")
        return errors


WORKLOADS = {cls.name: cls for cls in (StandCell, BaselineGrid, ScoreEval)}


def check_cell(value, reference, exact: bool, tol: float) -> str | None:
    """None when a delivered cell is correct, else the reason it failed."""
    if isinstance(value, str):
        return value
    if reference is None:
        return "no reference value"
    for name in METRIC_NAMES:
        got, want = value[name], reference[name]
        if not np.isfinite(got):
            return f"{name} is not finite"
        if exact and got != want:
            return f"{name} = {got!r}, reference {want!r}"
        if not exact and abs(got - want) > tol:
            return f"{name} = {got!r}, reference {want!r} (tolerance {tol})"
    return None


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _cli_ok(cli, argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"standbench {' '.join(argv)} exited with {code}")
