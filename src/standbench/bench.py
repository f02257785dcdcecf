"""Config-driven experiment harness: (detector x dataset x split x seed) cells,
incremental persistence, sweeps, and deterministic table emission.

Determinism contract: a config plus its seed list maps to bitwise-identical
result files. Per-cell randomness is derived as ``base_seed + run_seed`` for
the synthetic data spec, the detector, and the metric Monte-Carlo baselines.
Cells are cached under ``<output_dir>/cells/<digest>.json`` keyed only by the
cell's own inputs (a CSV dataset by its bytes, not only its path),
``CACHE_VERSION`` and ``ENVIRONMENT``, so removing a
detector from the config and rerunning reuses every other cell, a crash loses
only the cells still being computed, and cells cached by code, or by a numpy
or BLAS build, that computed them differently are not reused.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .baselines import DETECTOR_KINDS, STAD, build_detector
from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    NormStats,
    SyntheticSpec,
    TimeSeriesDataset,
    atomic_open,
    generate_synthetic,
    load_csv,
    prefix_split,
    zscore_apply,
    zscore_fit,
)
from .exceptions import (
    ConfigError, IngestError, StandbenchError, WorkerError, config_float, config_int,
)
from .metrics import MetricReport, MetricsConfig, evaluate
from .pool import each

METRIC_COLUMNS = MetricReport.METRIC_ORDER  # Table order: CCE..VUS-PR
# Part of every cell's cache key: bump it whenever a code change can alter a
# cell's result, so cached cells from older code are recomputed, not reused.
# Cells cached before the key carried a version count as version 1.
CACHE_VERSION = 4
# Also in every cell's key: the numpy and BLAS builds, whose kernels round a
# cell's last bits, so an upgrade recomputes cells instead of reusing them.
_BLAS = np.show_config("dicts")["Build Dependencies"]["blas"]
ENVIRONMENT = f"numpy {np.__version__}, {_BLAS['name']} {_BLAS['version']}"
CI_Z = 1.96  # normal-approximation 95% interval over seeds


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    datasets: tuple  # entries: {"path":..., "label_column":...} or {"synthetic": {...}}
    detectors: tuple  # entries: {"kind":..., ["label":...], **hyperparams}
    split_thresholds: tuple
    seeds: tuple
    output_dir: str
    metrics: MetricsConfig = field(default_factory=MetricsConfig)

    def __post_init__(self):
        object.__setattr__(self, "datasets", tuple(self.datasets))
        object.__setattr__(self, "detectors", tuple(self.detectors))
        object.__setattr__(self, "split_thresholds",
                           tuple(config_float("split_thresholds", t) for t in self.split_thresholds))
        object.__setattr__(self, "seeds", tuple(config_int("seeds", s, 0) for s in self.seeds))
        if not (self.datasets and self.detectors and self.seeds):
            raise ConfigError("config needs at least one dataset, detector and seed")
        if not (isinstance(self.name, str) and isinstance(self.output_dir, str)):
            raise ConfigError("name and output_dir must be strings")
        th = self.split_thresholds
        if not th or any(not 0.0 < t < 1.0 for t in th) or list(th) != sorted(set(th)):
            raise ConfigError("split_thresholds must be strictly increasing values in (0, 1)")
        for entry in self.datasets:  # a bad entry fails here, before any cell runs
            dataset_source(entry)
        for entry in self.detectors:
            _build_seeded_detector(entry, 0)
        # a row is told apart from the others by its detector, dataset and seed
        for what, keys in (("detector label", [detector_label(d) for d in self.detectors]),
                           ("dataset label", [dataset_label(d) for d in self.datasets]),
                           ("seed", list(self.seeds))):
            clash = next((k for i, k in enumerate(keys) if k in keys[:i]), None)
            if clash is not None:
                raise ConfigError(f"{what} {clash!r} repeats: the grid's rows must differ")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError(f"an experiment config must be a JSON object, got {doc!r}")
        doc = dict(doc)
        try:
            return cls(metrics=MetricsConfig(**doc.pop("metrics", {})), **doc)
        except TypeError as exc:  # an unknown or missing key, a field of the wrong shape
            raise ConfigError(f"invalid experiment config: {exc}") from None

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return asdict(self)


def dataset_source(entry) -> SyntheticSpec | tuple[str, str]:
    """A dataset entry parsed without materializing it: the SyntheticSpec of
    ``{"synthetic": {...}}`` (seed 0 when omitted), or the (path, label column)
    of ``{"path": ..., ["label_column": ...]}``."""
    keys = set(entry) if isinstance(entry, dict) else None
    if keys == {"synthetic"} and isinstance(entry["synthetic"], dict):
        return SyntheticSpec.from_dict({"seed": 0, **entry["synthetic"]})
    if keys in ({"path"}, {"path", "label_column"}) and all(
            isinstance(v, str) for v in entry.values()):
        return entry["path"], entry.get("label_column", "label")
    raise ConfigError("a dataset entry must be {\"synthetic\": {...}} or "
                      f"{{\"path\": str, [\"label_column\": str]}}, got {entry!r}")


def dataset_label(entry: dict) -> str:
    source = dataset_source(entry)
    if isinstance(source, SyntheticSpec):
        return source.name
    return os.path.splitext(os.path.basename(source[0]))[0]


def detector_label(entry: dict) -> str:
    return entry.get("label", entry["kind"])


def materialize_dataset(entry: dict, seed: int) -> TimeSeriesDataset:
    """Synthetic entries fold the run seed into the spec seed; CSVs are fixed."""
    source = dataset_source(entry)
    if isinstance(source, SyntheticSpec):
        return generate_synthetic(replace(source, seed=source.seed + seed))
    return load_csv(*source)


def _build_seeded_detector(entry: dict, seed: int):
    if not (isinstance(entry, dict) and all(isinstance(entry.get(k, ""), str)
                                            for k in ("kind", "label"))):
        raise ConfigError(f"a detector entry must be a JSON object with a string kind, got {entry!r}")
    cfg = {k: v for k, v in entry.items() if k not in ("kind", "label")}
    kind = entry.get("kind")
    if kind in DETECTOR_KINDS and DETECTOR_KINDS[kind].seeded:
        cfg["seed"] = config_int("seed", cfg.get("seed", 0), 0) + seed
    return build_detector(kind, **cfg)


def fit_on_prefix(ds: TimeSeriesDataset, threshold: float, detector_entry: dict, seed: int = 0):
    """Split, z-score on the train prefix, build and fit (labels only if supervised).

    Returns (detector, split, normalization stats, normalized series)."""
    split = prefix_split(ds, threshold)
    stats = zscore_fit(ds, (0, split.train_end))
    norm = zscore_apply(ds, stats)
    detector = _build_seeded_detector(detector_entry, seed)
    train_vals = norm.values[: split.train_end]
    if detector.supervision == STAD:
        detector.fit(train_vals, norm.labels[: split.train_end])
    else:
        detector.fit(train_vals)
    return detector, split, stats, norm


@dataclass
class CellRecord:
    detector: str
    dataset: str
    seed: int
    report: MetricReport | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)  # the report as MetricReport.to_dict gives it

    @classmethod
    def from_dict(cls, doc: dict) -> "CellRecord":
        report = MetricReport.from_dict(doc["report"]) if doc.get("report") else None
        record = cls(detector=doc["detector"], dataset=doc["dataset"],
                     seed=config_int("seed", doc["seed"]), report=report, error=doc.get("error"))
        if not all(isinstance(v, str) for v in (record.detector, record.dataset, record.error or "")):
            raise IngestError(f"a cell's detector, dataset and error must be strings: {doc!r}")
        return record


@dataclass
class ResultsTable:
    name: str
    rows: list = field(default_factory=list)

    def ok_rows(self):
        return [r for r in self.rows if r.report is not None]

    def aggregate(self) -> list[dict]:
        """Per (detector, dataset): mean and 95% CI of each metric over seeds."""
        groups: dict[tuple, list[MetricReport]] = {}
        for row in self.ok_rows():
            groups.setdefault((row.detector, row.dataset), []).append(row.report)
        out = []
        for (detector, dataset), reports in groups.items():
            entry = {"detector": detector, "dataset": dataset, "n": len(reports)}
            for metric in METRIC_COLUMNS:
                entry[metric] = _mean_ci([getattr(r, metric) for r in reports])
            entry["mean_score"] = _mean_ci([r.mean_score() for r in reports])
            out.append(entry)
        return out

    def to_dict(self) -> dict:
        return {"name": self.name, "rows": [r.to_dict() for r in self.rows]}

    @classmethod
    def from_dict(cls, doc: dict) -> "ResultsTable":
        try:
            return cls(name=doc["name"], rows=[CellRecord.from_dict(r) for r in doc["rows"]])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise IngestError(f"not a results table: {exc!r}") from None


def _mean_ci(values) -> dict:
    """Mean and normal-approximation 95% interval of per-seed values."""
    vals = np.array(values)
    mean = float(vals.mean())
    sd = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
    half = float(CI_Z * sd / np.sqrt(len(vals)))
    return {"mean": mean, "ci_low": mean - half, "ci_high": mean + half}


def atomic_write(path: str, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


def _cell_path(output_dir: str, payload: dict) -> str:
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:20]
    return os.path.join(output_dir, "cells", digest + ".json")


def _dataset_key(entry: dict) -> dict:
    """A dataset entry as cell keys hold it. A path entry gains the sha256 of
    its file's bytes, so an edited file's cells are recomputed; a file that
    cannot be read gets None, and its cells fail with the load error."""
    source = dataset_source(entry)
    if isinstance(source, SyntheticSpec):
        return entry
    try:
        with open(source[0], "rb") as fh:
            return {**entry, "sha256": hashlib.sha256(fh.read()).hexdigest()}
    except OSError:
        return {**entry, "sha256": None}


def run_experiment(config: ExperimentConfig) -> tuple[ResultsTable, bool]:
    """Run every configured cell, reusing cached ones; returns (table, had_failures).

    Uncached cells are computed in groups of one (dataset, run seed), so each
    series is materialized once. When ``pool.workers`` allows it, several
    groups run on ``pool.each``'s forked workers, one per usable CPU at most,
    which take them one at a time while this process computes none; they
    inherit its modules and numeric setup, so a cell gets the same bits.
    Each cell's file is written as soon as the cell is computed; then every
    cell, cached or not, is read back through ``read_cell`` into the tables,
    rows in config order.
    """
    os.makedirs(os.path.join(config.output_dir, "cells"), exist_ok=True)
    paths = []  # every cell's file, in config order
    records = {}  # every distinct cell file -> its record, read once the groups ran
    groups: dict[tuple, list] = {}  # (dataset index, seed) -> uncached cells
    for index, dataset_entry in enumerate(config.datasets):
        dataset_key = _dataset_key(dataset_entry)
        for threshold in config.split_thresholds:
            subset = f"{dataset_label(dataset_entry)}@{threshold:g}"
            for detector_entry in config.detectors:
                for seed in config.seeds:
                    cell_key = {
                        "version": CACHE_VERSION,
                        "environment": ENVIRONMENT,
                        "dataset": dataset_key,
                        "threshold": threshold,
                        "detector": detector_entry,
                        "seed": seed,
                        "metrics": config.metrics.to_dict(),
                    }
                    path = _cell_path(config.output_dir, cell_key)
                    if path not in records and not os.path.exists(path):
                        groups.setdefault((index, seed), []).append(
                            (path, subset, threshold, detector_entry, seed))
                    records[path] = None
                    paths.append(path)

    each(_compute_group, [(config.datasets[index], cells, config)
                          for (index, _), cells in groups.items()])
    for path in records:
        records[path] = read_cell(path)
    table = ResultsTable(name=config.name, rows=[records[path] for path in paths])
    write_table(table, config.output_dir)
    return table, any(record.error is not None for record in table.rows)


def read_cell(path: str) -> CellRecord:
    """The record in a cell file, cached or just computed."""
    try:
        with open(path, encoding="utf-8") as fh:
            return CellRecord.from_dict(json.load(fh))
    except (StandbenchError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise IngestError(f"{path}: not a cell record: {exc!r}") from None


# A cell's own failures: a StandbenchError, or a numerical failure of its
# detector or metrics. Each is recorded as that cell's failure, so the rest of
# the grid still runs.
_CELL_ERRORS = (StandbenchError, np.linalg.LinAlgError, FloatingPointError)


def _compute_group(dataset_entry: dict, cells: list, config: ExperimentConfig) -> None:
    """Compute one (dataset, seed) group's cells, given as (path, subset,
    threshold, detector entry, seed), in order, and write each cell's record
    to its path as soon as it is computed.

    The series is materialized once and made read-only, since every cell
    reads the same arrays: a cell that wrote into them would change the input
    of the cells after it. A series that cannot be made fails every cell.
    """
    try:
        series = materialize_dataset(dataset_entry, cells[0][-1])
    except _CELL_ERRORS as exc:
        series = exc
    else:
        for array in (series.values, series.labels):
            if array is not None:
                array.flags.writeable = False
    for path, subset, threshold, detector_entry, seed in cells:
        record = _compute_cell(series, subset, threshold, detector_entry, seed, config)
        atomic_write(path, json.dumps(record.to_dict(), sort_keys=True, indent=1))


def _compute_cell(series: TimeSeriesDataset | Exception, subset, threshold, detector_entry,
                  seed, config) -> CellRecord:
    """One cell's record: split, normalize on the train prefix, fit, score,
    evaluate. ``series`` is the group's dataset, or the error that
    materializing it raised."""
    label = detector_label(detector_entry)
    try:
        if isinstance(series, Exception):
            raise series
        detector, split, _, norm = fit_on_prefix(series, threshold, detector_entry, seed)
        lo = split.train_end
        report = evaluate(
            detector.score(norm.values[lo:]),
            norm.labels[lo:],
            replace(config.metrics, seed=config.metrics.seed + seed),
            metadata={
                "detector": label,
                "dataset": subset,
                "threshold": threshold,
                "run_seed": seed,
                "train_end": split.train_end,
                "train_rate": split.train_rate,
            },
        )
        return CellRecord(detector=label, dataset=subset, seed=seed, report=report)
    except WorkerError:  # a dead worker says nothing about the cell: cache no record
        raise
    except _CELL_ERRORS as exc:
        error = str(exc) if isinstance(exc, StandbenchError) else f"{type(exc).__name__}: {exc}"
        return CellRecord(detector=label, dataset=subset, seed=seed, error=error)


def write_table(table: ResultsTable, output_dir: str) -> None:
    for fmt, ext in (("json", "json"), ("csv", "csv"), ("markdown", "md")):
        atomic_write(os.path.join(output_dir, f"{table.name}_results.{ext}"),
                     render_table(table, fmt))


def render_table(table: ResultsTable, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(table.to_dict(), sort_keys=True, indent=1) + "\n"
    if fmt == "csv":
        rows = [["detector", "dataset", "seed", *METRIC_COLUMNS, "threshold", "status"]]
        for row in table.rows:
            if row.report is not None:
                cells = [getattr(row.report, m) for m in METRIC_COLUMNS]
                status = "ok"
                tau = row.report.threshold
            else:
                reason = (row.error or "unknown").replace("\n", " ")
                cells = [f"FAILED({reason})"] * len(METRIC_COLUMNS)
                status = f"FAILED({reason})"
                tau = ""
            rows.append([row.detector, row.dataset, row.seed] + cells + [tau, status])
        return _csv_text(rows)
    if fmt == "markdown":
        return _render_markdown(table)
    raise ConfigError(f"unknown report format '{fmt}'")


def _csv_text(rows) -> str:
    """Rows as ``csv.writer`` writes them, one line each: a field holding a
    comma, a quote or a line break is quoted, and a float is its repr."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _md(text: str) -> str:
    """A markdown table cell: a ``|`` in it would end the cell."""
    return text.replace("|", "\\|")


def _render_markdown(table: ResultsTable) -> str:
    agg = table.aggregate()
    header = "| detector | dataset | n | " + " | ".join(METRIC_COLUMNS) + " | mean |"
    sep = "|" + "---|" * (len(METRIC_COLUMNS) + 4)
    # bold the best mean per metric column (presentation only)
    best = {}
    for metric in METRIC_COLUMNS:
        vals = [entry[metric]["mean"] for entry in agg]
        best[metric] = max(vals) if vals else None
    lines = [header, sep]
    for entry in agg:
        cells = []
        for metric in METRIC_COLUMNS:
            mean = entry[metric]["mean"]
            text = f"{mean:.2f}"
            if best[metric] is not None and mean == best[metric]:
                text = f"**{text}**"
            cells.append(text)
        lines.append(
            f"| {_md(entry['detector'])} | {_md(entry['dataset'])} | {entry['n']} | "
            + " | ".join(cells)
            + f" | {entry['mean_score']['mean']:.2f} |"
        )
    failed = [r for r in table.rows if r.error is not None]
    for row in failed:
        reason = _md((row.error or "unknown").replace("\n", " "))
        lines.append(
            f"| {_md(row.detector)} | {_md(row.dataset)} | seed {row.seed} | "
            + " | ".join([f"FAILED({reason})"] * len(METRIC_COLUMNS))
            + " | - |"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def gain_sweep(config: ExperimentConfig) -> tuple[ResultsTable, bool]:
    """Task-2 style supervisory-gain sweep across the config's thresholds.

    Runs the full grid, then writes ``<name>_gain.csv`` with the per-seed and
    aggregated mean-of-six-metrics per (detector, dataset, threshold).
    """
    table, had_failures = run_experiment(config)
    rows = [["detector", "dataset", "threshold", "seed", "mean_score"]]
    for row in table.ok_rows():
        base, threshold = row.dataset.rsplit("@", 1)
        rows.append([row.detector, base, threshold, row.seed, row.report.mean_score()])
    rows.append(["detector", "dataset", "threshold", "mean", "ci_low", "ci_high"])
    for entry in table.aggregate():
        base, threshold = entry["dataset"].rsplit("@", 1)
        m = entry["mean_score"]
        rows.append([entry["detector"], base, threshold, m["mean"], m["ci_low"], m["ci_high"]])
    atomic_write(os.path.join(config.output_dir, f"{config.name}_gain.csv"), _csv_text(rows))
    return table, had_failures


ABLATION_VARIANTS = {
    # (bidirectional, use_tem); the no-TEM variant also bypasses the embedding
    # so its logits are an affine map of the raw inputs.
    "stand_full": {"bidirectional": True, "use_tem": True, "use_embedding": True},
    "stand_no_bidir": {"bidirectional": False, "use_tem": True, "use_embedding": True},
    "stand_no_tem": {"bidirectional": False, "use_tem": False, "use_embedding": False},
}


def _stand_variants(config: ExperimentConfig, suffix: str, variants) -> ExperimentConfig:
    """The config named ``<name>_<suffix>``, its one stand detector replaced by
    one copy per (label, overrides) pair of ``variants``."""
    stands = [d for d in config.detectors if d["kind"] == "stand"]
    if len(stands) != 1:
        raise ConfigError(f"the {suffix} sweep needs exactly one 'stand' detector in the config")
    doc = config.to_dict()
    doc["detectors"] = [{**stands[0], **flags, "label": label} for label, flags in variants]
    doc["name"] = f"{config.name}_{suffix}"
    return ExperimentConfig.from_dict(doc)


def ablation_config(config: ExperimentConfig) -> ExperimentConfig:
    """The full, no-Bidir and no-TEM variants on shared splits and seeds."""
    return _stand_variants(config, "ablation", ABLATION_VARIANTS.items())


SENSITIVITY_AXES = {"d_model", "tem_layers", "window"}


def sensitivity_config(config: ExperimentConfig, axis: str, values) -> ExperimentConfig:
    if axis not in SENSITIVITY_AXES:
        raise ConfigError(f"unknown sensitivity axis '{axis}'")
    return _stand_variants(config, f"sens_{axis}",
                           ((f"stand[{axis}={v:g}]", {axis: v}) for v in values))


def sensitivity_sweep(
    config: ExperimentConfig, axis: str, values
) -> tuple[ResultsTable, bool]:
    """Per-value mean and 95% CI for every metric, written as plot-data CSV."""
    values = [int(v) for v in values]
    sub = sensitivity_config(config, axis, values)
    table, had_failures = run_experiment(sub)
    rows = [["axis", "value", "dataset", "metric", "mean", "ci_low", "ci_high"]]
    for entry in table.aggregate():
        value = entry["detector"].split("=")[1].rstrip("]")
        for metric in METRIC_COLUMNS:
            m = entry[metric]
            rows.append([axis, value, entry["dataset"], metric,
                         m["mean"], m["ci_low"], m["ci_high"]])
    atomic_write(os.path.join(config.output_dir, f"{sub.name}_plotdata.csv"), _csv_text(rows))
    return table, had_failures


# ---------------------------------------------------------------------------
# fitted-detector container (train once, score elsewhere)
# ---------------------------------------------------------------------------


def save_fitted(path, detector, stats) -> None:
    """Persist a fitted detector plus the normalization fitted on its train prefix."""
    det_config, det_tensors = detector.state()
    tensors = {f"det.{k}": np.asarray(v) for k, v in det_tensors.items()}
    tensors["norm.mean"] = stats.mean
    tensors["norm.std"] = stats.std
    save_checkpoint(path, detector.kind, {"detector": det_config}, tensors)


def load_fitted(path):
    """Returns (detector, NormStats); inverse of save_fitted."""
    kind, config, tensors = load_checkpoint(path)
    try:
        stats = NormStats(mean=tensors.pop("norm.mean"), std=tensors.pop("norm.std"))
        det_config = config["detector"]
    except (KeyError, TypeError) as exc:
        raise IngestError(f"{path}: not a fitted-detector checkpoint (missing {exc})") from exc
    det_tensors = {k[len("det."):]: v for k, v in tensors.items()}
    try:
        return DETECTOR_KINDS[kind].from_state(det_config, det_tensors), stats
    except (LookupError, TypeError, ValueError, ConfigError) as exc:  # a bad kind, tensor or key
        raise IngestError(f"{path}: not a valid '{kind}' detector state ({exc!r})") from exc
