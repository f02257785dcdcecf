"""Config-driven experiment harness: (detector x dataset x split x seed) cells,
incremental persistence, sweeps, and deterministic table emission.

Determinism contract: a config plus its seed list maps to bitwise-identical
result files. Per-cell randomness is derived as ``base_seed + run_seed`` for
the synthetic data spec, the detector, and the metric Monte-Carlo baselines.
Cells are cached under ``<output_dir>/cells/<digest>.json`` keyed only by the
cell's own inputs and ``CACHE_VERSION``, so removing a detector from the config
and rerunning reuses every other cell, a crash between cells loses at most one,
and cells cached by code that computed them differently are not reused.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import DETECTOR_KINDS, STAD, build_detector
from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    NormStats,
    SyntheticSpec,
    TimeSeriesDataset,
    generate_synthetic,
    load_csv,
    prefix_split,
    zscore_apply,
    zscore_fit,
)
from .exceptions import ConfigError, IngestError, StandbenchError, config_int
from .metrics import MetricReport, MetricsConfig, evaluate

METRIC_COLUMNS = MetricReport.METRIC_ORDER  # Table order: CCE..VUS-PR
# Part of every cell's cache key: bump it whenever a code change can alter a
# cell's result, so cached cells from older code are recomputed, not reused.
# Cells cached before the key carried a version count as version 1.
CACHE_VERSION = 3
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
    fair_eval: bool = True  # False evaluates every detector over the full series span

    def __post_init__(self):
        object.__setattr__(self, "datasets", tuple(self.datasets))
        object.__setattr__(self, "detectors", tuple(self.detectors))
        object.__setattr__(self, "split_thresholds", tuple(float(t) for t in self.split_thresholds))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not (self.datasets and self.detectors and self.seeds):
            raise ConfigError("config needs at least one dataset, detector and seed")
        th = self.split_thresholds
        if not th or any(not 0.0 < t < 1.0 for t in th) or list(th) != sorted(set(th)):
            raise ConfigError("split_thresholds must be strictly increasing values in (0, 1)")
        for entry in self.detectors:  # a bad entry fails here, before any cell runs
            _build_seeded_detector(entry, 0)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        doc = dict(doc)
        try:
            return cls(metrics=MetricsConfig(**doc.pop("metrics", {})), **doc)
        except TypeError as exc:  # an unknown or missing key
            raise ConfigError(f"invalid experiment config: {exc}") from None

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "datasets": list(self.datasets),
            "detectors": list(self.detectors),
            "split_thresholds": list(self.split_thresholds),
            "seeds": list(self.seeds),
            "output_dir": self.output_dir,
            "metrics": self.metrics.to_dict(),
            "fair_eval": self.fair_eval,
        }


def _digest(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:20]


def dataset_label(entry: dict) -> str:
    if "synthetic" in entry:
        return entry["synthetic"].get("name", "synthetic")
    return os.path.splitext(os.path.basename(entry["path"]))[0]


def detector_label(entry: dict) -> str:
    return entry.get("label", entry["kind"])


def materialize_dataset(entry: dict, seed: int) -> TimeSeriesDataset:
    """Synthetic entries fold the run seed into the spec seed; CSVs are fixed."""
    if "synthetic" in entry:
        doc = dict(entry["synthetic"])
        doc["seed"] = int(doc.get("seed", 0)) + seed
        return generate_synthetic(SyntheticSpec.from_dict(doc))
    return load_csv(entry["path"], entry.get("label_column", "label"))


def _build_seeded_detector(entry: dict, seed: int):
    if not isinstance(entry, dict):
        raise ConfigError(f"a detector entry must be a JSON object, got {entry!r}")
    cfg = {k: v for k, v in entry.items() if k not in ("kind", "label")}
    kind = entry.get("kind")
    if kind in DETECTOR_KINDS and DETECTOR_KINDS[kind].seeded:
        cfg["seed"] = config_int("seed", cfg.get("seed", 0)) + seed
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


def run_cell(
    ds: TimeSeriesDataset,
    threshold: float,
    detector_entry: dict,
    seed: int,
    metrics_cfg: MetricsConfig,
    fair_eval: bool = True,
) -> MetricReport:
    """One benchmark cell: split, normalize on the train prefix, fit, score, evaluate."""
    detector, split, _, norm = fit_on_prefix(ds, threshold, detector_entry, seed)
    lo = split.train_end if fair_eval else 0
    return evaluate(
        detector.score(norm.values[lo:]),
        norm.labels[lo:],
        replace(metrics_cfg, seed=metrics_cfg.seed + seed),
        metadata={
            "detector": detector_label(detector_entry),
            "dataset": "",
            "threshold": threshold,
            "run_seed": seed,
            "train_end": split.train_end,
            "train_rate": split.train_rate,
        },
    )


@dataclass
class CellRecord:
    detector: str
    dataset: str
    seed: int
    report: MetricReport | None = None
    error: str | None = None

    @property
    def key(self) -> tuple:
        return (self.detector, self.dataset, self.seed)

    def to_dict(self) -> dict:
        return {
            "detector": self.detector,
            "dataset": self.dataset,
            "seed": self.seed,
            "report": self.report.to_dict() if self.report else None,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CellRecord":
        report = MetricReport.from_dict(doc["report"]) if doc.get("report") else None
        return cls(
            detector=doc["detector"],
            dataset=doc["dataset"],
            seed=doc["seed"],
            report=report,
            error=doc.get("error"),
        )


@dataclass
class ResultsTable:
    name: str
    rows: list = field(default_factory=list)

    def add(self, record: CellRecord) -> None:
        self.rows.append(record)

    def ok_rows(self):
        return [r for r in self.rows if r.report is not None]

    def aggregate(self) -> list[dict]:
        """Per (detector, dataset): mean and 95% CI of each metric over seeds."""
        groups: dict[tuple, list[MetricReport]] = {}
        order: list[tuple] = []
        for row in self.ok_rows():
            key = (row.detector, row.dataset)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(row.report)
        out = []
        for key in order:
            reports = groups[key]
            entry = {"detector": key[0], "dataset": key[1], "n": len(reports)}
            for metric in METRIC_COLUMNS:
                vals = np.array([getattr(r, metric) for r in reports])
                mean = float(vals.mean())
                sd = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
                half = float(CI_Z * sd / np.sqrt(len(vals)))
                entry[metric] = {"mean": mean, "ci_low": mean - half, "ci_high": mean + half}
            entry["mean_score"] = float(np.mean([r.mean_score() for r in reports]))
            out.append(entry)
        return out

    def to_dict(self) -> dict:
        return {"name": self.name, "rows": [r.to_dict() for r in self.rows]}

    @classmethod
    def from_dict(cls, doc: dict) -> "ResultsTable":
        return cls(name=doc["name"], rows=[CellRecord.from_dict(r) for r in doc["rows"]])


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _cell_path(output_dir: str, payload: dict) -> str:
    return os.path.join(output_dir, "cells", _digest(payload) + ".json")


def run_experiment(config: ExperimentConfig) -> tuple[ResultsTable, bool]:
    """Run every configured cell, reusing cached ones; returns (table, had_failures)."""
    os.makedirs(os.path.join(config.output_dir, "cells"), exist_ok=True)
    table = ResultsTable(name=config.name)
    had_failures = False
    for dataset_entry in config.datasets:
        series = _SeriesCache(dataset_entry)
        for threshold in config.split_thresholds:
            subset = f"{dataset_label(dataset_entry)}@{threshold:g}"
            for detector_entry in config.detectors:
                for seed in config.seeds:
                    cell_key = {
                        "version": CACHE_VERSION,
                        "dataset": dataset_entry,
                        "threshold": threshold,
                        "detector": detector_entry,
                        "seed": seed,
                        "metrics": config.metrics.to_dict(),
                        "fair_eval": config.fair_eval,
                    }
                    path = _cell_path(config.output_dir, cell_key)
                    if os.path.exists(path):
                        with open(path, encoding="utf-8") as fh:
                            record = CellRecord.from_dict(json.load(fh))
                    else:
                        record = _compute_cell(
                            series, subset, threshold, detector_entry, seed, config
                        )
                        _atomic_write(
                            path, json.dumps(record.to_dict(), sort_keys=True, indent=1)
                        )
                    had_failures = had_failures or record.error is not None
                    table.add(record)
    write_table(table, config.output_dir)
    return table, had_failures


class _SeriesCache:
    """One dataset entry's series per run seed, materialized on first use.

    Every cell of a (dataset entry, seed) reads the same arrays, so they are
    made read-only: a cell that tried to write into them would change the
    input of the cells after it.
    """

    def __init__(self, entry: dict):
        self.entry = entry
        self._by_seed: dict[int, TimeSeriesDataset] = {}

    def get(self, seed: int) -> TimeSeriesDataset:
        if seed not in self._by_seed:
            ds = materialize_dataset(self.entry, seed)
            for array in (ds.values, ds.labels):
                if array is not None:
                    array.flags.writeable = False
            self._by_seed[seed] = ds
        return self._by_seed[seed]


# Numerical failures of one cell's detector or metrics: recorded as that
# cell's failure, like a StandbenchError, so the rest of the grid still runs.
_NUMERIC_ERRORS = (np.linalg.LinAlgError, FloatingPointError)


def _compute_cell(series: _SeriesCache, subset, threshold, detector_entry, seed,
                  config) -> CellRecord:
    label = detector_label(detector_entry)
    try:
        ds = series.get(seed)
        report = run_cell(ds, threshold, detector_entry, seed, config.metrics, config.fair_eval)
        report.metadata["dataset"] = subset
        return CellRecord(detector=label, dataset=subset, seed=seed, report=report)
    except StandbenchError as exc:
        return CellRecord(detector=label, dataset=subset, seed=seed, error=str(exc))
    except _NUMERIC_ERRORS as exc:
        return CellRecord(detector=label, dataset=subset, seed=seed,
                          error=f"{type(exc).__name__}: {exc}")


def write_table(table: ResultsTable, output_dir: str) -> dict[str, str]:
    paths = {}
    for fmt in ("json", "csv", "markdown"):
        ext = {"json": "json", "csv": "csv", "markdown": "md"}[fmt]
        path = os.path.join(output_dir, f"{table.name}_results.{ext}")
        _atomic_write(path, render_table(table, fmt))
        paths[fmt] = path
    return paths


def render_table(table: ResultsTable, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(table.to_dict(), sort_keys=True, indent=1) + "\n"
    if fmt == "csv":
        lines = ["detector,dataset,seed," + ",".join(METRIC_COLUMNS) + ",threshold,status"]
        for row in table.rows:
            if row.report is not None:
                cells = [repr(getattr(row.report, m)) for m in METRIC_COLUMNS]
                status = "ok"
                tau = repr(row.report.threshold)
            else:
                reason = (row.error or "unknown").replace(",", ";").replace("\n", " ")
                cells = [f"FAILED({reason})"] * len(METRIC_COLUMNS)
                status = f"FAILED({reason})"
                tau = ""
            lines.append(
                ",".join([row.detector, row.dataset, str(row.seed)] + cells + [tau, status])
            )
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        return _render_markdown(table)
    raise ConfigError(f"unknown report format '{fmt}'")


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
            f"| {entry['detector']} | {entry['dataset']} | {entry['n']} | "
            + " | ".join(cells)
            + f" | {entry['mean_score']:.2f} |"
        )
    failed = [r for r in table.rows if r.error is not None]
    for row in failed:
        reason = (row.error or "unknown").replace("\n", " ")
        lines.append(
            f"| {row.detector} | {row.dataset} | seed {row.seed} | "
            + " | ".join([f"FAILED({reason})"] * len(METRIC_COLUMNS))
            + " | - |"
        )
    return "\n".join(lines) + "\n"


def emit_report(table: ResultsTable, fmt: str, path: str) -> None:
    _atomic_write(path, render_table(table, fmt))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def gain_sweep(config: ExperimentConfig) -> tuple[ResultsTable, bool]:
    """Task-2 style supervisory-gain sweep across the config's thresholds.

    Runs the full grid, then writes ``<name>_gain.csv`` with the per-seed and
    aggregated mean-of-six-metrics per (detector, dataset, threshold).
    """
    table, had_failures = run_experiment(config)
    lines = ["detector,dataset,threshold,seed,mean_score"]
    for row in table.ok_rows():
        base, threshold = row.dataset.rsplit("@", 1)
        lines.append(
            f"{row.detector},{base},{threshold},{row.seed},{row.report.mean_score()!r}"
        )
    lines.append("detector,dataset,threshold,mean,ci_low,ci_high")
    for entry in table.aggregate():
        base, threshold = entry["dataset"].rsplit("@", 1)
        vals = [
            r.report.mean_score()
            for r in table.ok_rows()
            if r.detector == entry["detector"] and r.dataset == entry["dataset"]
        ]
        arr = np.array(vals)
        sd = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
        half = float(CI_Z * sd / np.sqrt(len(arr)))
        mean = float(arr.mean())
        lines.append(
            f"{entry['detector']},{base},{threshold},{mean!r},{mean - half!r},{mean + half!r}"
        )
    _atomic_write(os.path.join(config.output_dir, f"{config.name}_gain.csv"), "\n".join(lines) + "\n")
    return table, had_failures


ABLATION_VARIANTS = {
    # (bidirectional, use_tem); the no-TEM variant also bypasses the embedding
    # so its logits are an affine map of the raw inputs.
    "stand_full": {"bidirectional": True, "use_tem": True, "use_embedding": True},
    "stand_no_bidir": {"bidirectional": False, "use_tem": True, "use_embedding": True},
    "stand_no_tem": {"bidirectional": False, "use_tem": False, "use_embedding": False},
}


def ablation_config(config: ExperimentConfig) -> ExperimentConfig:
    """Expand the single configured stand detector into the three ablation variants."""
    stands = [d for d in config.detectors if d["kind"] == "stand"]
    if len(stands) != 1:
        raise ConfigError("ablation needs exactly one 'stand' detector in the config")
    base = stands[0]
    variants = tuple(
        {**base, **flags, "label": label} for label, flags in ABLATION_VARIANTS.items()
    )
    doc = config.to_dict()
    doc["detectors"] = variants
    doc["name"] = config.name + "_ablation"
    return ExperimentConfig.from_dict(doc)


def ablation_matrix(config: ExperimentConfig) -> tuple[ResultsTable, bool]:
    """Train/evaluate the full, no-Bidir and no-TEM variants on shared splits and seeds."""
    return run_experiment(ablation_config(config))


SENSITIVITY_AXES = {"d_model", "tem_layers", "window"}


def sensitivity_config(config: ExperimentConfig, axis: str, values) -> ExperimentConfig:
    if axis not in SENSITIVITY_AXES:
        raise ConfigError(f"unknown sensitivity axis '{axis}'")
    stands = [d for d in config.detectors if d["kind"] == "stand"]
    if len(stands) != 1:
        raise ConfigError("sensitivity sweep needs exactly one 'stand' detector")
    base = stands[0]
    variants = tuple(
        {**base, axis: value, "label": f"stand[{axis}={value:g}]"} for value in values
    )
    doc = config.to_dict()
    doc["detectors"] = variants
    doc["name"] = f"{config.name}_sens_{axis}"
    return ExperimentConfig.from_dict(doc)


def sensitivity_sweep(
    config: ExperimentConfig, axis: str, values
) -> tuple[ResultsTable, bool]:
    """Per-value mean and 95% CI for every metric, written as plot-data CSV."""
    values = [int(v) for v in values]
    sub = sensitivity_config(config, axis, values)
    table, had_failures = run_experiment(sub)
    lines = ["axis,value,dataset,metric,mean,ci_low,ci_high"]
    for entry in table.aggregate():
        value = entry["detector"].split("=")[1].rstrip("]")
        for metric in METRIC_COLUMNS:
            m = entry[metric]
            lines.append(
                f"{axis},{value},{entry['dataset']},{metric},"
                f"{m['mean']!r},{m['ci_low']!r},{m['ci_high']!r}"
            )
    _atomic_write(
        os.path.join(config.output_dir, f"{sub.name}_plotdata.csv"), "\n".join(lines) + "\n"
    )
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
    except (KeyError, TypeError) as exc:  # an unknown kind, a missing tensor or config key
        raise IngestError(f"{path}: not a valid '{kind}' detector state ({exc!r})") from exc
