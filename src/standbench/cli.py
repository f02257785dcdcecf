"""Command-line front end: generate / split / train / score / evaluate /
bench / sweep / report.

Exit codes: 0 success, 1 when some benchmark cells failed (the table is still
written), 2 on configuration or ingestion errors, 3 when a forked worker died
or failed (a grid keeps the cells of the groups that finished).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import bench as bench_mod
from .bench import ExperimentConfig, ResultsTable, load_fitted, save_fitted
from .data import (
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    prefix_split,
    write_csv,
    zscore_apply,
)
from .exceptions import ConfigError, IngestError, StandbenchError, WorkerError
from .metrics import MetricsConfig, evaluate, read_scores_csv, write_report, write_scores_csv


def _parse_segment(text: str | None, T: int) -> tuple[int, int]:
    """``start:end`` (either side may be empty) as a non-empty range inside [0, T]."""
    if not text:
        return 0, T
    lo, _, hi = text.partition(":")
    try:
        lo, hi = int(lo or 0), int(hi or T)
    except ValueError:
        raise ConfigError(f"--segment must be start:end with integer bounds, got {text!r}") from None
    if not 0 <= lo < hi <= T:
        raise ConfigError(f"--segment {text!r} is not a non-empty range inside [0, {T}]")
    return lo, hi


def cmd_generate(args) -> int:
    with open(args.spec, encoding="utf-8") as fh:
        spec = SyntheticSpec.from_dict(json.load(fh))
    ds = generate_synthetic(spec)
    write_csv(ds, args.out)
    print(f"wrote {ds.length}x{ds.channels} series ({ds.anomaly_rate:.2%} anomalous) to {args.out}")
    return 0


def cmd_split(args) -> int:
    ds = load_csv(args.data, args.label_column)
    result = prefix_split(ds, args.threshold)
    print(json.dumps(dataclasses.asdict(result), indent=2, sort_keys=True))
    return 0


def cmd_train(args) -> int:
    ds = load_csv(args.data, args.label_column)
    with open(args.detector, encoding="utf-8") as fh:
        entry = json.load(fh)
    if isinstance(entry, dict) and entry.get("kind") == "stand":
        entry.setdefault("input_channels", ds.channels)
    detector, split, stats, _ = bench_mod.fit_on_prefix(ds, args.threshold, entry)
    save_fitted(args.out, detector, stats)
    print(f"fitted '{detector.kind}' on [0, {split.train_end}) "
          f"(train anomaly rate {split.train_rate:.2%}); checkpoint at {args.out}")
    return 0


def cmd_score(args) -> int:
    detector, stats = load_fitted(args.model)
    ds = load_csv(args.data, args.label_column)
    lo, hi = _parse_segment(args.segment, ds.length)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # the finiteness check reports it
            scores = detector.score(zscore_apply(ds, stats).values[lo:hi])
    except ValueError as exc:  # checkpoint tensors that fit neither each other nor the data
        raise IngestError(f"{args.model} cannot score {args.data}: {exc}") from None
    if not np.isfinite(scores).all():  # finite tensors too large for this data overflow
        raise IngestError(f"{args.model} gives non-finite scores on {args.data}")
    write_scores_csv(args.out, scores)
    print(f"wrote {len(scores)} scores for [{lo}, {hi}) to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    scores = read_scores_csv(args.scores)
    ds = load_csv(args.data, args.label_column)
    if ds.labels is None:
        raise IngestError(f"{args.data} has no label column '{args.label_column}'")
    lo, hi = _parse_segment(args.segment, ds.length)
    labels = ds.labels[lo:hi]
    cfg = MetricsConfig(buffer_max=args.buffer_max, mc_draws=args.mc_draws, seed=args.seed)
    report = evaluate(scores, labels, cfg, metadata={"data": args.data, "segment": [lo, hi]})
    write_report(args.out, report)
    summary = {name: round(getattr(report, name), 2) for name in report.METRIC_ORDER}
    print(json.dumps(summary, indent=2))
    return 0


def cmd_bench(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    _, had_failures = bench_mod.run_experiment(config)
    print(f"results written under {config.output_dir}")
    return 1 if had_failures else 0


def cmd_sweep(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    if args.kind == "gain":
        _, had_failures = bench_mod.gain_sweep(config)
    elif args.kind == "ablation":
        _, had_failures = bench_mod.run_experiment(bench_mod.ablation_config(config))
    else:
        if not args.axis or not args.values:
            raise StandbenchError("sensitivity sweep needs --axis and --values")
        try:
            values = [int(v) for v in args.values.split(",")]
        except ValueError:
            raise ConfigError(f"--values must be comma-separated integers, got {args.values!r}") from None
        _, had_failures = bench_mod.sensitivity_sweep(config, args.axis, values)
    print(f"sweep results written under {config.output_dir}")
    return 1 if had_failures else 0


def cmd_report(args) -> int:
    with open(args.table, encoding="utf-8") as fh:
        table = ResultsTable.from_dict(json.load(fh))
    bench_mod.atomic_write(args.out, bench_mod.render_table(table, args.format))
    print(f"wrote {args.format} report to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="standbench",
        description="Supervised vs. unsupervised time-series anomaly detection benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="materialize a synthetic dataset spec into CSV")
    p.add_argument("--spec", required=True, help="synthetic spec JSON")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("split", help="compute the labeled-prefix split for a threshold")
    p.add_argument("--data", required=True)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--label-column", default="label")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="fit one detector on the labeled prefix")
    p.add_argument("--data", required=True)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--detector", required=True, help="detector config JSON ({'kind': ...})")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--label-column", default="label")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="score a series with a fitted checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="scores CSV path")
    p.add_argument("--segment", default=None, help="start:end slice, default full series")
    p.add_argument("--label-column", default="label")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("evaluate", help="six-metric report for a score file")
    p.add_argument("--scores", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--segment", default=None, help="slice the labels like the score run")
    p.add_argument("--label-column", default="label")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--buffer-max", type=int, default=8)
    p.add_argument("--mc-draws", type=int, default=32)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bench", help="run a full experiment config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("sweep", help="gain / ablation / sensitivity sweeps")
    p.add_argument("--config", required=True)
    p.add_argument("--kind", choices=("gain", "ablation", "sensitivity"), required=True)
    p.add_argument("--axis", choices=sorted(bench_mod.SENSITIVITY_AXES), default=None)
    p.add_argument("--values", default=None, help="comma-separated axis values")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="render a results table JSON")
    p.add_argument("--table", required=True)
    p.add_argument("--format", choices=("csv", "json", "markdown"), default="markdown")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (StandbenchError, FileNotFoundError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
