"""Span tracer that wraps standbench's public functions from outside.

Nothing under ``src/`` is edited: ``install`` replaces module and class
attributes with timing wrappers and ``uninstall`` puts the originals back.
Names that a module imported by value (``from .data import make_windows``)
are separate attributes, so every module of the package is searched for the
original function object and each reference to it is replaced.

Spans live in memory as tuples and are written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import time
from collections import defaultdict

# (label, module, attribute, where the references are replaced, has wrapped children)
# ``None`` for where means: every standbench module that holds the function.
# The ndcore kernels are traced only as called from ``stand``.
_FUNCTIONS = [
    ("stand.train", "stand", "train", None, True),
    ("stand.backward", "stand", "backward", None, True),
    ("stand.adam_step", "stand", "adam_step", None, False),
    ("stand.bce_loss", "stand", "bce_loss", None, False),
    ("stand.forward_batch", "stand", "forward_batch", None, True),
    ("stand.infer", "stand", "infer", None, True),
    ("ndcore.gelu", "ndcore", "gelu", ("stand",), False),
    ("ndcore.gelu_grad", "ndcore", "gelu_grad", ("stand",), False),
    ("ndcore.sigmoid", "ndcore", "sigmoid", ("stand",), False),
    ("data.make_windows", "data", "make_windows", None, False),
    ("data.reassemble", "data", "reassemble", None, False),
    ("data.generate_synthetic", "data", "generate_synthetic", None, False),
    ("data.prefix_split", "data", "prefix_split", None, False),
    ("data.zscore_fit", "data", "zscore_fit", None, False),
    ("data.zscore_apply", "data", "zscore_apply", None, False),
    ("data.load_csv", "data", "load_csv", None, False),
    ("metrics.evaluate", "metrics", "evaluate", None, True),
    ("metrics.best_f1", "metrics", "best_f1", None, False),
    ("metrics.auc_roc", "metrics", "auc_roc", None, False),
    ("metrics.cce", "metrics", "cce", None, False),
    ("metrics.vus_pr", "metrics", "vus_pr", None, False),
    ("metrics.affiliation_f1", "metrics", "affiliation_f1", None, True),
    ("metrics.affiliation_random_baseline", "metrics", "affiliation_random_baseline", None, True),
    ("metrics.affiliation_precision_recall", "metrics", "affiliation_precision_recall", None, False),
    ("bench.run_experiment", "bench", "run_experiment", None, True),
    ("bench.write_table", "bench", "write_table", None, False),
    ("bench.save_fitted", "bench", "save_fitted", None, False),
    ("bench.load_fitted", "bench", "load_fitted", None, False),
    ("cli.generate", "cli", "cmd_generate", None, True),
    ("cli.train", "cli", "cmd_train", None, True),
]

# (class in baselines, label kind); fit and score are wrapped on the class.
_DETECTORS = [
    ("RandomDetector", "random"),
    ("PcaDetector", "pca"),
    ("KnnDetector", "knn"),
    ("KmeansDetector", "kmeans"),
    ("LogRegDetector", "logreg"),
    ("StandDetector", "stand"),
]

# Internal helper counted, not reported: one call per cell the cache missed.
_COMPUTE_CELL = "bench._compute_cell"

# Spans whose name depends on the nearest traced ancestor.
_SPLIT_BY_PARENT = {"stand.forward_batch": ("stand.train", "stand.infer")}


def _labels() -> list[tuple[str, bool]]:
    """(span name, has wrapped children) for every span name a run can record."""
    out = []
    for label, _, _, _, children in _FUNCTIONS:
        parents = _SPLIT_BY_PARENT.get(label)
        if parents:
            out += [(f"{label}.{p.split('.')[-1]}", children) for p in parents]
        else:
            out.append((label, children))
    for _, kind in _DETECTORS:
        out += [(f"baselines.{kind}.{m}", kind == "stand") for m in ("fit", "score")]
    return out


DERIVED = (
    "stand.forward_batch.train.mflop_per_s_computed",
    "stand.forward_batch.infer.mflop_per_s_computed",
    "data.generate_synthetic.distinct_ratio",
    "bench.cache_hit_ratio",
    "trace.spans_per_op",
    "trace.overhead_s",
)


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in report order.

    A function without wrapped children has self time equal to its time, so
    only functions with children report ``self_s``.
    """
    names = []
    for label, children in _labels():
        names += [f"{label}.calls", f"{label}.s"] + ([f"{label}.self_s"] if children else [])
    return names + list(DERIVED)


def unit_of(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("mflop_per_s_computed"):
        return "MFLOP/s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class Tracer:
    """Records one span per call of a wrapped function while installed."""

    def __init__(self, standbench_modules: dict):
        self.mods = standbench_modules
        self.spans = []  # (span id, parent id, op, name, start, end, self seconds, extra)
        self.op = None
        self._stack = []  # [span id, name, child seconds]
        self._saved = []  # (owner, attribute, original)
        self._ids = itertools.count()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        stand = self.mods["stand"]
        for label, home, attr, where, _ in _FUNCTIONS:
            original = getattr(self.mods[home], attr)
            extra = None
            if label == "stand.forward_batch":
                extra = functools.partial(_forward_flops, stand)
            elif label == "data.generate_synthetic":
                extra = _synthetic_key
            self._replace(original, self._wrap(label, original, extra), where)
        compute_cell = self.mods["bench"]._compute_cell
        self._replace(compute_cell, self._wrap(_COMPUTE_CELL, compute_cell, None), ("bench",))
        for cls_name, kind in _DETECTORS:
            cls = getattr(self.mods["baselines"], cls_name)
            for method in ("fit", "score"):
                original = cls.__dict__[method]
                self._saved.append((cls, method, original))
                setattr(cls, method, self._wrap(f"baselines.{kind}.{method}", original, None))

    def _replace(self, original, wrapper, where) -> None:
        for mod_name in where or self.mods:
            mod = self.mods[mod_name]
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, label, fn, extra):
        stack = self._stack
        spans = self.spans
        ids = self._ids
        split = _SPLIT_BY_PARENT.get(label)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = label
            if split:
                ancestors = {frame[1] for frame in stack}
                for parent in split:
                    if parent in ancestors:
                        name = f"{label}.{parent.split('.')[-1]}"
                        break
            frame = [next(ids), label, 0.0]
            parent_id = stack[-1][0] if stack else None
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][2] += end - start
                info = extra(args) if extra else None
                spans.append((frame[0], parent_id, self.op, name, start, end,
                              end - start - frame[2], info))

        return wrapper

    # -- reporting --------------------------------------------------------

    def per_op(self) -> dict:
        """{op: {key: value}}: calls, seconds and self seconds summed per span name."""
        ops = defaultdict(lambda: defaultdict(float))
        distinct = defaultdict(set)
        for _, _, op, name, start, end, self_s, info in self.spans:
            row = ops[op]
            row[f"{name}.calls"] += 1
            row[f"{name}.s"] += end - start
            row[f"{name}.self_s"] += self_s
            row["trace.spans_per_op"] += 1
            if name.startswith("stand.forward_batch."):
                row[f"{name}.flop"] += info
            elif name == "data.generate_synthetic":
                distinct[op].add(info)
        for op, specs in distinct.items():
            ops[op]["data.generate_synthetic.distinct"] = len(specs)
        return ops

    def dump(self, path) -> None:
        fields = ["id", "parent", "op", "name", "start", "end", "self_s"]
        rows = [list(span[:7]) for span in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": rows}, fh)


def _forward_flops(stand, args) -> int:
    """Computed (not measured) cost of one forward_batch call from flop_estimate."""
    x, _, config = args[:3]
    return x.shape[0] * stand.flop_estimate(config, x.shape[1]).total


def _synthetic_key(args) -> str:
    return json.dumps(args[0].to_dict(), sort_keys=True)


def layer_metrics(tracer: Tracer, op_ids: list, lookups_per_op: int,
                  overhead_s: float) -> dict:
    """Per-layer values: the median over the traced operations, plus one set-up.

    Spans recorded while ``tracer.op`` was ``"setup"`` are added once, so a
    function that only set-up calls (``cli.train``) still shows. Counts repeat
    exactly as long as every operation does the same work.
    ``lookups_per_op`` is how many cells each operation asks ``bench`` for;
    the cache hit ratio is the share of them that were not recomputed.
    """
    ops = tracer.per_op()

    def per_op(key, with_setup=True):
        median = statistics.median(ops[op].get(key, 0.0) for op in op_ids)
        return median + (ops["setup"].get(key, 0.0) if with_setup else 0.0)

    out = {name: per_op(name) for name in metric_names() if name not in DERIVED}
    for part in ("train", "infer"):
        flop = per_op(f"stand.forward_batch.{part}.flop")
        secs = out[f"stand.forward_batch.{part}.s"]
        out[f"stand.forward_batch.{part}.mflop_per_s_computed"] = flop / secs / 1e6 if secs else 0.0
    calls = out["data.generate_synthetic.calls"]
    distinct = per_op("data.generate_synthetic.distinct")
    out["data.generate_synthetic.distinct_ratio"] = distinct / calls if calls else 0.0
    computed = per_op(f"{_COMPUTE_CELL}.calls", with_setup=False)
    out["bench.cache_hit_ratio"] = 1.0 - computed / lookups_per_op if lookups_per_op else 0.0
    out["trace.spans_per_op"] = per_op("trace.spans_per_op", with_setup=False)
    out["trace.overhead_s"] = overhead_s
    return out
