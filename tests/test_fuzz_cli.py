"""Mutated input files never end in a traceback: ``cli.main`` exits 0, 1 or 2.

Seven kinds of input are mutated: a ``bench`` config, a synthetic spec, a
checkpoint, a results table, a scores CSV, a ``train --detector`` file and a
data CSV, which both ``train`` and ``evaluate`` read. A mutation drops a key
(or a list element, or a CSV row or cell), gives a value a wrong type,
truncates the file or flips one of its bytes.
Each entry of the bench config (every detector and every other top-level key)
also gets its own drawn mutations, and every detector hyperparameter gets every
wrong type, whether or not a drawn mutation reaches it.
Series are tiny, and the one stand detector trains a single small epoch, so
the whole module runs in seconds.
"""

import copy
import json
import os
import struct
import tempfile
from contextlib import chdir

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from standbench import baselines, bench, checkpoint, cli
from standbench.data import SyntheticSpec, generate_synthetic, write_csv, zscore_fit
from standbench.metrics import MetricReport

WRONG_TYPES = [None, True, -1, 0, 2.5, "x", "", [], [1], {}, {"a": 1}]

SPEC = {
    "T": 240, "C": 2, "seed": 5, "name": "tiny",
    "anomalies": [
        {"kind": "spike", "start": 10, "duration": 4, "magnitude": 6.0},
        {"kind": "level_shift", "start": 60, "duration": 10, "magnitude": 2.0},
        {"kind": "variance_burst", "start": 120, "duration": 10, "magnitude": 4.0},
        {"kind": "spike", "start": 200, "duration": 5, "magnitude": 6.0},
    ],
}

CONFIG = {
    "name": "fz",
    "datasets": [{"synthetic": SPEC}],
    "detectors": [{"kind": "random"}, {"kind": "pca", "rank": 1, "label": "pca1"},
                  {"kind": "knn", "k": 2}, {"kind": "kmeans", "n_clusters": 2, "seed": 1},
                  {"kind": "logreg", "learning_rate": 0.1, "epochs": 20}],
    "split_thresholds": [0.1, 0.9],
    "seeds": [0],
    "output_dir": "out",
    "metrics": {"buffer_max": 2, "mc_draws": 2, "seed": 0},
}

DETECTOR = {"kind": "stand", "d_model": 4, "window": 8, "epochs": 1, "batch_size": 16,
            "train_stride": 4, "seed": 0}

REPORT = MetricReport(cce=1.5, f1=20.0, aff_f1=60.0, uaff_f1=-2.0, auc_roc=55.0,
                      vus_pr=10.0, threshold=0.25, seed=0).to_dict()
TABLE = {"name": "t", "rows": [
    {"detector": "a", "dataset": "x@0.1", "seed": 0, "report": REPORT, "error": None},
    {"detector": "b", "dataset": "x@0.1", "seed": 0, "report": None, "error": "no prefix"},
]}


def _json(doc) -> bytes:
    return json.dumps(doc).encode()


def _csv(rows) -> bytes:
    lines = (",".join(map(str, row)) if isinstance(row, list) else str(row) for row in rows)
    return "".join(line + "\n" for line in lines).encode()


def _checkpoint(header) -> bytes:
    blob = _json(header)
    return checkpoint.MAGIC + struct.pack("<I", len(blob)) + blob + PAYLOAD


def _fixtures():
    """The series every command reads, and the valid checkpoint, scores and series rows."""
    ds = generate_synthetic(SyntheticSpec.from_dict(SPEC))
    det = baselines.build_detector("pca", rank=1).fit(ds.values[:40])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.ckpt")
        bench.save_fitted(path, det, zscore_fit(ds, (0, 40)))
        blob = open(path, "rb").read()
    hlen = struct.unpack("<I", blob[4:8])[0]
    scores = [["t", "score"]] + [[t, repr(float(v))] for t, v in
                                 enumerate(np.random.default_rng(0).uniform(size=ds.length))]
    rows = [["ch0", "ch1", "label"]] + [[repr(float(a)), repr(float(b)), int(y)]
                                         for (a, b), y in zip(ds.values, ds.labels)]
    return ds, json.loads(blob[8 : 8 + hlen]), blob[8 + hlen :], scores, rows


SERIES, HEADER, PAYLOAD, SCORES, ROWS = _fixtures()


def _train(data, detector, workdir):
    return ["train", "--data", data, "--threshold", "0.1", "--detector", detector,
            "--out", os.path.join(workdir, "m.ckpt")]


# kind: (valid document, its encoding, argv given the mutated file and a work dir)
SUBJECTS = {
    "bench_config": (CONFIG, _json, lambda f, d: ["bench", "--config", f]),
    "synthetic_spec": (SPEC, _json, lambda f, d: ["generate", "--spec", f, "--out",
                                                   os.path.join(d, "g.csv")]),
    "checkpoint": (HEADER, _checkpoint, lambda f, d: [
        "score", "--model", f, "--data", os.path.join(d, "series.csv"),
        "--out", os.path.join(d, "s.csv")]),
    "results_table": (TABLE, _json, lambda f, d: ["report", "--table", f, "--format",
                                                  "markdown", "--out", os.path.join(d, "t.md")]),
    "scores_csv": (SCORES, _csv, lambda f, d: [
        "evaluate", "--scores", f, "--data", os.path.join(d, "series.csv"),
        "--out", os.path.join(d, "r.json"), "--mc-draws", "2"]),
    "detector_file": (DETECTOR, _json, lambda f, d: _train(os.path.join(d, "series.csv"), f, d)),
    "data_csv": (ROWS, _csv, lambda f, d: _train(f, os.path.join(d, "detector.json"), d)),
    "evaluated_data_csv": (ROWS, _csv, lambda f, d: [
        "evaluate", "--scores", os.path.join(d, "scores.csv"), "--data", f,
        "--out", os.path.join(d, "r.json"), "--mc-draws", "2"]),
}


def _paths(node, path=()):
    """The path of every value in a nested dict/list document, the root first."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


@st.composite
def mutated(draw, doc, encode, under=None) -> bytes:
    """One mutation of doc; with ``under``, a drop or retype of that path or a
    value below it."""
    ops = ["drop", "retype"] if under is not None else ["drop", "retype", "truncate", "flip"]
    op = draw(st.sampled_from(ops))
    if op in ("drop", "retype"):
        doc = copy.deepcopy(doc)
        paths = [path for path in list(_paths(doc))[1:]
                 if under is None or path[: len(under)] == under]
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if op == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(st.sampled_from(WRONG_TYPES))
        return encode(doc)
    blob = encode(doc)
    at = draw(st.integers(0, len(blob) - 1))
    if op == "truncate":
        return blob[:at]
    return blob[:at] + bytes([blob[at] ^ draw(st.integers(1, 255))]) + blob[at + 1 :]


def _write_inputs(blob: bytes) -> None:
    """The file under test, and the valid series, scores and detector file beside it."""
    write_csv(SERIES, "series.csv")
    with open("scores.csv", "wb") as fh:
        fh.write(_csv(SCORES))
    with open("detector.json", "wb") as fh:
        fh.write(_json(DETECTOR))
    with open("input", "wb") as fh:
        fh.write(blob)


@pytest.mark.parametrize("kind", sorted(SUBJECTS))
@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_mutated_input_exits_cleanly(kind, data):
    doc, encode, argv = SUBJECTS[kind]
    blob = data.draw(mutated(doc, encode), label="input")
    with tempfile.TemporaryDirectory() as tmp, chdir(tmp):  # relative output paths land here
        _write_inputs(blob)
        assert cli.main(argv("input", tmp)) in (0, 1, 2)


# Every entry of the bench config: each detector entry and each other top-level
# key. The whole-document draws above mutate only some of them (under pytest,
# neither the kmeans nor the logreg entry), so each entry gets its own draws.
CONFIG_ENTRIES = [("detectors", i) for i in range(len(CONFIG["detectors"]))] + [
    (key,) for key in CONFIG if key != "detectors"]


@pytest.mark.parametrize("entry", CONFIG_ENTRIES, ids=[
    CONFIG["detectors"][entry[1]]["kind"] if len(entry) == 2 else entry[0]
    for entry in CONFIG_ENTRIES])
@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_mutated_config_entry_exits_cleanly(entry, data):
    blob = data.draw(mutated(CONFIG, _json, under=entry), label="input")
    with tempfile.TemporaryDirectory() as tmp, chdir(tmp):
        _write_inputs(blob)
        assert cli.main(["bench", "--config", "input"]) in (0, 1, 2)


# (detector index, key) of every hyperparameter in the bench config
HYPERPARAMETERS = [(i, key) for i, entry in enumerate(CONFIG["detectors"])
                   for key in entry if key not in ("kind", "label")]


@pytest.mark.parametrize("index, key", HYPERPARAMETERS, ids=[
    f"{CONFIG['detectors'][i]['kind']}.{key}" for i, key in HYPERPARAMETERS])
def test_wrong_typed_hyperparameter_exits_cleanly(index, key):
    # the drawn mutations retype only some keys; here every hyperparameter gets every wrong type
    for value in WRONG_TYPES:
        doc = copy.deepcopy(CONFIG)
        doc["detectors"][index][key] = value
        with tempfile.TemporaryDirectory() as tmp, chdir(tmp):
            _write_inputs(_json(doc))
            assert cli.main(["bench", "--config", "input"]) in (0, 1, 2)


@pytest.mark.parametrize("kind", sorted(SUBJECTS))
def test_unmutated_input_succeeds(kind):
    doc, encode, argv = SUBJECTS[kind]
    with tempfile.TemporaryDirectory() as tmp, chdir(tmp):
        _write_inputs(encode(doc))
        # the bench grid holds an unreachable 0.9 threshold, so some cells fail
        assert cli.main(argv("input", tmp)) == (1 if kind == "bench_config" else 0)
