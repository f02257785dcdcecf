"""The names ``benchmarks/tracer.py`` wraps still exist.

``Tracer.install`` looks each one up with ``getattr`` when a run asks for
``--trace 1``, so a rename in the package would otherwise break only traced
benchmark runs. The tracer is compiled from its source, so nothing is written
next to it.
"""

import os
import types

import pytest

from standbench import baselines, bench, cli, data, metrics, ndcore, stand

MODULES = {"bench": bench, "baselines": baselines, "cli": cli, "data": data,
           "metrics": metrics, "ndcore": ndcore, "stand": stand}
TRACER = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "tracer.py")


def load_tracer():
    with open(TRACER, encoding="utf-8") as fh:
        source = fh.read()
    module = types.ModuleType("tracer")
    exec(compile(source, TRACER, "exec"), module.__dict__)
    return module


TRACER_MODULE = load_tracer()


@pytest.mark.parametrize("label, home, attr", [
    (label, home, attr) for label, home, attr, _, _ in TRACER_MODULE._FUNCTIONS])
def test_traced_function_resolves(label, home, attr):
    assert callable(getattr(MODULES[home], attr)), label


@pytest.mark.parametrize("cls_name, kind", TRACER_MODULE._DETECTORS)
def test_traced_detector_owns_fit_and_score(cls_name, kind):
    cls = getattr(baselines, cls_name)
    assert cls.kind == kind
    assert callable(cls.__dict__["fit"]) and callable(cls.__dict__["score"])


def test_helpers_the_tracer_calls_resolve():
    assert TRACER_MODULE._COMPUTE_CELL == "bench._compute_cell"
    assert callable(bench._compute_cell)
    assert callable(stand.flop_estimate)
    assert callable(data.SyntheticSpec.to_dict)
