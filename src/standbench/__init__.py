"""Benchmark engine for supervised vs. unsupervised time-series anomaly detection.

Submodules:

- ``ndcore``: float64 numeric kernel (nonlinearities, seeded RNG)
- ``data``: datasets, CSV I/O, labeled-prefix split, windowing, synthetic series
- ``stand``: the supervised bidirectional-LSTM detector with explicit BPTT
- ``baselines``: unsupervised references (random / pca / knn / kmeans) and a
  pointwise supervised classifier, all behind one score-sequence interface
- ``metrics``: CCE, F1, Aff-F1, UAff-F1, AUC-ROC, VUS-PR
- ``bench``: experiment harness, sweeps and table emission; ``cli``: entry point
- ``pool``: the one module that forks; grids, training and scoring run on its gangs
"""

__version__ = "0.1.0"

import os
import sys

# One BLAS thread per process unless the user chose a count, so that the gangs
# of ``pool`` take the cores. OpenBLAS reads this once, when numpy loads.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(var in os.environ for var in _BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .data import SyntheticSpec, TimeSeriesDataset, generate_synthetic, load_csv, prefix_split
from .metrics import MetricReport, MetricsConfig, evaluate
from .stand import StandConfig, infer, train

__all__ = [
    "__version__",
    "SyntheticSpec",
    "TimeSeriesDataset",
    "generate_synthetic",
    "load_csv",
    "prefix_split",
    "MetricReport",
    "MetricsConfig",
    "evaluate",
    "StandConfig",
    "infer",
    "train",
]
