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

from .data import SyntheticSpec, TimeSeriesDataset, generate_synthetic, load_csv, prefix_split
from .metrics import MetricReport, MetricsConfig, evaluate
from .stand import StandConfig, forward, infer, train

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
    "forward",
    "infer",
    "train",
]
