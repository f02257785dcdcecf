"""Shared exception types, one per error category used across the package."""

import operator


class StandbenchError(Exception):
    """Base class for all package errors."""


class ConfigError(StandbenchError):
    """Invalid configuration or incompatible tensor shapes."""


class IngestError(StandbenchError):
    """CSV / config file could not be parsed; message names row and column."""


class SplitError(StandbenchError):
    """Labeled-prefix split impossible for the requested threshold."""


class ContractError(StandbenchError):
    """Supervision contract violated (e.g. supervised fit without labels)."""


class MetricError(StandbenchError):
    """Metric undefined for the given inputs (e.g. single-class labels)."""


def config_int(name: str, value) -> int:
    """An integer hyperparameter: whatever ``operator.index`` takes, but no bool."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def config_seed(name: str, value) -> int:
    """A seed: an integer >= 0, the range ``ndcore.make_rng`` takes."""
    seed = config_int(name, value)
    if seed < 0:
        raise ConfigError(f"{name} must be >= 0, got {seed}")
    return seed
