"""Shared exception types, one per error category used across the package."""

import numbers
import operator
import sys


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


class WorkerError(StandbenchError):
    """A forked worker died or failed; the message names its task or phase."""


def config_int(name: str, value, minimum: int | None = None) -> int:
    """An integer setting: whatever ``operator.index`` takes, but no bool, and
    at least ``minimum`` when one is given."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    number = operator.index(value)
    if minimum is not None and number < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {number}")
    return number


def config_float(name: str, value, positive: bool = False) -> float:
    """A real setting: a finite int or float, but no bool, and > 0 if ``positive``."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and abs(value) <= sys.float_info.max):  # no NaN, inf or int beyond a float
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if positive and value <= 0:
        raise ConfigError(f"{name} must be > 0, got {value!r}")
    return float(value)


def config_bool(name: str, value) -> bool:
    """A boolean setting: ``True`` or ``False``, nothing else read by truthiness."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value
