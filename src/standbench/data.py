"""Dataset model, CSV ingestion, labeled-prefix splitting, windowing, synthetic data.

Datasets are immutable after construction: every transform returns a new
instance, so readers that share one never need locks.
"""

from __future__ import annotations

import csv
import itertools
import os
from array import array
from dataclasses import asdict, dataclass, field

import numpy as np

from .exceptions import ConfigError, IngestError, SplitError, config_float, config_int
from .ndcore import make_rng

STD_FLOOR = 1e-8  # degenerate channels are clamped to this std


def zero_one(values, what: str = "labels") -> np.ndarray:
    """``values`` as an int64 array, once every value is exactly 0 or 1: a
    fraction is an error, never truncated."""
    values = np.asarray(values)
    if not np.all((values == 0) | (values == 1)):
        raise ConfigError(f"{what} must be 0/1")
    return values.astype(np.int64, copy=False)


@dataclass(frozen=True)
class TimeSeriesDataset:
    """A length-T, C-channel real series with optional per-timestep 0/1 labels."""

    name: str
    values: np.ndarray  # (T, C) float64
    labels: np.ndarray | None = None  # (T,) int

    def __post_init__(self):
        values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if values.ndim != 2:
            raise ConfigError(f"dataset values must be 2-D (T, C), got {values.ndim}-D")
        object.__setattr__(self, "values", values)
        if self.labels is not None:
            labels = zero_one(self.labels)
            if labels.shape != (values.shape[0],):
                raise ConfigError(
                    f"labels length {labels.shape} does not match T={values.shape[0]}"
                )
            object.__setattr__(self, "labels", labels)

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]

    @property
    def labeled(self) -> bool:
        return self.labels is not None

    @property
    def anomaly_rate(self) -> float:
        if self.labels is None:
            raise ConfigError(f"dataset '{self.name}' has no labels")
        return float(self.labels.sum()) / self.length


@dataclass(frozen=True)
class SplitResult:
    """Labeled-prefix split: train is [0, train_end), evaluation is [train_end, T)."""

    threshold: float
    train_end: int
    train_rate: float
    remaining_rate: float


@dataclass(frozen=True)
class NormStats:
    mean: np.ndarray  # (C,)
    std: np.ndarray  # (C,), floored at STD_FLOOR


@dataclass(frozen=True)
class WindowSet:
    """Fixed-width windows over a series; the tail window is always anchored at T-W."""

    window: int
    stride: int
    series_length: int
    starts: np.ndarray  # (N,)
    values: np.ndarray | None  # (N, W, C); None when only the layout is needed
    labels: np.ndarray | None  # (N, W) or None

    def __len__(self) -> int:
        return len(self.starts)


@dataclass(frozen=True)
class AnomalyEvent:
    kind: str  # spike | level_shift | variance_burst
    start: int
    duration: int
    magnitude: float

    def __post_init__(self):
        object.__setattr__(self, "start", config_int("start", self.start, 0))
        object.__setattr__(self, "duration", config_int("duration", self.duration, 1))
        object.__setattr__(self, "magnitude", config_float("magnitude", self.magnitude))


ANOMALY_KINDS = ("spike", "level_shift", "variance_burst")


@dataclass(frozen=True)
class SyntheticSpec:
    """Deterministic recipe for a labeled synthetic series.

    The base signal mixes sinusoids with AR(1)-filtered Gaussian noise and has
    deliberate cross-channel structure, like co-located sensors: the first
    listed period is a shared component (one phase for all channels), and the
    noise is a shared AR(1) factor plus weaker per-channel AR(1) noise. Later
    periods get channel-specific phases.

    Anomalies ride the shared direction, so single timesteps stay close to the
    normal joint distribution and the interesting signal is temporal:

    - ``spike``: adds +-magnitude*noise_scale impulses to every channel at each
      step of the interval (sign drawn per step, biased 95% positive),
    - ``level_shift``: adds the constant offset ``magnitude`` to every channel
      over the interval,
    - ``variance_burst``: multiplies the shared noise factor's innovation scale
      by ``magnitude`` inside the interval, so the common level jitters.
    """

    T: int
    C: int
    seed: int
    sine_periods: tuple = (97.0, 223.0)
    ar_coeff: float = 0.6
    noise_scale: float = 0.3
    anomalies: tuple = field(default_factory=tuple)
    name: str = "synthetic"

    SPIKE_POSITIVE_PROB = 0.95

    def __post_init__(self):
        events = tuple(
            ev if isinstance(ev, AnomalyEvent) else AnomalyEvent(**ev) for ev in self.anomalies
        )
        object.__setattr__(self, "anomalies", events)
        for name, minimum in (("T", 1), ("C", 1), ("seed", 0)):
            object.__setattr__(self, name, config_int(name, getattr(self, name), minimum))
        for name in ("ar_coeff", "noise_scale"):
            object.__setattr__(self, name, config_float(name, getattr(self, name)))
        if abs(self.ar_coeff) > 1.0:  # the AR(1) level would grow without bound
            raise ConfigError(f"ar_coeff must be in [-1, 1], got {self.ar_coeff!r}")
        periods = tuple(config_float("sine_periods", p, positive=True) for p in self.sine_periods)
        object.__setattr__(self, "sine_periods", periods)
        spans = []
        for ev in events:
            if ev.kind not in ANOMALY_KINDS:
                raise ConfigError(f"unknown anomaly kind '{ev.kind}'")
            if ev.start + ev.duration > self.T:
                raise ConfigError(f"anomaly {ev} falls outside [0, {self.T})")
            spans.append((ev.start, ev.start + ev.duration))
        spans.sort()
        for (s0, e0), (s1, _) in zip(spans, spans[1:]):
            if s1 < e0:
                raise ConfigError(f"anomaly intervals overlap near t={s1}")

    def to_dict(self) -> dict:
        doc = asdict(self)  # the tuple fields as the lists that JSON gives
        return {**doc, "sine_periods": list(doc["sine_periods"]),
                "anomalies": list(doc["anomalies"])}

    @classmethod
    def from_dict(cls, doc: dict) -> "SyntheticSpec":
        if not isinstance(doc, dict):
            raise ConfigError(f"a synthetic spec must be a JSON object, got {doc!r}")
        extra = set(doc) - set(cls.__dataclass_fields__)
        if extra:
            raise ConfigError(f"unknown synthetic spec fields: {sorted(extra)}")
        try:
            return cls(**doc)
        except TypeError as exc:  # a missing field, a list field or an event that is not one
            raise ConfigError(f"invalid synthetic spec: {exc}") from None


def load_csv(path, label_column: str | None = "label") -> TimeSeriesDataset:
    """Load a header-ed CSV with one column per channel.

    The column named by ``label_column`` (when present) becomes the 0/1 label
    sequence; all other columns must parse as finite real numbers. Malformed
    input (``nan`` and ``inf`` included) raises :class:`IngestError` naming
    the offending row and column.
    """
    path = os.fspath(path)
    if not os.path.exists(path):
        raise IngestError(f"no such file: {path}")
    name = os.path.splitext(os.path.basename(path))[0]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        label_idx = header.index(label_column) if label_column in header else None
        chan_idx = [i for i in range(len(header)) if i != label_idx]
        if not chan_idx:
            raise IngestError(f"{path}: no value columns besides '{label_column}'")
        cells = _bulk_cells(path, len(header))
        if cells is None:  # the row-by-row reader parses what the bulk parse does not
            rows = []
            for rownum, row in enumerate(reader, start=2):  # 1-based, header is row 1
                if len(row) != len(header):
                    raise IngestError(
                        f"{path}: row {rownum}: expected {len(header)} cells, got {len(row)}"
                    )
                rows.append([])
                for i, cell in enumerate(row):
                    try:
                        rows[-1].append(float(cell))
                    except ValueError:
                        if i != label_idx:
                            raise IngestError(
                                f"{path}: row {rownum}, column '{header[i]}': "
                                f"non-numeric cell {cell!r}"
                            ) from None
                        rows[-1].append(np.nan)  # the label check below quotes its text
            cells = np.array(rows, dtype=np.float64).reshape(len(rows), len(header))
    if not len(cells):
        raise IngestError(f"{path}: no data rows")
    # data row r of the cells is file row r + 2: rows count from 1 at the header
    values = cells[:, chan_idx]
    if not np.all(np.isfinite(values)):
        r, j = np.argwhere(~np.isfinite(values))[0]
        raise IngestError(
            f"{path}: row {r + 2}, column '{header[chan_idx[j]]}': "
            f"non-finite cell {float(values[r, j])!r}"
        )
    labels = cells[:, label_idx] if label_idx is not None else None
    if labels is not None and not np.all((labels == 0) | (labels == 1)):
        r = int(np.flatnonzero((labels != 0) & (labels != 1))[0])
        with open(path, newline="", encoding="utf-8") as fh:  # the cells keep no text
            text = next(itertools.islice(csv.reader(fh), r + 1, None))[label_idx]
        raise IngestError(
            f"{path}: row {r + 2}, column '{header[label_idx]}': "
            f"label must be 0 or 1, got {text.strip()!r}"
        )
    return TimeSeriesDataset(name=name, values=values, labels=labels)


def _bulk_cells(path: str, width: int) -> np.ndarray | None:
    """Every data cell of a CSV as a (rows, width) float64 array from one
    vectorized parse, or None where the file needs the row-by-row reader:
    quotes, bare carriage returns, blank or ragged rows, unparsable cells.

    The parse rounds each decimal like ``float()``, so both readers give the
    same bits.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    # loadtxt skips blank lines, which the csv reader reports as rows
    simple = not (b'"' in raw or b"\n\n" in raw or b"\n\r\n" in raw
                  or raw.count(b"\r") != raw.count(b"\r\n"))
    has_rows = raw.find(b"\n") not in (-1, len(raw) - 1)
    del raw
    if not (simple and has_rows):
        return None
    try:
        cells = np.loadtxt(path, delimiter=",", comments=None, skiprows=1, ndmin=2,
                           encoding="utf-8")
    except ValueError:
        return None
    return cells if cells.shape[1] == width else None


def write_csv(ds: TimeSeriesDataset, path, label_column: str = "label") -> None:
    """Inverse of :func:`load_csv`; floats are written with full repr precision.

    The bytes are what ``csv.writer`` writes: a float's repr or a 0/1 label
    never needs quoting, so only the header goes through it. Rows are
    formatted 128 at a time: the text of 1024 rows at once left the heap of
    a process that wrote a 20000-row series 0.5 MB larger."""
    with open(os.fspath(path), "w", newline="", encoding="utf-8") as fh:
        header = [f"ch{j}" for j in range(ds.channels)]
        csv.writer(fh).writerow(header + [label_column] if ds.labeled else header)
        for lo in range(0, ds.length, 128):
            block = slice(lo, lo + 128)
            rows = [",".join(map(repr, row)) for row in ds.values[block].tolist()]
            if ds.labeled:
                rows = [f"{row},{label}" for row, label in zip(rows, ds.labels[block].tolist())]
            fh.write("\r\n".join(rows) + "\r\n")


def split_allowed(labels: np.ndarray, t: int) -> bool:
    """True when cutting at t does not bisect an anomaly event."""
    return not (labels[t - 1] == 1 and labels[t] == 1) if t < len(labels) else True


def prefix_split(ds: TimeSeriesDataset, threshold: float) -> SplitResult:
    """Smallest train prefix whose anomaly rate reaches ``threshold``.

    train_end is the smallest t in [1, T) such that the prefix anomaly rate
    sum(y[:t])/t is >= threshold and t does not cut an anomaly event (t sits
    at an event end or inside a normal run).
    """
    if not ds.labeled:
        raise SplitError(f"dataset '{ds.name}' has no labels; prefix split needs them")
    if not 0.0 < threshold < 1.0:
        raise SplitError(f"threshold must lie in (0, 1), got {threshold}")
    y = ds.labels
    if y.sum() == 0:
        raise SplitError(f"dataset '{ds.name}' contains no anomaly events")
    csum = np.cumsum(y)
    for t in range(1, ds.length):
        if csum[t - 1] / t >= threshold and split_allowed(y, t):
            train_mass = int(csum[t - 1])
            total = int(csum[-1])
            return SplitResult(
                threshold=threshold,
                train_end=t,
                train_rate=train_mass / t,
                remaining_rate=(total - train_mass) / (ds.length - t),
            )
    raise SplitError(
        f"no prefix of '{ds.name}' reaches anomaly rate {threshold} without cutting an event"
    )


def zscore_fit(ds: TimeSeriesDataset, segment: tuple[int, int]) -> NormStats:
    """Per-channel mean/std fitted on values[start:end); degenerate stds clamped."""
    start, end = segment
    if not 0 <= start < end <= ds.length:
        raise ConfigError(f"empty or out-of-range segment {segment} for T={ds.length}")
    seg = ds.values[start:end]
    return NormStats(mean=seg.mean(axis=0), std=np.maximum(seg.std(axis=0), STD_FLOOR))


def zscore_apply(ds: TimeSeriesDataset, stats: NormStats) -> TimeSeriesDataset:
    return TimeSeriesDataset(
        name=ds.name,
        values=(ds.values - stats.mean) / stats.std,
        labels=ds.labels,
    )


def window_starts(T: int, window: int, stride: int) -> np.ndarray:
    if not 1 <= window <= T:
        raise ConfigError(f"window {window} must lie in [1, T={T}]")
    if not 1 <= stride <= window:
        raise ConfigError(f"stride {stride} must lie in [1, window={window}]")
    starts = list(range(0, T - window + 1, stride))
    if starts[-1] != T - window:  # tail window so T-1 is always covered
        starts.append(T - window)
    return np.asarray(starts, dtype=np.int64)


def make_windows(ds: TimeSeriesDataset, window: int, stride: int) -> WindowSet:
    starts = window_starts(ds.length, window, stride)
    vals = np.stack([ds.values[s : s + window] for s in starts])
    labs = np.stack([ds.labels[s : s + window] for s in starts]) if ds.labeled else None
    return WindowSet(
        window=window,
        stride=stride,
        series_length=ds.length,
        starts=starts,
        values=vals,
        labels=labs,
    )


def reassemble(ws: WindowSet, window_scores: np.ndarray) -> np.ndarray:
    """Average per-window score rows back into a length-T sequence.

    Every timestep is covered by at least one window, so the mean is always
    defined.
    """
    window_scores = np.asarray(window_scores, dtype=np.float64)
    if window_scores.shape != (len(ws.starts), ws.window):
        raise ConfigError(
            f"score rows {window_scores.shape} do not match windows "
            f"({len(ws.starts)}, {ws.window})"
        )
    total = np.zeros(ws.series_length)
    count = np.zeros(ws.series_length)
    # descending offsets add each timestep's windows in ascending start order,
    # the order a window-by-window loop uses, so the sums are bitwise the same
    for j in range(ws.window - 1, -1, -1):
        total[ws.starts + j] += window_scores[:, j]
        count[ws.starts + j] += 1.0
    return total / count


def generate_synthetic(spec: SyntheticSpec) -> TimeSeriesDataset:
    """Materialize a spec into a labeled dataset, bitwise-deterministic in (spec, seed)."""
    rng = make_rng(spec.seed)
    T, C = spec.T, spec.C
    t = np.arange(T)[:, None]

    base = np.zeros((T, C))
    for k, period in enumerate(spec.sine_periods):
        if k == 0:
            amps = rng.uniform(1.0, 1.2, size=C)
            phases = np.full(C, rng.uniform(0.0, 2.0 * np.pi))
        else:
            amps = rng.uniform(0.4, 0.7, size=C)
            phases = rng.uniform(0.0, 2.0 * np.pi, size=C)
        base += amps * np.sin(2.0 * np.pi * t / period + phases)

    # Shared AR(1) factor; variance bursts scale its innovations in place.
    shared_scale = np.full(T, spec.noise_scale)
    for ev in spec.anomalies:
        if ev.kind == "variance_burst":
            shared_scale[ev.start : ev.start + ev.duration] *= ev.magnitude
    shared = np.empty(T)
    _ar1(rng.standard_normal(T) * shared_scale, spec.ar_coeff, shared)
    # Weaker per-channel AR(1) noise on top of the shared factor.
    chan_innov = rng.standard_normal((T, C)) * (0.5 * spec.noise_scale)
    chan_noise = np.empty((C, T))
    for j in range(C):
        _ar1(chan_innov[:, j], spec.ar_coeff, chan_noise[j])
    values = base + shared[:, None] + chan_noise.T

    labels = np.zeros(T, dtype=np.int64)
    for ev in spec.anomalies:
        sl = slice(ev.start, ev.start + ev.duration)
        labels[sl] = 1
        if ev.kind == "spike":
            signs = np.where(
                rng.uniform(size=ev.duration) < spec.SPIKE_POSITIVE_PROB, 1.0, -1.0
            )
            values[sl] += (signs * ev.magnitude * spec.noise_scale)[:, None]
        elif ev.kind == "level_shift":
            values[sl] += ev.magnitude
    return TimeSeriesDataset(name=spec.name, values=values, labels=labels)


def _ar1(innovations: np.ndarray, coeff: float, out: np.ndarray) -> None:
    """Write the AR(1) path level = coeff * level + innovation from level 0
    into the contiguous ``out``, on Python floats: the same multiply and add,
    rounded the same way, as on numpy scalars or arrays, without a numpy call
    per step, and without a float object kept per step."""
    level, path = 0.0, memoryview(out)
    for step, innovation in enumerate(array("d", innovations.tobytes())):
        level = coeff * level + innovation
        path[step] = level
