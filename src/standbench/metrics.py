"""Six-score evaluation suite: CCE, best-F1, Aff-F1, UAff-F1, AUC-ROC, VUS-PR.

All scores live on a 0-100 scale (CCE and UAff-F1 may go negative). Every
function is a pure function of (scores, labels) plus an explicit seed for the
Monte-Carlo chance baselines, so evaluation cells can run in parallel.

Event-aware metrics work on maximal runs of anomalous timesteps ("events")
as half-open ``[start, end)`` intervals.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .data import atomic_open, load_csv, zero_one
from .exceptions import ConfigError, MetricError, config_int
from .ndcore import make_rng

DEFAULT_BUFFER_MAX = 8  # default window 32 / 4
DEFAULT_MC_DRAWS = 32
MC_BLOCK_STEPS = 1 << 17  # timesteps of chance-baseline draws scored at once


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EventSet:
    """Sorted, disjoint, non-adjacent half-open intervals over [0, T)."""

    length: int
    intervals: tuple  # of (start, end)

    def __post_init__(self):
        ivs = tuple((int(s), int(e)) for s, e in self.intervals)
        object.__setattr__(self, "intervals", ivs)
        prev_end = None
        for s, e in ivs:
            if not 0 <= s < e <= self.length:
                raise ConfigError(f"interval [{s}, {e}) escapes [0, {self.length})")
            if prev_end is not None and s <= prev_end:
                raise ConfigError("intervals must be sorted, disjoint and non-adjacent")
            prev_end = e

    def __len__(self):
        return len(self.intervals)

    def to_labels(self) -> np.ndarray:
        y = np.zeros(self.length, dtype=np.int64)
        for s, e in self.intervals:
            y[s:e] = 1
        return y


def events_from_labels(labels) -> EventSet:
    """Maximal anomalous runs of a 0/1 sequence as half-open intervals."""
    y = zero_one(labels)
    padded = np.concatenate([[0], y, [0]])
    diff = np.diff(padded)
    starts = np.flatnonzero(diff == 1)
    ends = np.flatnonzero(diff == -1)
    return EventSet(length=len(y), intervals=tuple(zip(starts.tolist(), ends.tolist())))


def _check_two_classes(labels) -> np.ndarray:
    y = zero_one(labels)
    if y.min() == y.max():
        raise MetricError("metric undefined: labels contain a single class")
    return y


def _scored(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """Float scores and two-class 0/1 labels of equal length."""
    s = np.asarray(scores, dtype=np.float64)
    y = _check_two_classes(labels)
    if s.shape != y.shape:
        raise ConfigError("scores and labels must have equal length")
    return s, y


# ---------------------------------------------------------------------------
# point-wise metrics
# ---------------------------------------------------------------------------


def best_f1(scores, labels) -> tuple[float, float]:
    """Max point-wise F1 over candidate thresholds, with the smallest such tau.

    Candidates are exactly the distinct score values; a point is predicted
    anomalous when ``score > tau``.
    """
    s, y = _scored(scores, labels)
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    cum_tp = np.cumsum(y[order])
    # prefix of size k = points with score > tau, where tau is the next
    # distinct value below the prefix; the empty prefix (tau = max) scores 0.
    ks = np.flatnonzero(np.diff(s_sorted) != 0) + 1  # one past each tie group
    if len(ks) == 0:  # all scores equal: only the empty prediction
        return 0.0, float(s_sorted[0])
    f1 = 200.0 * cum_tp[ks - 1] / (ks + int(y.sum()))
    # tau falls as k grows, so the smallest tau reaching the max is the last one
    best = len(f1) - 1 - int(np.argmax(f1[::-1]))
    return float(f1[best]), float(s_sorted[ks[best]])


def auc_roc(scores, labels) -> float:
    """Mann-Whitney AUC with midrank tie handling, scaled to 0-100."""
    s, y = _scored(scores, labels)
    order = np.argsort(s, kind="stable")
    sorted_s = s[order]
    # tie group [i, j] of the sorted scores shares the midrank 0.5*(i+j) + 1
    first = np.flatnonzero(np.concatenate(([True], sorted_s[1:] != sorted_s[:-1])))
    last = np.append(first[1:], len(s)) - 1
    ranks = np.empty(len(s))
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    pos = y == 1
    n_pos = int(pos.sum())
    n_neg = len(y) - n_pos
    u = float(ranks[pos].sum()) - n_pos * (n_pos + 1) / 2.0
    return 100.0 * u / (n_pos * n_neg)


# ---------------------------------------------------------------------------
# affiliation metrics
# ---------------------------------------------------------------------------


def _zone_bounds(events: EventSet) -> list[tuple[int, int]]:
    """Zones of influence: one per event, split at midpoints between events."""
    bounds = [0]
    ivs = events.intervals
    for (s0, e0), (s1, _) in zip(ivs, ivs[1:]):
        bounds.append((e0 + s1) // 2)
    bounds.append(events.length)
    return [(bounds[j], bounds[j + 1]) for j in range(len(ivs))]


class _Zones:
    """Per-timestep zone-of-influence geometry of a truth event set.

    Zone z covers [lo_z, hi_z), n_z = hi_z - lo_z timesteps, and owns the
    n_z + 1 counting bins from ``lo_z + z`` on (distances 0..n_z-1, plus one
    for "no prediction in the zone"), so one ``bincount`` counts the
    distances of every zone at once. Precision survival depends only on the
    truth, so it is computed here once for every timestep and shared by all
    predictions scored against it.
    """

    def __init__(self, truth: EventSet):
        if len(truth) == 0:
            raise MetricError("affiliation metrics need a non-empty truth event set")
        T = truth.length
        self.edges = [lo for lo, _ in _zone_bounds(truth)] + [T]
        zone = np.repeat(np.arange(len(truth)), np.diff(self.edges))
        edges = np.asarray(self.edges)
        lo = edges[zone]
        self.n = edges[zone + 1] - lo
        self.base = lo + zone
        self.bins = T + len(truth)
        t = np.arange(T)
        # zone z's timesteps shifted by z*T: a prediction in another zone then
        # lies more than T, so more than n, steps away and counts as none
        self.t_apart = t + zone * T
        ev_s, ev_e = np.asarray(truth.intervals).T
        self.event_pts = np.concatenate([np.arange(s, e) for s, e in truth.intervals])
        self.event_cuts = np.concatenate([[0], np.cumsum(ev_e - ev_s)]).tolist()
        # distance from each timestep to its zone's event
        s, e = ev_s[zone], ev_e[zone]
        d_truth = np.where(t < s, s - t, np.where(t >= e, t - (e - 1), 0))
        self.prec_surv = self.survival(d_truth[None], t)[0]

    def survival(self, dist, at) -> np.ndarray:
        """Share of each zone's timesteps at least as far as ``dist`` at ``at``.

        ``dist`` (R, T) holds each row's per-timestep integer distances; the
        result (R, len(at)) is, for each query timestep q, the share of q's
        zone whose distance is >= dist[:, q].
        """
        # row r owns the flat bins from r * self.bins on, so one cumsum over
        # all rows counts the bins below each one; a row's counts are the
        # differences within its own bins
        rows = (np.arange(len(dist)) * self.bins)[:, None]
        bins = np.minimum(dist, self.n)
        bins += self.base
        bins += rows
        flat = len(dist) * self.bins
        below = np.zeros(flat + 1, dtype=np.int64)  # below[b]: count in flat bins < b
        np.cumsum(np.bincount(bins.ravel(), minlength=flat), out=below[1:])
        closer = below[bins[:, at]] - below[rows + self.base[at]]
        return (self.n[at] - closer) / self.n[at]


def _mean(values: np.ndarray) -> float:
    """``float(values.mean())`` of a 1-D array: the same sum and division,
    without the Python-level overhead that dominates for short arrays."""
    return float(np.add.reduce(values) / len(values))


def _affiliation(pred: np.ndarray, zones: _Zones) -> list[tuple[float, float]]:
    """(precision, recall) of each row of a (R, T) boolean prediction matrix.

    Per zone, precision averages ``zones.prec_surv`` over the zone's
    predicted timesteps; recall averages, over the zone's event timesteps,
    the share of zone timesteps at least as far from the zone's predictions.
    Every zone mean is a 1-D mean over the same values, in the same order, as
    a zone-by-zone loop over one prediction takes them: a 2-D ``mean(axis=1)``
    may sum in another order and move the last bits.
    """
    t = zones.t_apart
    far = int(t[-1]) + len(t)
    # distance of every timestep to the nearest prediction in its own zone
    # (n or more when the zone has none)
    left = np.where(pred, t, -len(t))
    np.maximum.accumulate(left, axis=1, out=left)
    np.subtract(t, left, out=left)
    right = np.where(pred, t, far)
    np.minimum.accumulate(right[:, ::-1], axis=1, out=right[:, ::-1])
    np.subtract(right, t, out=right)
    d_pred = np.minimum(left, right, out=left)
    del right
    rec_surv = zones.survival(d_pred, zones.event_pts)
    ev = zones.event_cuts
    out = []
    for row, rec_row in zip(pred, rec_surv):
        pts = np.flatnonzero(row)
        cuts = np.searchsorted(pts, zones.edges).tolist()
        prec_vals = zones.prec_surv[pts]
        zone_prec: list[float] = []
        zone_rec: list[float] = []
        for a, b, e0, e1 in zip(cuts, cuts[1:], ev, ev[1:]):
            if a < b:
                zone_prec.append(_mean(prec_vals[a:b]))
                zone_rec.append(_mean(rec_row[e0:e1]))
            else:  # a zone without predictions has recall 0
                zone_rec.append(0.0)
        precision = float(np.mean(zone_prec)) if zone_prec else 0.0
        out.append((precision, float(np.mean(zone_rec))))
    return out


def affiliation_precision_recall(pred, truth: EventSet) -> tuple[float, float]:
    """Distance-based event precision/recall on the zone-of-influence partition.

    Precision: each predicted point in a zone is scored by the survival
    probability that a uniformly random zone timestep lies at least as far
    from the zone's event; zone means are averaged over zones that contain
    predictions. Recall mirrors this with the roles swapped (event points
    scored against the zone's predicted points), averaging over all zones;
    a zone without predictions contributes recall 0. ``pred`` is a 0/1
    sequence of the truth's length.
    """
    p = np.asarray(pred)
    if p.shape != (truth.length,) or not np.all((p == 0) | (p == 1)):
        raise ConfigError(f"prediction must be a length-{truth.length} 0/1 sequence")
    return _affiliation((p == 1)[None], _Zones(truth))[0]


def affiliation_f1(pred, truth: EventSet) -> tuple[float, float, float]:
    """Returns (precision, recall, f1), f1 on the 0-100 scale."""
    precision, recall = affiliation_precision_recall(pred, truth)
    f1 = 100.0 * 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def affiliation_random_baseline(
    truth: EventSet, positive_rate: float, draws: int = DEFAULT_MC_DRAWS, seed: int = 0
) -> tuple[float, float]:
    """Expected affiliation precision/recall of a Bernoulli(positive_rate) predictor."""
    T = truth.length
    zones = _Zones(truth)
    rng = make_rng(seed)
    # a (rows, T) block of uniforms continues the stream of `rows` successive
    # length-T draws, so blocks of any height give the same draws; the height
    # bounds the (rows, T) work arrays on long series
    rows = max(1, MC_BLOCK_STEPS // T)
    scored = []
    for lo in range(0, draws, rows):
        pred = rng.uniform(size=(min(rows, draws - lo), T)) < positive_rate
        scored += _affiliation(pred, zones)
    return float(np.mean([p for p, _ in scored])), float(np.mean([r for _, r in scored]))


def uaff_f1(precision: float, recall: float, baseline_precision: float,
            baseline_recall: float) -> float:
    """Excess-over-chance rescaling of affiliation precision/recall (may be < 0)."""
    if baseline_precision >= 1.0 or baseline_recall >= 1.0:
        raise MetricError("degenerate chance baseline (P0 or R0 = 1)")
    u_p = (precision - baseline_precision) / (1.0 - baseline_precision)
    u_r = (recall - baseline_recall) / (1.0 - baseline_recall)
    if u_p + u_r > 0:
        return 100.0 * 2.0 * u_p * u_r / (u_p + u_r)
    return 100.0 * min(u_p, u_r)


# ---------------------------------------------------------------------------
# VUS-PR
# ---------------------------------------------------------------------------


def soften_labels(labels, buffer: int) -> np.ndarray:
    """Relevance ramp: 1 inside events, decaying linearly to 0 over ``buffer``
    steps outside each event boundary (max over overlapping ramps)."""
    y = zero_one(labels)
    r = y.astype(np.float64)
    if buffer == 0:
        return r
    events = events_from_labels(y)
    if not len(events):
        return r
    starts, ends = np.asarray(events.intervals).T
    k = np.arange(1, buffer + 1)
    level = np.broadcast_to(1.0 - k / (buffer + 1.0), (len(starts), len(k)))
    for pos in (starts[:, None] - k, ends[:, None] - 1 + k):
        inside = (pos >= 0) & (pos < len(y))
        np.maximum.at(r, pos[inside], level[inside])
    return r


def vus_pr(scores, labels, buffer_max: int = DEFAULT_BUFFER_MAX) -> float:
    """Mean area under relevance-weighted PR curves over buffer widths 0..buffer_max.

    Each area is the step-integrated PR curve whose precision at a cut counts
    soft relevance, so near-boundary predictions get partial credit; recall
    counts true event points only, so a detector that exactly reproduces the
    labels reaches area 1 at every buffer width. The score order, the cuts
    and the recall steps are shared by every width.
    """
    s, y = _scored(scores, labels)
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    cum_tp = np.cumsum(y[order].astype(np.float64))
    ends = np.concatenate([np.flatnonzero(np.diff(s_sorted) != 0), [len(s_sorted) - 1]])
    rec = cum_tp[ends] / cum_tp[-1]
    rec_step = rec - np.concatenate([[0.0], rec[:-1]])
    areas = []
    for buf in range(buffer_max + 1):
        cum_rel = np.cumsum(soften_labels(y, buf)[order])
        prec = cum_rel[ends] / (ends + 1.0)
        areas.append(float(np.sum(rec_step * np.minimum(prec, 1.0))))
    return 100.0 * float(np.mean(areas))


# ---------------------------------------------------------------------------
# CCE
# ---------------------------------------------------------------------------


def cce(scores, labels, auc: float | None = None) -> float:
    """Confidence-consistency score: global agreement times local smoothness.

    ``A`` recenters AUC-ROC at chance (0) on [-1, 1]; ``G`` penalizes score
    wobble inside constant-label runs (twice the within-run standard deviation
    of min-max normalized scores, averaged over runs, clamped to [0, 1]).
    The product, scaled by 100, is 100 for scores identical to labels and
    near 0 for random scores. ``auc`` is the scores' AUC-ROC when the caller
    already has it.
    """
    s, y = _scored(scores, labels)
    if auc is None:
        auc = auc_roc(s, y)
    lo, hi = float(s.min()), float(s.max())
    shat = (s - lo) / (hi - lo) if hi > lo else np.full_like(s, 0.5)
    agreement = 2.0 * auc / 100.0 - 1.0
    change = np.flatnonzero(np.diff(y) != 0) + 1
    run_bounds = np.concatenate([[0], change, [len(y)]])
    penalties = [
        2.0 * float(shat[a:b].std()) for a, b in zip(run_bounds[:-1], run_bounds[1:])
    ]
    consistency = float(np.clip(1.0 - np.mean(penalties), 0.0, 1.0))
    return 100.0 * agreement * consistency


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricsConfig:
    buffer_max: int = DEFAULT_BUFFER_MAX
    mc_draws: int = DEFAULT_MC_DRAWS
    seed: int = 0

    def __post_init__(self):
        # zero draws or a negative buffer would average an empty list into NaN
        for name, minimum in (("buffer_max", 0), ("mc_draws", 1), ("seed", 0)):
            config_int(name, getattr(self, name), minimum)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class MetricReport:
    cce: float
    f1: float
    aff_f1: float
    uaff_f1: float
    auc_roc: float
    vus_pr: float
    threshold: float
    seed: int
    config_hash: str = ""
    metadata: dict = field(default_factory=dict)

    METRIC_ORDER = ("cce", "f1", "aff_f1", "uaff_f1", "auc_roc", "vus_pr")

    def __post_init__(self):
        for name in self.METRIC_ORDER + ("threshold",):
            setattr(self, name, float(getattr(self, name)))
        self.seed = int(self.seed)

    def values(self) -> list[float]:
        return [getattr(self, name) for name in self.METRIC_ORDER]

    def mean_score(self) -> float:
        return float(np.mean(self.values()))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "MetricReport":
        return cls(**doc)


def evaluate(scores, labels, config: MetricsConfig | None = None,
             metadata: dict | None = None) -> MetricReport:
    """All six metrics with a shared best-F1 threshold; deterministic given seed."""
    config = config or MetricsConfig()
    s, y = _scored(scores, labels)
    if not np.all(np.isfinite(s)):
        raise ConfigError("scores must be finite")

    f1, tau = best_f1(s, y)
    pred = s > tau
    truth = events_from_labels(y)
    precision, recall, aff = affiliation_f1(pred, truth)
    p0, r0 = affiliation_random_baseline(
        truth, positive_rate=float(pred.mean()),
        draws=config.mc_draws, seed=config.seed,
    )
    cfg_digest = hashlib.sha256(
        json.dumps(config.to_dict(), sort_keys=True).encode()
    ).hexdigest()[:12]
    auc = auc_roc(s, y)
    return MetricReport(
        cce=cce(s, y, auc),
        f1=f1,
        aff_f1=aff,
        uaff_f1=uaff_f1(precision, recall, p0, r0),
        auc_roc=auc,
        vus_pr=vus_pr(s, y, config.buffer_max),
        threshold=tau,
        seed=config.seed,
        config_hash=cfg_digest,
        metadata=metadata or {},
    )


def write_scores_csv(path, scores) -> None:
    with atomic_open(path) as fh:
        fh.write("t,score\n")
        for t, v in enumerate(np.asarray(scores, dtype=np.float64)):
            fh.write(f"{t},{float(v)!r}\n")


def read_scores_csv(path) -> np.ndarray:
    """Inverse of write_scores_csv; a malformed row raises IngestError naming it."""
    with open(path, encoding="utf-8") as fh:
        if fh.readline().strip().split(",") != ["t", "score"]:
            raise ConfigError(f"{path}: expected header 't,score'")
    return load_csv(path, label_column=None).values[:, 1].copy()


def write_report(path, report: MetricReport) -> None:
    with atomic_open(path) as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
