"""The metric functions as they were before vectorization, kept verbatim as
test oracles: the package's metrics must reproduce them bit for bit.

Only the code paths that changed are kept here; events, EventSet and the
report types are shared with the package. ``pointwise_f1``, the F1 of one
prediction, is the exhaustive oracle that ``best_f1``'s sweep is checked
against.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from standbench.exceptions import ConfigError, MetricError
from standbench.metrics import (
    DEFAULT_BUFFER_MAX,
    DEFAULT_MC_DRAWS,
    EventSet,
    MetricReport,
    MetricsConfig,
    _check_two_classes,
    events_from_labels,
    uaff_f1,
)
from standbench.ndcore import make_rng


def pointwise_f1(pred, labels) -> float:
    """F1 of a binary prediction against binary labels, on the 0-100 scale."""
    p = np.asarray(pred, dtype=np.int64)
    y = np.asarray(labels, dtype=np.int64)
    if p.shape != y.shape:
        raise ConfigError("prediction and labels must have equal length")
    tp = int(np.sum((p == 1) & (y == 1)))
    denom = 2 * tp + int(np.sum((p == 1) & (y == 0))) + int(np.sum((p == 0) & (y == 1)))
    return 100.0 * 2 * tp / denom if denom else 0.0


def best_f1(scores, labels) -> tuple[float, float]:
    """Max point-wise F1 over candidate thresholds, with the smallest such tau.

    Candidates are exactly the distinct score values; a point is predicted
    anomalous when ``score > tau``.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = _check_two_classes(labels)
    if s.shape != y.shape:
        raise ConfigError("scores and labels must have equal length")
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    y_sorted = y[order]
    total_pos = int(y.sum())
    cum_tp = np.cumsum(y_sorted)
    # prefix of size k = points with score > tau, where tau is the next
    # distinct value below the prefix; the empty prefix (tau = max) scores 0.
    boundary = np.flatnonzero(np.diff(s_sorted) != 0)  # last index of each tie group
    ks = boundary + 1
    best = 0.0
    best_tau = float(s_sorted[0])  # empty prediction at tau = max score
    for k in ks:
        f1 = 200.0 * cum_tp[k - 1] / (k + total_pos)
        # the tau realizing this prefix is the next (smaller) distinct value
        tau = float(s_sorted[k])
        if f1 > best or (f1 == best and tau < best_tau):
            best = f1
            best_tau = tau
    return best, best_tau


def auc_roc(scores, labels) -> float:
    """Mann-Whitney AUC with midrank tie handling, scaled to 0-100."""
    s = np.asarray(scores, dtype=np.float64)
    y = _check_two_classes(labels)
    order = np.argsort(s, kind="stable")
    ranks = np.empty(len(s))
    sorted_s = s[order]
    # midranks over tie groups
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and sorted_s[j + 1] == sorted_s[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    pos = y == 1
    n_pos = int(pos.sum())
    n_neg = len(y) - n_pos
    u = float(ranks[pos].sum()) - n_pos * (n_pos + 1) / 2.0
    return 100.0 * u / (n_pos * n_neg)


def _zone_bounds(events: EventSet) -> list[tuple[int, int]]:
    """Zones of influence: one per event, split at midpoints between events."""
    bounds = [0]
    ivs = events.intervals
    for (s0, e0), (s1, _) in zip(ivs, ivs[1:]):
        bounds.append((e0 + s1) // 2)
    bounds.append(events.length)
    return [(bounds[j], bounds[j + 1]) for j in range(len(ivs))]


def _dist_to_interval(points: np.ndarray, start: int, end: int) -> np.ndarray:
    """Distance from each timestep to the nearest member of [start, end)."""
    return np.where(
        points < start, start - points, np.where(points >= end, points - (end - 1), 0)
    ).astype(np.float64)


def _dist_to_points(lo: int, hi: int, pts: np.ndarray) -> np.ndarray:
    """Distance of every timestep in [lo, hi) to the nearest of ``pts`` (sorted)."""
    u = np.arange(lo, hi)
    if len(pts) == 0:
        return np.full(hi - lo, np.inf)
    idx = np.searchsorted(pts, u)
    left = np.where(idx > 0, u - pts[np.clip(idx - 1, 0, len(pts) - 1)], np.inf)
    right = np.where(idx < len(pts), pts[np.clip(idx, 0, len(pts) - 1)] - u, np.inf)
    return np.minimum(left, right).astype(np.float64)


def _as_predicted_points(pred, T: int) -> np.ndarray:
    if isinstance(pred, EventSet):
        if pred.length != T:
            raise ConfigError("predicted EventSet length does not match T")
        return np.flatnonzero(pred.to_labels())
    p = np.asarray(pred, dtype=np.int64)
    if p.shape != (T,):
        raise ConfigError(f"prediction must be a length-{T} 0/1 sequence or an EventSet")
    return np.flatnonzero(p)


def affiliation_precision_recall(pred, truth: EventSet, T: int) -> tuple[float, float]:
    """Distance-based event precision/recall on the zone-of-influence partition.

    Precision: each predicted point in a zone is scored by the survival
    probability that a uniformly random zone timestep lies at least as far
    from the zone's event; zone means are averaged over zones that contain
    predictions. Recall mirrors this with the roles swapped (event points
    scored against the zone's predicted points), averaging over all zones;
    a zone without predictions contributes recall 0.
    """
    if len(truth) == 0:
        raise MetricError("affiliation metrics need a non-empty truth event set")
    pred_pts = _as_predicted_points(pred, T)
    zone_prec: list[float] = []
    zone_rec: list[float] = []
    for (lo, hi), (ev_s, ev_e) in zip(_zone_bounds(truth), truth.intervals):
        n = hi - lo
        zpts = pred_pts[(pred_pts >= lo) & (pred_pts < hi)]
        d_truth = _dist_to_interval(np.arange(lo, hi), ev_s, ev_e)
        if len(zpts):
            sorted_dt = np.sort(d_truth)
            dp = _dist_to_interval(zpts, ev_s, ev_e)
            surv = (n - np.searchsorted(sorted_dt, dp, side="left")) / n
            zone_prec.append(float(surv.mean()))
            d_pred = _dist_to_points(lo, hi, zpts)
            sorted_dp = np.sort(d_pred)
            dq = d_pred[np.arange(ev_s, ev_e) - lo]
            surv_r = (n - np.searchsorted(sorted_dp, dq, side="left")) / n
            zone_rec.append(float(surv_r.mean()))
        else:
            zone_rec.append(0.0)
    precision = float(np.mean(zone_prec)) if zone_prec else 0.0
    recall = float(np.mean(zone_rec))
    return precision, recall


def affiliation_f1(pred, truth: EventSet, T: int) -> tuple[float, float, float]:
    """Returns (precision, recall, f1), f1 on the 0-100 scale."""
    precision, recall = affiliation_precision_recall(pred, truth, T)
    f1 = 100.0 * 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def affiliation_random_baseline(
    truth: EventSet, T: int, positive_rate: float, draws: int = DEFAULT_MC_DRAWS, seed: int = 0
) -> tuple[float, float]:
    """Expected affiliation precision/recall of a Bernoulli(positive_rate) predictor."""
    rng = make_rng(seed)
    ps, rs = [], []
    for _ in range(draws):
        pred = (rng.uniform(size=T) < positive_rate).astype(np.int64)
        p, r = affiliation_precision_recall(pred, truth, T)
        ps.append(p)
        rs.append(r)
    return float(np.mean(ps)), float(np.mean(rs))


def soften_labels(labels, buffer: int) -> np.ndarray:
    """Relevance ramp: 1 inside events, decaying linearly to 0 over ``buffer``
    steps outside each event boundary (max over overlapping ramps)."""
    y = np.asarray(labels, dtype=np.int64)
    r = y.astype(np.float64).copy()
    if buffer == 0:
        return r
    events = events_from_labels(y)
    T = len(y)
    for s, e in events.intervals:
        for k in range(1, buffer + 1):
            level = 1.0 - k / (buffer + 1.0)
            if s - k >= 0:
                r[s - k] = max(r[s - k], level)
            if e - 1 + k < T:
                r[e - 1 + k] = max(r[e - 1 + k], level)
    return r


def _average_precision(scores, labels, relevance) -> float:
    """Step-integrated area under the PR curve with relevance-weighted precision.

    Precision at a cut counts soft relevance, so near-boundary predictions get
    partial credit; recall counts true event points only, so a detector that
    exactly reproduces the labels reaches area 1 at every buffer width.
    """
    order = np.argsort(-scores, kind="stable")
    s_sorted = scores[order]
    y_sorted = labels[order].astype(np.float64)
    r_sorted = relevance[order]
    cum_rel = np.cumsum(r_sorted)
    cum_tp = np.cumsum(y_sorted)
    total_pos = cum_tp[-1]
    ends = np.concatenate([np.flatnonzero(np.diff(s_sorted) != 0), [len(s_sorted) - 1]])
    prec = cum_rel[ends] / (ends + 1.0)
    rec = cum_tp[ends] / total_pos
    prev_rec = np.concatenate([[0.0], rec[:-1]])
    return float(np.sum((rec - prev_rec) * np.minimum(prec, 1.0)))


def vus_pr(scores, labels, buffer_max: int = DEFAULT_BUFFER_MAX) -> float:
    """Mean area under relevance-weighted PR curves over buffer widths 0..buffer_max."""
    s = np.asarray(scores, dtype=np.float64)
    y = _check_two_classes(labels)
    if s.shape != y.shape:
        raise ConfigError("scores and labels must have equal length")
    areas = [
        _average_precision(s, y, soften_labels(y, buf)) for buf in range(buffer_max + 1)
    ]
    return 100.0 * float(np.mean(areas))


def cce(scores, labels) -> float:
    """Confidence-consistency score: global agreement times local smoothness.

    ``A`` recenters AUC-ROC at chance (0) on [-1, 1]; ``G`` penalizes score
    wobble inside constant-label runs (twice the within-run standard deviation
    of min-max normalized scores, averaged over runs, clamped to [0, 1]).
    The product, scaled by 100, is 100 for scores identical to labels and
    near 0 for random scores.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = _check_two_classes(labels)
    if s.shape != y.shape:
        raise ConfigError("scores and labels must have equal length")
    lo, hi = float(s.min()), float(s.max())
    shat = (s - lo) / (hi - lo) if hi > lo else np.full_like(s, 0.5)
    agreement = 2.0 * auc_roc(s, y) / 100.0 - 1.0
    change = np.flatnonzero(np.diff(y) != 0) + 1
    run_bounds = np.concatenate([[0], change, [len(y)]])
    penalties = [
        2.0 * float(shat[a:b].std()) for a, b in zip(run_bounds[:-1], run_bounds[1:])
    ]
    consistency = float(np.clip(1.0 - np.mean(penalties), 0.0, 1.0))
    return 100.0 * agreement * consistency


def evaluate(scores, labels, config: MetricsConfig | None = None,
             metadata: dict | None = None) -> MetricReport:
    """All six metrics with a shared best-F1 threshold; deterministic given seed."""
    config = config or MetricsConfig()
    s = np.asarray(scores, dtype=np.float64)
    y = _check_two_classes(labels)
    if s.shape != y.shape:
        raise ConfigError("scores and labels must have equal length")
    if not np.all(np.isfinite(s)):
        raise ConfigError("scores must be finite")

    f1, tau = best_f1(s, y)
    pred = (s > tau).astype(np.int64)
    truth = events_from_labels(y)
    precision, recall, aff = affiliation_f1(pred, truth, len(y))
    p0, r0 = affiliation_random_baseline(
        truth, len(y), positive_rate=float(pred.mean()),
        draws=config.mc_draws, seed=config.seed,
    )
    cfg_digest = hashlib.sha256(
        json.dumps(config.to_dict(), sort_keys=True).encode()
    ).hexdigest()[:12]
    return MetricReport(
        cce=cce(s, y),
        f1=f1,
        aff_f1=aff,
        uaff_f1=uaff_f1(precision, recall, p0, r0),
        auc_roc=auc_roc(s, y),
        vus_pr=vus_pr(s, y, config.buffer_max),
        threshold=tau,
        seed=config.seed,
        config_hash=cfg_digest,
        metadata=metadata or {},
    )
