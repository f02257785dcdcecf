import json

import numpy as np
import pytest

import metrics_oracle
from standbench import metrics
from standbench.exceptions import ConfigError, MetricError
from standbench.ndcore import make_rng


class TestEvents:
    def test_run_length_scan(self):
        ev = metrics.events_from_labels([0, 1, 1, 0, 1])
        assert ev.intervals == ((1, 3), (4, 5))

    def test_all_zeros(self):
        assert len(metrics.events_from_labels(np.zeros(10, dtype=int))) == 0

    def test_all_ones(self):
        ev = metrics.events_from_labels(np.ones(7, dtype=int))
        assert ev.intervals == ((0, 7),)

    def test_round_trip_identity(self):
        rng = make_rng(0)
        for _ in range(50):
            y = (rng.uniform(size=40) < 0.3).astype(int)
            ev = metrics.events_from_labels(y)
            assert np.array_equal(ev.to_labels(), y)

    def test_invalid_event_set(self):
        with pytest.raises(ConfigError):
            metrics.EventSet(length=10, intervals=((0, 3), (3, 5)))  # adjacent
        with pytest.raises(ConfigError):
            metrics.EventSet(length=10, intervals=((2, 12),))


class TestBestF1:
    def test_perfect_scores(self):
        y = np.array([0, 1, 1, 0, 0, 1])
        f1, tau = metrics.best_f1(y.astype(float), y)
        assert f1 == 100.0
        assert 0.0 <= tau < 1.0

    def test_confusion_matrix_arithmetic(self):
        pred = np.array([1, 0, 1, 1])
        labels = np.array([1, 1, 0, 1])
        assert metrics_oracle.pointwise_f1(pred, labels) == pytest.approx(100 * 2 / 3, rel=1e-9)

    def test_sweep_matches_exhaustive_oracle(self):
        rng = make_rng(1)
        for _ in range(30):
            s = np.round(rng.uniform(size=25), 2)  # force ties
            y = (rng.uniform(size=25) < 0.4).astype(int)
            if y.min() == y.max():
                continue
            f1, tau = metrics.best_f1(s, y)
            candidates = [
                metrics_oracle.pointwise_f1((s > t).astype(int), y) for t in np.unique(s)
            ]
            assert f1 == pytest.approx(max(candidates), rel=1e-12)
            assert metrics_oracle.pointwise_f1((s > tau).astype(int), y) == pytest.approx(f1)

    def test_negation_changes_result(self):
        s = np.array([0.9, 0.1, 0.8, 0.7])
        y = np.array([1, 1, 0, 1])
        f_pos, _ = metrics.best_f1(s, y)
        f_neg, _ = metrics.best_f1(-s, y)
        assert f_pos != f_neg

    def test_single_class_rejected(self):
        with pytest.raises(MetricError):
            metrics.best_f1(np.arange(4.0), np.ones(4, dtype=int))

    def test_invariance_under_monotone_transform_with_reselection(self):
        rng = make_rng(2)
        s = rng.standard_normal(60)
        y = (rng.uniform(size=60) < 0.3).astype(int)
        f_raw, _ = metrics.best_f1(s, y)
        f_exp, _ = metrics.best_f1(np.exp(s), y)
        assert f_raw == pytest.approx(f_exp, rel=1e-12)


class TestAucRoc:
    def test_perfect(self):
        y = np.array([0, 1, 0, 1, 1])
        assert metrics.auc_roc(y.astype(float), y) == 100.0

    def test_pairwise_oracle(self):
        s = np.array([0.1, 0.4, 0.35, 0.8])
        y = np.array([0, 0, 1, 1])
        assert metrics.auc_roc(s, y) == pytest.approx(75.0)

    def test_random_pairwise_oracle_with_ties(self):
        rng = make_rng(3)
        for _ in range(20):
            s = np.round(rng.uniform(size=30), 1)
            y = (rng.uniform(size=30) < 0.5).astype(int)
            if y.min() == y.max():
                continue
            pos = s[y == 1]
            neg = s[y == 0]
            wins = sum(1.0 for p in pos for n in neg if p > n)
            ties = sum(1.0 for p in pos for n in neg if p == n)
            expected = 100 * (wins + 0.5 * ties) / (len(pos) * len(neg))
            assert metrics.auc_roc(s, y) == pytest.approx(expected, rel=1e-12)

    def test_monotone_transform_invariance(self):
        rng = make_rng(4)
        s = rng.standard_normal(50)
        y = (rng.uniform(size=50) < 0.4).astype(int)
        assert metrics.auc_roc(s, y) == pytest.approx(
            metrics.auc_roc(np.exp(s) * 3 + 1, y), rel=1e-12
        )


def oracle_affiliation(pred_labels, truth: metrics.EventSet, T):
    """Pure-loop recomputation of the zone-of-influence scheme."""
    def dist_interval(t, s, e):
        if t < s:
            return s - t
        if t >= e:
            return t - (e - 1)
        return 0

    ivs = truth.intervals
    bounds = [0]
    for (s0, e0), (s1, _) in zip(ivs, ivs[1:]):
        bounds.append((e0 + s1) // 2)
    bounds.append(T)
    pred_pts = [t for t in range(T) if pred_labels[t] == 1]
    zone_prec, zone_rec = [], []
    for j, (s, e) in enumerate(ivs):
        lo, hi = bounds[j], bounds[j + 1]
        zone = list(range(lo, hi))
        zpts = [t for t in pred_pts if lo <= t < hi]
        if zpts:
            vals = []
            for p in zpts:
                d = dist_interval(p, s, e)
                count = sum(1 for u in zone if dist_interval(u, s, e) >= d)
                vals.append(count / len(zone))
            zone_prec.append(sum(vals) / len(vals))
            def dist_pred(t):
                return min(abs(t - q) for q in zpts)
            vals_r = []
            for q in range(s, e):
                d = dist_pred(q)
                count = sum(1 for u in zone if dist_pred(u) >= d)
                vals_r.append(count / len(zone))
            zone_rec.append(sum(vals_r) / len(vals_r))
        else:
            zone_rec.append(0.0)
    precision = sum(zone_prec) / len(zone_prec) if zone_prec else 0.0
    recall = sum(zone_rec) / len(zone_rec)
    return precision, recall


class TestAffiliation:
    def test_exact_prediction_is_perfect(self):
        y = np.array([0, 0, 1, 1, 0, 0, 0, 1, 0, 0])
        truth = metrics.events_from_labels(y)
        p, r, f1 = metrics.affiliation_f1(y.copy(), truth)
        assert (p, r, f1) == (1.0, 1.0, 100.0)

    def test_no_predictions_zero(self):
        y = np.array([0, 1, 1, 0, 0])
        truth = metrics.events_from_labels(y)
        p, r, f1 = metrics.affiliation_f1(np.zeros(5, dtype=int), truth)
        assert r == 0.0 and f1 == 0.0

    def test_single_event_against_oracle(self):
        y = np.zeros(100, dtype=int)
        y[40:60] = 1
        pred = np.zeros(100, dtype=int)
        pred[45:55] = 1
        truth = metrics.events_from_labels(y)
        p, r = metrics.affiliation_precision_recall(pred, truth)
        op, orr = oracle_affiliation(pred, truth, 100)
        assert p == pytest.approx(op, abs=1e-9)
        assert r == pytest.approx(orr, abs=1e-9)

    def test_randomized_against_oracle(self):
        rng = make_rng(5)
        checked = 0
        while checked < 60:
            T = int(rng.integers(20, 200))
            y = (rng.uniform(size=T) < 0.2).astype(int)
            if y.sum() == 0:
                continue
            pred = (rng.uniform(size=T) < float(rng.uniform(0.05, 0.5))).astype(int)
            truth = metrics.events_from_labels(y)
            p, r = metrics.affiliation_precision_recall(pred, truth)
            op, orr = oracle_affiliation(pred, truth, T)
            assert p == pytest.approx(op, abs=1e-9)
            assert r == pytest.approx(orr, abs=1e-9)
            checked += 1

    def test_empty_truth_rejected(self):
        with pytest.raises(MetricError):
            metrics.affiliation_f1(np.ones(5, dtype=int),
                                   metrics.EventSet(length=5, intervals=()))


class TestUaff:
    def test_perfect_prediction_scores_100(self):
        # uP = uR = 1 exactly regardless of the baseline level
        assert metrics.uaff_f1(1.0, 1.0, 0.6, 0.4) == pytest.approx(100.0)

    def test_random_prediction_near_zero(self):
        rng = make_rng(6)
        y = np.zeros(4000, dtype=int)
        for start in range(200, 4000, 400):
            y[start : start + 40] = 1
        truth = metrics.events_from_labels(y)
        pred = (rng.uniform(size=4000) < 0.1).astype(int)
        p, r = metrics.affiliation_precision_recall(pred, truth)
        p0, r0 = metrics.affiliation_random_baseline(truth, 0.1, draws=32, seed=9)
        value = metrics.uaff_f1(p, r, p0, r0)
        assert abs(value) < 25.0

    def test_worse_than_chance_is_negative(self):
        y = np.zeros(200, dtype=int)
        y[90:110] = 1
        truth = metrics.events_from_labels(y)
        pred = np.zeros(200, dtype=int)
        pred[0] = 1
        pred[199] = 1  # maximally far from the event
        p, r = metrics.affiliation_precision_recall(pred, truth)
        p0, r0 = metrics.affiliation_random_baseline(
            truth, float(pred.mean()), draws=32, seed=1
        )
        assert metrics.uaff_f1(p, r, p0, r0) < 0

    def test_degenerate_baseline_rejected(self):
        with pytest.raises(MetricError):
            metrics.uaff_f1(0.5, 0.5, 1.0, 0.2)


def oracle_average_precision(scores, labels, relevance):
    """Explicit threshold sweep over distinct score values (inclusive cuts)."""
    ap = 0.0
    prev_recall = 0.0
    total_pos = labels.sum()
    for v in sorted(set(scores), reverse=True):
        pred = scores >= v
        precision = relevance[pred].sum() / pred.sum()
        recall = labels[pred].sum() / total_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return 100.0 * ap


class TestVusPr:
    def test_perfect_scores_any_buffer(self):
        y = np.zeros(60, dtype=int)
        y[10:20] = 1
        y[40:44] = 1
        for buffer_max in (0, 4, 8):
            assert metrics.vus_pr(y.astype(float), y, buffer_max) == pytest.approx(100.0)

    def test_buffer_zero_matches_threshold_sweep_oracle(self):
        rng = make_rng(7)
        for _ in range(20):
            y = (rng.uniform(size=50) < 0.3).astype(int)
            if y.min() == y.max():
                continue
            s = np.round(rng.uniform(size=50), 2)
            expected = oracle_average_precision(s, y, y.astype(float))
            assert metrics.vus_pr(s, y, 0) == pytest.approx(expected, rel=1e-9)

    def test_soften_labels_ramp(self):
        y = np.zeros(12, dtype=int)
        y[5:7] = 1
        r = metrics.soften_labels(y, 2)
        expected = np.array([0, 0, 0, 1 / 3, 2 / 3, 1, 1, 2 / 3, 1 / 3, 0, 0, 0])
        assert np.allclose(r, expected)

    def test_random_scores_near_anomaly_rate(self):
        rng = make_rng(8)
        y = np.zeros(10_000, dtype=int)
        for start in range(0, 10_000, 1000):
            y[start : start + 500] = 1  # balanced labels in big blocks
        s = rng.uniform(size=10_000)
        value = metrics.vus_pr(s, y, 0)
        assert value == pytest.approx(50.0, abs=5.0)

    def test_monotone_transform_invariance(self):
        rng = make_rng(9)
        s = rng.standard_normal(80)
        y = (rng.uniform(size=80) < 0.25).astype(int)
        assert metrics.vus_pr(s, y) == pytest.approx(
            metrics.vus_pr(np.exp(s), y), rel=1e-12
        )


class TestCce:
    def test_perfect_scores(self):
        y = np.array([0, 1, 1, 0, 0, 1, 0])
        assert metrics.cce(y.astype(float), y) == pytest.approx(100.0)

    def test_random_scores_near_zero(self):
        rng = make_rng(10)
        y = np.zeros(10_000, dtype=int)
        for start in range(100, 10_000, 500):
            y[start : start + 50] = 1
        value = metrics.cce(rng.uniform(size=10_000), y)
        assert abs(value) < 5.0

    def test_wobble_inside_events_scores_lower(self):
        y = np.zeros(60, dtype=int)
        y[20:40] = 1
        smooth = y.astype(float)
        wobble = smooth.copy()
        wobble[20:40:2] = 0.6  # alternating high/low inside the event
        assert metrics.auc_roc(wobble, y) == 100.0
        assert metrics.cce(wobble, y) < metrics.cce(smooth, y)

    def test_constant_scores_map_to_half(self):
        y = np.array([0, 1, 0, 1])
        value = metrics.cce(np.full(4, 3.3), y)
        assert value == pytest.approx(0.0)  # AUC 50 -> agreement 0

    def test_evaluate_goes_through_cce_with_its_auc(self, monkeypatch):
        rng = make_rng(13)
        y = (rng.uniform(size=400) < 0.2).astype(int)
        s = rng.standard_normal(400)
        calls = []

        def spy(*args):
            calls.append(args)
            return cce(*args)

        cce = metrics.cce
        monkeypatch.setattr(metrics, "cce", spy)
        report = metrics.evaluate(s, y)
        assert len(calls) == 1 and calls[0][2] == report.auc_roc
        assert report.cce == cce(s, y) == cce(s, y, metrics.auc_roc(s, y))


class TestEvaluate:
    def test_config_rejects_settings_that_average_nothing(self):
        # zero Monte-Carlo draws or a negative VUS buffer would report NaN
        with pytest.raises(ConfigError):
            metrics.MetricsConfig(mc_draws=0)
        with pytest.raises(ConfigError):
            metrics.MetricsConfig(buffer_max=-1)
        assert metrics.MetricsConfig(buffer_max=0, mc_draws=1).to_dict()["mc_draws"] == 1

    def test_perfect_report(self):
        y = np.zeros(300, dtype=int)
        y[40:60] = 1
        y[200:230] = 1
        rep = metrics.evaluate(y.astype(float), y, metrics.MetricsConfig(seed=3))
        assert rep.f1 == 100.0
        assert rep.auc_roc == 100.0
        assert rep.aff_f1 == 100.0
        assert rep.cce == pytest.approx(100.0)
        assert rep.vus_pr == pytest.approx(100.0)
        assert rep.uaff_f1 >= 95.0

    def test_random_report_magnitudes(self):
        rng = make_rng(11)
        y = np.zeros(10_000, dtype=int)
        for start in range(100, 10_000, 500):
            y[start : start + 50] = 1
        rep = metrics.evaluate(rng.uniform(size=10_000), y, metrics.MetricsConfig(seed=7))
        assert 47.0 <= rep.auc_roc <= 53.0
        assert abs(rep.cce) <= 5.0

    def test_determinism(self):
        rng = make_rng(12)
        y = (rng.uniform(size=500) < 0.2).astype(int)
        s = rng.standard_normal(500)
        a = metrics.evaluate(s, y, metrics.MetricsConfig(seed=5))
        b = metrics.evaluate(s, y, metrics.MetricsConfig(seed=5))
        assert a.to_dict() == b.to_dict()

    def test_report_round_trip(self, tmp_path):
        y = np.array([0, 1, 1, 0, 1, 0, 0, 1])
        rep = metrics.evaluate(np.arange(8.0), y, metadata={"detector": "x"})
        path = tmp_path / "rep.json"
        metrics.write_report(path, rep)
        again = metrics.MetricReport.from_dict(json.loads(path.read_text(encoding="utf-8")))
        assert again.to_dict() == rep.to_dict()

    def test_scores_csv_round_trip(self, tmp_path):
        scores = make_rng(13).standard_normal(40)
        path = tmp_path / "scores.csv"
        metrics.write_scores_csv(path, scores)
        assert np.array_equal(metrics.read_scores_csv(path), scores)

    def test_noisy_labels_beat_random_on_every_metric(self):
        rng = make_rng(14)
        y = np.zeros(3000, dtype=int)
        for start in range(100, 3000, 300):
            y[start : start + 30] = 1
        good = y + 0.05 * rng.standard_normal(3000)
        random_scores = rng.uniform(size=3000)
        rep_good = metrics.evaluate(good, y, metrics.MetricsConfig(seed=1))
        rep_rand = metrics.evaluate(random_scores, y, metrics.MetricsConfig(seed=1))
        for name in metrics.MetricReport.METRIC_ORDER:
            assert getattr(rep_good, name) > getattr(rep_rand, name)


class TestInputChecks:
    """Every metric takes its scores and labels through one check, and every
    label or prediction sequence through one 0/1 rule: a fraction or a 2 is
    an error, never truncated or read as 1."""

    @pytest.mark.parametrize("metric", [metrics.best_f1, metrics.auc_roc, metrics.cce,
                                        metrics.vus_pr, metrics.evaluate],
                             ids=lambda fn: fn.__name__)
    def test_length_mismatch_and_fractional_label_rejected(self, metric):
        with pytest.raises(ConfigError, match="equal length"):
            metric(np.arange(3.0), np.array([0, 1, 1, 0]))
        with pytest.raises(ConfigError, match="labels must be 0/1"):
            metric(np.arange(4.0), np.array([0.0, 1.0, 0.4, 0.0]))

    @pytest.mark.parametrize("check", [metrics.events_from_labels,
                                       lambda y: metrics.soften_labels(y, 2)],
                             ids=["events_from_labels", "soften_labels"])
    def test_fractional_label_rejected(self, check):
        with pytest.raises(ConfigError, match="labels must be 0/1"):
            check([0, 0.5, 1.0, 0])

    def test_prediction_other_than_0_1_rejected(self):
        truth = metrics.events_from_labels([0, 1, 0, 0])
        with pytest.raises(ConfigError, match="length-4 0/1 sequence"):
            metrics.affiliation_f1(np.array([0, 2, 0, 0]), truth)

    def test_boolean_labels_and_predictions_accepted(self):
        y = np.array([False, True, True, False, False, True])
        s = np.array([0.1, 0.9, 0.8, 0.2, 0.3, 0.7])
        ints = y.astype(np.int64)
        assert metrics.evaluate(s, y).to_dict() == metrics.evaluate(s, ints).to_dict()
        assert metrics.events_from_labels(y).intervals == ((1, 3), (5, 6))
        assert np.array_equal(metrics.soften_labels(y, 1), metrics.soften_labels(ints, 1))
        truth = metrics.events_from_labels(ints)
        assert metrics.affiliation_f1(y, truth) == metrics.affiliation_f1(ints, truth)
