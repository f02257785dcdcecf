"""Property tests for the metrics.

The vectorized metrics must equal the loop implementations in
``metrics_oracle`` bit for bit (``==``, not ``allclose``), and the metrics
must be invariant under the score transforms that carry no ranking
information.

Hypothesis picks the structure of each case (length, label density, events
at the series ends, score ties, prediction rate); numpy fills the bulk from a
drawn seed, which keeps long series cheap to generate.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import metrics_oracle as oracle
from standbench import metrics
from standbench.exceptions import ConfigError, MetricError
from standbench.ndcore import make_rng

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

# score styles: heavy ties, all equal, continuous, near-perfect, tied near-perfect
SCORE_STYLES = ("ties", "constant", "continuous", "labels", "labels_tied")
# prediction rates for the affiliation metrics, the extremes included
RATES = (0.0, 1e-3, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0)


@st.composite
def labels(draw, max_len=400):
    """0/1 labels with both classes: single-step events, events at 0 and T."""
    T = draw(st.integers(2, max_len))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from((0.01, 0.05, 0.2, 0.5, 0.9)))
    y = (rng.uniform(size=T) < density).astype(np.int64)
    if draw(st.booleans()):
        y[0] = 1  # an event touching t = 0
    if draw(st.booleans()):
        y[-1] = 1  # an event touching t = T
    if y.min() == y.max():
        y[int(rng.integers(T))] ^= 1
    return y


@st.composite
def scored(draw, max_len=400):
    y = draw(labels(max_len))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    style = draw(st.sampled_from(SCORE_STYLES))
    T = len(y)
    if style == "ties":
        s = rng.integers(0, draw(st.integers(1, 4)), size=T).astype(np.float64)
    elif style == "constant":
        s = np.full(T, 0.25)
    elif style == "continuous":
        s = rng.standard_normal(T)
    elif style == "labels":
        s = y + 0.1 * rng.standard_normal(T)
    else:
        s = y + rng.integers(0, 2, size=T) * 0.5
    return s, y


@st.composite
def predicted(draw, max_len=400):
    """(pred, truth, T): a Bernoulli prediction against a labeled truth."""
    y = draw(labels(max_len))
    rate = draw(st.sampled_from(RATES))
    pred = (make_rng(draw(st.integers(0, 2**32 - 1))).uniform(size=len(y)) < rate)
    return pred.astype(np.int64), metrics.events_from_labels(y), len(y)


def report_or_error(evaluate, *args):
    """The report as a dict, or the error raised (a degenerate chance baseline)."""
    try:
        return evaluate(*args).to_dict()
    except MetricError as exc:
        return str(exc)


class TestAgainstOracle:
    @SETTINGS
    @given(scored())
    def test_best_f1(self, case):
        s, y = case
        assert metrics.best_f1(s, y) == oracle.best_f1(s, y)

    @SETTINGS
    @given(scored())
    def test_auc_roc(self, case):
        s, y = case
        assert metrics.auc_roc(s, y) == oracle.auc_roc(s, y)

    @SETTINGS
    @given(scored())
    def test_cce(self, case):
        s, y = case
        assert metrics.cce(s, y) == oracle.cce(s, y)

    @SETTINGS
    @given(scored(), st.sampled_from((0, 1, 3, 8)))
    def test_vus_pr(self, case, buffer_max):
        s, y = case
        assert metrics.vus_pr(s, y, buffer_max) == oracle.vus_pr(s, y, buffer_max)

    @SETTINGS
    @given(labels(), st.integers(0, 12))
    def test_soften_labels(self, y, buffer):
        assert np.array_equal(metrics.soften_labels(y, buffer),
                              oracle.soften_labels(y, buffer))

    @SETTINGS
    @given(predicted())
    def test_affiliation_f1(self, case):
        pred, truth, T = case
        assert metrics.affiliation_f1(pred, truth) == oracle.affiliation_f1(pred, truth, T)

    @SETTINGS
    @given(labels(), st.sampled_from(RATES), st.integers(1, 40), st.integers(0, 2**16))
    def test_affiliation_random_baseline(self, y, rate, draws, seed):
        truth = metrics.events_from_labels(y)
        T = len(y)
        assert metrics.affiliation_random_baseline(truth, rate, draws, seed) == \
            oracle.affiliation_random_baseline(truth, T, rate, draws, seed)

    @SETTINGS
    @given(scored(), st.integers(0, 2**16))
    def test_evaluate(self, case, seed):
        s, y = case
        cfg = metrics.MetricsConfig(buffer_max=4, mc_draws=8, seed=seed)
        assert report_or_error(metrics.evaluate, s, y, cfg) == \
            report_or_error(oracle.evaluate, s, y, cfg)

    @pytest.mark.parametrize("block_steps", [1, 500, 10**9])
    def test_affiliation_random_baseline_any_block_height(self, monkeypatch, block_steps):
        # draws are scored in blocks of rows; the height must not change a bit
        monkeypatch.setattr(metrics, "MC_BLOCK_STEPS", block_steps)
        y = (make_rng(5).uniform(size=300) < 0.1).astype(np.int64)
        truth = metrics.events_from_labels(y)
        for rate in (0.02, 0.4):
            assert metrics.affiliation_random_baseline(truth, rate, 13, 7) == \
                oracle.affiliation_random_baseline(truth, 300, rate, 13, 7)

    def test_best_f1_all_equal_scores(self):
        y = np.array([0, 1, 1, 0])
        assert metrics.best_f1(np.full(4, 2.5), y) == oracle.best_f1(np.full(4, 2.5), y) \
            == (0.0, 2.5)

    def test_best_f1_all_zero_candidates(self):
        # every non-empty prefix holds only negatives: F1 0 at the smallest tau
        s = np.array([5.0, 4.0, 3.0, 1.0])
        y = np.array([0, 0, 0, 1])
        assert metrics.best_f1(s, y) == oracle.best_f1(s, y) == (0.0, 1.0)

    def test_benchmark_sized_series(self):
        # the acceptance-family scale: 18k steps, 32 draws, dozens of zones
        rng = make_rng(4)
        y = np.zeros(18_000, dtype=np.int64)
        for start in range(150, 18_000, 500):
            y[start : start + int(rng.integers(1, 60))] = 1
        for s in (rng.uniform(size=len(y)), y + 0.4 * rng.standard_normal(len(y))):
            cfg = metrics.MetricsConfig(seed=3)
            assert metrics.evaluate(s, y, cfg).to_dict() == oracle.evaluate(s, y, cfg).to_dict()


def strictly_increasing(s):
    """Maps of small-integer scores that keep every tie and every order, exactly."""
    return (s**3 + 2.0 * s, np.exp(s / 4.0), 2.0 * s - 7.0)


def ranking_metrics(s, y):
    """Best F1, AUC-ROC, VUS-PR and the Aff-F1 at the best-F1 threshold."""
    f1, tau = metrics.best_f1(s, y)
    pred = (s > tau).astype(np.int64)
    _, _, aff = metrics.affiliation_f1(pred, metrics.events_from_labels(y))
    return f1, metrics.auc_roc(s, y), metrics.vus_pr(s, y), aff


class TestInvariance:
    @SETTINGS
    @given(labels(), st.integers(0, 2**32 - 1), st.integers(1, 40))
    def test_ranking_metrics_ignore_increasing_maps(self, y, seed, levels):
        s = make_rng(seed).integers(-levels, levels + 1, size=len(y)).astype(np.float64)
        base = ranking_metrics(s, y)
        for mapped in strictly_increasing(s):
            assert ranking_metrics(mapped, y) == base

    @SETTINGS
    @given(scored(), st.floats(1e-3, 1e3), st.floats(-1e3, 1e3))
    # CCE 75.0 before the map and 74.99999999857891 after it: 1.4e-9 of rounding
    @example((np.array([0.5, 1.5, 1.0]), np.array([0, 1, 1])), 0.001, 256.0)
    def test_cce_ignores_positive_affine_maps(self, case, scale, shift):
        # CCE reads the scores through their ranks (AUC-ROC) and their min-max
        # normalization, both unchanged by an exact positive affine map. The map
        # below is rounded, so the bound comes from its rounding:
        # - each mapped score is off by at most half an ulp of scale*s plus half
        #   an ulp of the sum, at most err over the series;
        # - min-max normalization divides by the mapped range R: the numerator
        #   and the range each move by at most 2*err, so a normalized score
        #   (in [0, 1]) moves by at most 4*err/R;
        # - a run's penalty is twice a standard deviation, which moves by at most
        #   the largest change of its values, and the mean of penalties, the
        #   clip and the product with the agreement (in [-1, 1]) move no more:
        #   so CCE, scaled by 100, moves by at most 100*2*4*err/R;
        # - each side's own arithmetic (the normalization, the std and mean of
        #   at most len(s) values in [0, 1]) adds at most len(s) ulps of 1 to
        #   each penalty, hence 100*2*2*len(s)*eps.
        # Where the rounded map merges two distinct scores, the ranks change and
        # the map is not strictly increasing in floating point; such draws are skipped.
        s, y = case
        product = scale * s
        mapped = product + shift
        assume(len(np.unique(mapped)) == len(np.unique(s)))
        eps = np.finfo(np.float64).eps
        err = np.max(np.spacing(np.abs(product)) + np.spacing(np.abs(mapped))) / 2
        spread = float(mapped.max() - mapped.min())
        bound = 100 * 2 * 2 * len(s) * eps
        if spread > 0:
            bound += 100 * 2 * 4 * err / spread
        assert abs(metrics.cce(mapped, y) - metrics.cce(s, y)) <= bound


class TestAffiliationInputs:
    def test_truth_length_must_match_T(self):
        truth = metrics.EventSet(length=10, intervals=((2, 4),))
        with pytest.raises(ConfigError):
            metrics.affiliation_precision_recall(np.zeros(12, dtype=int), truth)
