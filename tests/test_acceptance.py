"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria 6-8 read their
cells from the acceptance grid, which the session-scoped ``acceptance_grid``
fixture runs once through ``bench.run_experiment``, the engine behind
``standbench bench``; each criterion stays inside its stated runtime budget.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from family import STAND_DETECTOR_ENTRY, UTAD_DETECTOR_ENTRIES, acceptance_spec_dict
from instruments import calibrate_gd_learning_rate, fresh_interpreter
from standbench import bench, cli, data, metrics, pool, stand
from standbench.ndcore import make_rng

SEEDS = (0, 1, 2, 3, 4)
# Criterion 3 times its forwards where BLAS runs the package's default of one
# thread: in a fresh interpreter with no BLAS thread variable, so that a count
# set in the environment, which the pytest process keeps, does not reach it.
# A BLAS thread per CPU, with other processes on those cores, put the ratio
# as low as 2.5.
TIMING_PROBE = """if True:
    import json, sys
    import standbench
    from instruments import timing_probe
    from standbench import stand
    cfg = stand.StandConfig(**json.loads(sys.argv[1]))
    print(json.dumps(timing_probe(cfg, (2048, 256)).tolist()))
"""


def criterion(number, name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {number:2d} [{status}] {name}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {number} {name}: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded runtime budget: {elapsed:.1f}s"


class TestAcceptance:
    def test_01_gradient_fidelity(self):
        t0 = time.perf_counter()
        cfg = stand.StandConfig(input_channels=3, d_model=4, tem_layers=1,
                                bidirectional=True, mlp_layers=2, window=6, seed=0)
        params = stand.init_params(cfg)
        rng = make_rng(7)
        x = rng.standard_normal((6, 3))
        y = np.array([0, 1, 1, 0, 0, 1], dtype=float)
        _, trace = stand.forward_batch(x[None], params, cfg)
        analytic = stand.backward(trace, y[None], params, cfg)

        h = 1e-4
        worst = 0.0
        for key, tensor in params.items():
            numeric = np.zeros_like(tensor)
            flat, nflat = tensor.reshape(-1), numeric.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                logits, _ = stand.forward_batch(x[None], params, cfg)
                up = stand.bce_loss(logits, y[None])
                flat[i] = orig - h
                logits, _ = stand.forward_batch(x[None], params, cfg)
                down = stand.bce_loss(logits, y[None])
                flat[i] = orig
                nflat[i] = (up - down) / (2 * h)
            scale = max(np.abs(analytic[key]).max(), np.abs(numeric).max(), 1e-12)
            worst = max(worst, float(np.abs(analytic[key] - numeric).max() / scale))
        elapsed = time.perf_counter() - t0
        criterion(1, "gradient fidelity", worst < 1e-4,
                  f"max relative error {worst:.2e} < 1e-4", elapsed, 10)

    def test_02_descent_property(self):
        t0 = time.perf_counter()
        spec = data.SyntheticSpec(
            T=96, C=3, seed=21, noise_scale=0.4,
            anomalies=({"kind": "spike", "start": 30, "duration": 5, "magnitude": 6.0},
                       {"kind": "level_shift", "start": 60, "duration": 10, "magnitude": 2.0}),
        )
        ds = data.generate_synthetic(spec)
        windows = data.make_windows(ds, 12, 6)
        cfg = stand.StandConfig(input_channels=3, d_model=6, window=12,
                                optimizer="gd", seed=3)
        eta, history = calibrate_gd_learning_rate(windows, cfg, steps=100)
        monotone = all(b <= a for a, b in zip(history, history[1:]))
        elapsed = time.perf_counter() - t0
        criterion(2, "descent property", monotone and len(history) == 101,
                  f"100 full-batch GD steps non-increasing at eta={eta:g} "
                  f"(loss {history[0]:.4f} -> {history[-1]:.4f})", elapsed, 30)

    def test_03_complexity_linearity(self):
        t0 = time.perf_counter()
        cfg = stand.StandConfig(input_channels=8, d_model=64, tem_layers=1, window=32)
        flops_ratio = stand.flop_estimate(cfg, 2048).total / stand.flop_estimate(cfg, 256).total
        # interleaved rounds, so both lengths sample the same phases of the
        # machine; the fastest call of each length drops delays added by others
        times = np.array(json.loads(fresh_interpreter(TIMING_PROBE, json.dumps(cfg.to_dict()))))
        ratio = float(times[:, 0].min() / times[:, 1].min())
        elapsed = time.perf_counter() - t0
        criterion(3, "complexity linearity",
                  flops_ratio == 8.0 and 4.0 <= ratio <= 16.0,
                  f"flop ratio {flops_ratio:g} (exactly 8), CPU-time ratio {ratio:.2f} in [4, 16]",
                  elapsed, 60)

    def test_04_metric_sanity(self):
        t0 = time.perf_counter()
        y = np.zeros(500, dtype=int)
        y[60:100] = 1
        y[300:340] = 1
        rep = metrics.evaluate(y.astype(float), y, metrics.MetricsConfig(seed=11))
        perfect_ok = (
            rep.f1 == 100.0 and rep.auc_roc == 100.0 and rep.aff_f1 == 100.0
            and rep.vus_pr == pytest.approx(100.0) and rep.cce == pytest.approx(100.0)
            and rep.uaff_f1 >= 95.0
        )
        y_long = np.zeros(10_000, dtype=int)
        for start in range(200, 10_000, 500):
            y_long[start : start + 50] = 1
        rand_scores = make_rng(5).uniform(size=10_000)
        rep_rand = metrics.evaluate(rand_scores, y_long, metrics.MetricsConfig(seed=5))
        random_ok = 47.0 <= rep_rand.auc_roc <= 53.0 and -5.0 <= rep_rand.cce <= 5.0
        elapsed = time.perf_counter() - t0
        criterion(4, "metric sanity", perfect_ok and random_ok,
                  f"perfect scores -> (F1,AUC,Aff,VUS,CCE)=100, UAff={rep.uaff_f1:.1f}>=95; "
                  f"random -> AUC={rep_rand.auc_roc:.2f}, CCE={rep_rand.cce:.2f}",
                  elapsed, 60)

    def test_05_affiliation_oracle_equivalence(self):
        from test_metrics import oracle_affiliation

        t0 = time.perf_counter()
        rng = make_rng(31)
        checked = 0
        worst = 0.0
        while checked < 200:
            T = int(rng.integers(20, 201))
            y = (rng.uniform(size=T) < float(rng.uniform(0.1, 0.35))).astype(int)
            if y.sum() == 0:
                continue
            pred = (rng.uniform(size=T) < float(rng.uniform(0.05, 0.5))).astype(int)
            truth = metrics.events_from_labels(y)
            p, r = metrics.affiliation_precision_recall(pred, truth)
            op, orr = oracle_affiliation(pred, truth, T)
            worst = max(worst, abs(p - op), abs(r - orr))
            checked += 1
        elapsed = time.perf_counter() - t0
        criterion(5, "affiliation oracle equivalence", worst < 1e-9,
                  f"200 randomized instances, max |impl - oracle| = {worst:.2e}",
                  elapsed, 60)

    @pytest.mark.slow
    def test_06_labels_matter_ordering(self, acceptance_grid):
        t0 = time.perf_counter()
        stand_mean = acceptance_grid.mean_of_six("stand_full", SEEDS)
        stand_auc = acceptance_grid.mean_auc("stand_full", SEEDS)
        gaps = {}
        for entry in UTAD_DETECTOR_ENTRIES:
            gaps[entry["kind"]] = stand_mean - acceptance_grid.mean_of_six(entry["kind"], SEEDS)
        ok = all(gap >= 10.0 for gap in gaps.values()) and stand_auc > 90.0
        elapsed = time.perf_counter() - t0
        gap_text = ", ".join(f"{k}:+{v:.1f}" for k, v in gaps.items())
        criterion(6, "labels-matter ordering", ok,
                  f"stand mean-of-six {stand_mean:.2f} (gaps {gap_text}, all >= 10), "
                  f"stand AUC {stand_auc:.2f} > 90", elapsed, 600)

    @pytest.mark.slow
    def test_07_supervisory_gain_trend(self, acceptance_grid):
        t0 = time.perf_counter()
        wins = 0
        pairs = []
        for seed in SEEDS:
            low = acceptance_grid.cell("stand_full", seed, 0.10).mean_score()
            high = acceptance_grid.cell("stand_full", seed, 0.40).mean_score()
            wins += high >= low
            pairs.append(f"seed{seed}:{low:.1f}->{high:.1f}")
        elapsed = time.perf_counter() - t0
        criterion(7, "supervisory gain trend", wins >= 4,
                  f"mean-of-six at 0.40 >= at 0.10 in {wins}/5 seeds ({'; '.join(pairs)})",
                  elapsed, 900)

    @pytest.mark.slow
    def test_08_ablation_direction(self, acceptance_grid):
        t0 = time.perf_counter()
        full = acceptance_grid.mean_auc("stand_full", SEEDS)
        no_bidir = acceptance_grid.mean_auc("stand_no_bidir", SEEDS)
        no_tem = acceptance_grid.mean_auc("stand_no_tem", SEEDS)
        ok = full > no_tem and full >= no_bidir and no_bidir >= no_tem
        elapsed = time.perf_counter() - t0
        criterion(8, "ablation direction", ok,
                  f"mean AUC full {full:.2f} >= no-Bidir {no_bidir:.2f} >= no-TEM {no_tem:.2f}",
                  elapsed, 900)

    def test_09_split_protocol_oracle(self):
        from test_data import oracle_prefix_split

        t0 = time.perf_counter()
        rng = make_rng(41)
        checked = 0
        mismatches = 0
        while checked < 500:
            T = int(rng.integers(10, 120))
            y = (rng.uniform(size=T) < float(rng.uniform(0.1, 0.45))).astype(int)
            if y.sum() == 0:
                continue
            threshold = float(rng.uniform(0.02, 0.5))
            ds = data.TimeSeriesDataset(name="o", values=np.zeros((T, 1)), labels=y)
            expected = oracle_prefix_split(y, threshold)
            try:
                res = data.prefix_split(ds, threshold)
            except Exception:
                res = None
            if expected is None or res is None:
                mismatches += (expected is None) != (res is None)
            else:
                valid = (res.train_end == expected
                         and res.train_rate >= threshold
                         and not (y[res.train_end - 1] == 1 and y[res.train_end] == 1))
                mismatches += not valid
            checked += 1
        elapsed = time.perf_counter() - t0
        criterion(9, "split-protocol oracle", mismatches == 0,
                  f"500 randomized sequences, {mismatches} disagreements with the exhaustive scan",
                  elapsed, 10)

    @pytest.mark.slow
    @pytest.mark.usefixtures("one_blas_thread")
    def test_10_bench_determinism(self, tmp_path, monkeypatch):
        t0 = time.perf_counter()
        texts = {}
        # a and b run their two (dataset, seed) groups on two forked workers, c in-process
        for run, cpus in (("a", 2), ("b", 2), ("c", 1)):
            monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
            out_dir = tmp_path / run
            config = {
                "name": "determinism",
                "datasets": [{"synthetic": acceptance_spec_dict(0)}],
                "detectors": [
                    {"kind": "random"},
                    {**STAND_DETECTOR_ENTRY, "epochs": 10},
                ],
                "split_thresholds": [0.10],
                "seeds": [0, 1],
                "output_dir": str(out_dir),
                "metrics": {"buffer_max": 8, "mc_draws": 32},
            }
            cfg_path = tmp_path / f"cfg_{run}.json"
            cfg_path.write_text(json.dumps(config))
            code = cli.main(["bench", "--config", str(cfg_path)])
            assert code == 0
            texts[run] = {
                name: Path(out_dir, f"determinism_results.{name}").read_text()
                for name in ("json", "csv", "md")
            }
        identical = texts["a"] == texts["b"]
        pool_like_in_process = texts["a"] == texts["c"]
        elapsed = time.perf_counter() - t0
        criterion(10, "bench determinism", identical and pool_like_in_process,
                  "two fresh end-to-end runs produced bitwise-identical result files, "
                  "and a pooled run the same files as an in-process one",
                  elapsed, 600)
