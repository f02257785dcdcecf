import csv
import errno
import hashlib
import io
import json
import os

import numpy as np
import pytest

from family import acceptance_spec, acceptance_spec_dict
from standbench import bench, checkpoint, data
from standbench.exceptions import ConfigError, IngestError, SplitError
from standbench.ndcore import make_rng


def make_labeled(values, labels, name="t"):
    return data.TimeSeriesDataset(name=name, values=np.asarray(values, float),
                                  labels=np.asarray(labels))


class TestCsv:
    def test_direct_readback(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,label\n1.0,2.0,0\n3.5,-1.0,1\n0.0,0.25,0\n")
        ds = data.load_csv(p)
        assert (ds.length, ds.channels) == (3, 2)
        assert ds.anomaly_rate == pytest.approx(1 / 3)
        assert np.allclose(ds.values, [[1, 2], [3.5, -1], [0, 0.25]])

    def test_no_label_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\n3,4\n")
        ds = data.load_csv(p)
        assert not ds.labeled
        with pytest.raises(SplitError):
            data.prefix_split(ds, 0.1)

    def test_round_trip(self, tmp_path):
        rng = make_rng(5)
        ds = data.TimeSeriesDataset(
            name="r", values=rng.standard_normal((20, 3)),
            labels=(rng.uniform(size=20) < 0.3).astype(int),
        )
        p = tmp_path / "rt.csv"
        data.write_csv(ds, p)
        back = data.load_csv(p)
        assert np.array_equal(back.values, ds.values)
        assert np.array_equal(back.labels, ds.labels)

    @pytest.mark.parametrize("labeled", [True, False])
    def test_bytes_equal_csv_writer(self, tmp_path, labeled):
        # what csv.writer makes of each cell's repr, row by row
        ds = data.generate_synthetic(data.SyntheticSpec(T=300, C=4, seed=2, anomalies=(
            {"kind": "spike", "start": 40, "duration": 9, "magnitude": 6.0},)))
        values = np.vstack([ds.values, [[-0.0, 1e-300, 1e300, 5.0]]])
        labels = np.append(ds.labels, 1) if labeled else None
        ds = data.TimeSeriesDataset(name="w", values=values, labels=labels)
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow([f"ch{j}" for j in range(4)] + (["label"] if labeled else []))
        for t in range(ds.length):
            writer.writerow([repr(float(v)) for v in ds.values[t]]
                            + ([str(int(ds.labels[t]))] if labeled else []))
        data.write_csv(ds, tmp_path / "w.csv")
        assert (tmp_path / "w.csv").read_bytes() == want.getvalue().encode()

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="no such file"):
            data.load_csv(tmp_path / "absent.csv")

    def test_ragged_row_names_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(IngestError, match="row 3"):
            data.load_csv(p)

    def test_non_numeric_names_row_and_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(IngestError, match="row 3, column 'b'"):
            data.load_csv(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_names_row_and_column(self, tmp_path, cell):
        p = tmp_path / "d.csv"
        p.write_text(f"a,b,label\n1,2,0\n3,4,1\n5,{cell},0\n")
        with pytest.raises(IngestError, match="row 4, column 'b': non-finite"):
            data.load_csv(p)

    def test_non_binary_label(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,label\n1,0\n2,2\n")
        with pytest.raises(IngestError, match="label"):
            data.load_csv(p)

    # each text either takes the bulk parse or falls back to the row-by-row reader
    @pytest.mark.parametrize("text", [
        "a,b,label\r\n0.1,-2.5e-3,1\r\n1e300,5e-324,0\r\n",
        "a,b,label\n 1.5 ,\t2,-0\n3,4, 1 \n",
        "a,label,b\n0.30000000000000004,1.0,7\n2.2250738585072014e-308,0,-0.0",
        '"a","b"\n"1.25",2\n3,"4"\n',
        "a,b\n1_000,2\n3,4\n",
        "a\n1\n2\n",
    ])
    def test_bytes_equal_row_by_row_reader(self, tmp_path, text):
        p = tmp_path / "d.csv"
        p.write_bytes(text.encode())
        rows = list(csv.reader(io.StringIO(text)))
        header = [h.strip() for h in rows[0]]
        cells = np.array([[float(c) for c in row] for row in rows[1:]])
        ds = data.load_csv(p)
        if "label" in header:
            j = header.index("label")
            assert ds.labels.tobytes() == cells[:, j].astype(np.int64).tobytes()
            cells = np.delete(cells, j, axis=1)
        assert ds.values.tobytes() == cells.tobytes()

    @pytest.mark.parametrize("text, message", [
        ("", "empty file"),
        ("a,b\n", "no data rows"),
        ("a,b\n1,2\n3\n", "row 3: expected 2 cells, got 1"),
        ("a,b\n1,2\n\n3,4\n", "row 3: expected 2 cells, got 0"),
        ("a,b\n1,2,\n", "row 2: expected 2 cells, got 3"),
        ("a,b\n1,2\n3,oops\n", "row 3, column 'b': non-numeric cell 'oops'"),
        ('a,b\n1,"x"\n', "row 2, column 'b': non-numeric cell 'x'"),
        ("a,b\r\n1,2\r\n-inf,4\r\n", "row 3, column 'a': non-finite cell -inf"),
        ("a,b\n1,1e999\n", "row 2, column 'b': non-finite cell inf"),
        ("a,label\n1,0\n2, 2 \n", "row 3, column 'label': label must be 0 or 1, got '2'"),
        ("a,label\n1,0.5\n", "row 2, column 'label': label must be 0 or 1, got '0.5'"),
        ("label\n1\n", "no value columns besides 'label'"),
    ])
    def test_ingest_error_messages_pinned(self, tmp_path, text, message):
        p = tmp_path / "d.csv"
        p.write_bytes(text.encode())
        with pytest.raises(IngestError) as err:
            data.load_csv(p)
        assert str(err.value) == f"{p}: {message}"


class TestAtomicOpen:
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.usefixtures("bounded")
    def test_interleaved_writers_both_finish(self, tmp_path):
        # a child writes p and waits while this process writes p whole: the
        # child still finishes, and the last writer to finish wins
        path = tmp_path / "p.txt"
        written, go = os.pipe(), os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                with data.atomic_open(path) as fh:
                    fh.write("child\n")
                    os.write(written[1], b"w")
                    os.read(go[0], 1)
                code = 0
            finally:
                os._exit(code)
        os.close(written[1])  # the read below ends if the child dies first
        try:
            assert os.read(written[0], 1) == b"w"
            bench.atomic_write(str(path), "parent\n")
            assert path.read_text() == "parent\n"
        finally:
            os.write(go[1], b"g")
            for fd in (written[0], go[0], go[1]):
                os.close(fd)
            _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert path.read_text() == "child\n"
        assert os.listdir(tmp_path) == ["p.txt"]

    def test_failure_mid_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "s.csv"
        path.write_bytes(b"previous\n")
        real_open = open

        def opening(*args, **kwargs):  # the disk fills up after the header
            fh = real_open(*args, **kwargs)
            write = fh.write

            def filling(text):
                if not text.startswith("ch0"):
                    raise OSError(errno.ENOSPC, "No space left on device")
                return write(text)

            fh.write = filling
            return fh

        monkeypatch.setattr(data, "open", opening, raising=False)
        ds = data.TimeSeriesDataset(name="t", values=np.ones((300, 2)), labels=np.zeros(300))
        with pytest.raises(OSError):
            data.write_csv(ds, path)
        monkeypatch.undo()
        # a binary writer too: a tensor that is not numeric fails after the header
        with pytest.raises(ValueError):
            checkpoint.save_checkpoint(tmp_path / "m.ckpt", "k", {}, {"a": np.array(["x"])})
        assert path.read_bytes() == b"previous\n"
        assert os.listdir(tmp_path) == ["s.csv"]

    def test_new_files_get_the_mode_open_gives(self, tmp_path):
        with open(tmp_path / "plain", "w"):
            pass
        with data.atomic_open(tmp_path / "atomic", "wb"):
            pass
        assert (tmp_path / "atomic").stat().st_mode == (tmp_path / "plain").stat().st_mode


def oracle_prefix_split(labels, threshold):
    """Exhaustive scan over every cut position."""
    y = np.asarray(labels)
    csum = np.cumsum(y)
    for t in range(1, len(y)):
        cuts_event = y[t - 1] == 1 and y[t] == 1
        if csum[t - 1] / t >= threshold and not cuts_event:
            return t
    return None


class TestLabels:
    def test_fractional_label_rejected(self):
        with pytest.raises(ConfigError, match="labels must be 0/1"):
            make_labeled(np.zeros((3, 1)), [0.5, 1.0, 0.0])

    def test_boolean_labels_accepted(self):
        ds = make_labeled(np.zeros((3, 1)), [False, True, False])
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [0, 1, 0]


class TestPrefixSplit:
    def test_spec_example(self):
        ds = make_labeled(np.zeros((6, 1)), [0, 0, 1, 1, 0, 0])
        res = data.prefix_split(ds, 0.30)
        assert res.train_end == 4
        assert res.train_rate == pytest.approx(0.5)

    def test_boundary_inclusive(self):
        y = [0, 0, 1, 1, 0, 0]
        ds = make_labeled(np.zeros((6, 1)), y)
        exact = data.prefix_split(ds, 0.5)  # rate at t=4 is exactly 0.5
        just_below = data.prefix_split(ds, 0.5 - 1e-9)
        assert exact.train_end == just_below.train_end == 4

    def test_randomized_against_oracle(self):
        rng = make_rng(11)
        for trial in range(500):
            T = int(rng.integers(8, 60))
            y = (rng.uniform(size=T) < 0.3).astype(int)
            if y.sum() == 0 or y[: T - 1].sum() == 0:
                continue
            threshold = float(rng.uniform(0.02, 0.6))
            expected = oracle_prefix_split(y, threshold)
            ds = make_labeled(np.zeros((T, 1)), y)
            if expected is None:
                with pytest.raises(SplitError):
                    data.prefix_split(ds, threshold)
                continue
            res = data.prefix_split(ds, threshold)
            assert res.train_end == expected
            assert res.train_rate >= threshold
            assert not (y[res.train_end - 1] == 1 and y[res.train_end] == 1)

    def test_threshold_monotonicity(self):
        # raising the threshold never yields a strictly smaller feasible set
        rng = make_rng(12)
        for _ in range(50):
            T = int(rng.integers(20, 80))
            y = (rng.uniform(size=T) < 0.25).astype(int)
            if y.sum() == 0:
                continue
            ends = []
            for threshold in (0.05, 0.1, 0.2):
                try:
                    ends.append(data.prefix_split(make_labeled(np.zeros((T, 1)), y),
                                                  threshold).train_end)
                except SplitError:
                    ends.append(T + 1)
            assert ends == sorted(ends)

    def test_unreachable_threshold(self):
        ds = make_labeled(np.zeros((10, 1)), [0, 0, 0, 0, 0, 1, 0, 0, 0, 0])
        with pytest.raises(SplitError):
            data.prefix_split(ds, 0.9)

    def test_no_anomalies(self):
        ds = make_labeled(np.zeros((5, 1)), [0, 0, 0, 0, 0])
        with pytest.raises(SplitError):
            data.prefix_split(ds, 0.1)


class TestZscore:
    def test_constant_channel_clamped(self):
        vals = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
        ds = data.TimeSeriesDataset(name="c", values=vals)
        stats = data.zscore_fit(ds, (0, 10))
        out = data.zscore_apply(ds, stats)
        assert np.allclose(out.values[:, 0], 0.0)
        assert np.all(np.isfinite(out.values))

    def test_train_prefix_standardized(self):
        rng = make_rng(7)
        ds = data.TimeSeriesDataset(name="z", values=rng.standard_normal((50, 4)) * 3 + 1)
        stats = data.zscore_fit(ds, (0, 30))
        out = data.zscore_apply(ds, stats)
        assert np.all(np.abs(out.values[:30].mean(axis=0)) < 1e-10)
        assert np.allclose(out.values[:30].std(axis=0), 1.0, atol=1e-9)

    def test_affine_closure(self):
        rng = make_rng(8)
        raw = rng.standard_normal((40, 3))
        ds = data.TimeSeriesDataset(name="a", values=raw)
        scaled = data.TimeSeriesDataset(name="b", values=2.5 * raw - 4.0)
        norm_a = data.zscore_apply(ds, data.zscore_fit(ds, (0, 40)))
        norm_b = data.zscore_apply(scaled, data.zscore_fit(scaled, (0, 40)))
        assert np.allclose(norm_a.values, norm_b.values, atol=1e-10)

    def test_empty_segment(self):
        ds = data.TimeSeriesDataset(name="e", values=np.zeros((5, 1)))
        with pytest.raises(ConfigError):
            data.zscore_fit(ds, (3, 3))


class TestWindows:
    def test_no_overlap_is_concatenation(self):
        rng = make_rng(1)
        ds = data.TimeSeriesDataset(name="w", values=rng.standard_normal((12, 2)))
        ws = data.make_windows(ds, 4, 4)
        scores = rng.standard_normal((len(ws), 4))
        out = data.reassemble(ws, scores)
        assert np.array_equal(out, scores.reshape(-1))

    def test_constant_scores_average_to_constant(self):
        ds = data.TimeSeriesDataset(name="w", values=np.zeros((10, 1)))
        ws = data.make_windows(ds, 4, 1)
        out = data.reassemble(ws, np.full((len(ws), 4), 2.5))
        assert np.allclose(out, 2.5)

    def test_brute_force_coverage_oracle(self):
        rng = make_rng(2)
        ds = data.TimeSeriesDataset(name="w", values=rng.standard_normal((10, 1)))
        ws = data.make_windows(ds, 4, 2)
        scores = rng.standard_normal((len(ws), 4))
        out = data.reassemble(ws, scores)
        for t in range(10):
            contributions = [
                scores[i][t - s]
                for i, s in enumerate(ws.starts)
                if s <= t < s + 4
            ]
            assert len(contributions) >= 1
            assert out[t] == pytest.approx(np.mean(contributions), rel=1e-12)

    def test_stride_one_identity(self):
        rng = make_rng(3)
        series = rng.standard_normal(15)
        ds = data.TimeSeriesDataset(name="w", values=series[:, None])
        ws = data.make_windows(ds, 5, 1)
        slices = np.stack([series[s : s + 5] for s in ws.starts])
        assert np.allclose(data.reassemble(ws, slices), series)

    def test_tail_window_always_covers_end(self):
        ds = data.TimeSeriesDataset(name="w", values=np.zeros((11, 1)))
        ws = data.make_windows(ds, 4, 3)
        assert ws.starts[-1] == 7  # anchored at T - W
        assert data.window_starts(11, 4, 3).tolist() == [0, 3, 6, 7]

    def test_window_too_large(self):
        ds = data.TimeSeriesDataset(name="w", values=np.zeros((3, 1)))
        with pytest.raises(ConfigError):
            data.make_windows(ds, 4, 1)

    def test_labels_sliced(self):
        ds = make_labeled(np.zeros((8, 1)), [0, 1, 0, 0, 1, 1, 0, 0])
        ws = data.make_windows(ds, 4, 2)
        assert np.array_equal(ws.labels[0], [0, 1, 0, 0])
        assert np.array_equal(ws.labels[1], [0, 0, 1, 1])


class TestSynthetic:
    def spec(self, **kw):
        base = dict(T=400, C=3, seed=9, anomalies=(
            {"kind": "spike", "start": 50, "duration": 5, "magnitude": 8.0},
            {"kind": "level_shift", "start": 120, "duration": 30, "magnitude": 2.0},
            {"kind": "variance_burst", "start": 250, "duration": 40, "magnitude": 5.0},
        ))
        base.update(kw)
        return data.SyntheticSpec(**base)

    def test_empty_plan_all_zero_labels(self):
        ds = data.generate_synthetic(data.SyntheticSpec(T=100, C=2, seed=0))
        assert ds.labels.sum() == 0

    def test_determinism(self):
        a = data.generate_synthetic(self.spec())
        b = data.generate_synthetic(self.spec())
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.labels, b.labels)

    def test_seed_changes_values_not_labels(self):
        a = data.generate_synthetic(self.spec())
        b = data.generate_synthetic(self.spec(seed=10))
        assert not np.array_equal(a.values, b.values)
        assert np.array_equal(a.labels, b.labels)

    def test_labels_mark_exact_interval_mass(self):
        spec = self.spec()
        ds = data.generate_synthetic(spec)
        planned = sum(ev.duration for ev in spec.anomalies)
        assert int(ds.labels.sum()) == planned
        for ev in spec.anomalies:
            assert np.all(ds.labels[ev.start : ev.start + ev.duration] == 1)

    def test_level_shift_applies_offset(self):
        quiet = self.spec(anomalies=({"kind": "level_shift", "start": 100,
                                      "duration": 50, "magnitude": 4.0},),
                          noise_scale=0.01)
        ds = data.generate_synthetic(quiet)
        inside = ds.values[100:150].mean()
        outside = ds.values[160:210].mean()
        assert inside - outside > 3.0

    def test_variance_burst_raises_variance(self):
        spec = self.spec(anomalies=({"kind": "variance_burst", "start": 100,
                                     "duration": 100, "magnitude": 6.0},))
        ds = data.generate_synthetic(spec)
        diffs = np.diff(ds.values[:, 0])
        assert diffs[100:199].std() > 2.5 * diffs[250:350].std()

    def test_overlapping_intervals_rejected(self):
        with pytest.raises(ConfigError, match="overlap"):
            self.spec(anomalies=(
                {"kind": "spike", "start": 10, "duration": 10, "magnitude": 1.0},
                {"kind": "spike", "start": 15, "duration": 10, "magnitude": 1.0},
            ))

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            self.spec(anomalies=({"kind": "spike", "start": 398, "duration": 10,
                                  "magnitude": 1.0},))

    def test_spec_dict_round_trip(self):
        spec = self.spec()
        again = data.SyntheticSpec.from_dict(spec.to_dict())
        assert again == spec
        assert np.array_equal(
            data.generate_synthetic(again).values, data.generate_synthetic(spec).values
        )

    @pytest.mark.parametrize("edit", [
        {"anomalies": ["spike"]},
        {"anomalies": [{"kind": "spike", "start": 10, "duration": 5}]},
        {"anomalies": [{"kind": "spike", "start": 10, "duration": 5, "magnitude": 1.0,
                        "width": 2}]},
        {"anomalies": [{"kind": "spike", "start": "10", "duration": 5, "magnitude": 1.0}]},
        {"anomalies": [{"kind": "spike", "start": 10, "duration": 5.0, "magnitude": 1.0}]},
        {"T": "400"},
        {"C": 3.0},
        {"seed": True},
        {"noise_scale": "0.3"},
        {"sine_periods": [97.0, None]},
        {"bogus": 1},
        {"ar_coeff": 1.01},
        {"ar_coeff": -5},
    ], ids=["event_not_object", "event_missing_key", "event_unknown_key", "string_start",
            "float_duration", "string_T", "float_C", "bool_seed", "string_noise_scale",
            "null_period", "unknown_field", "exploding_ar_coeff", "negative_exploding_ar_coeff"])
    def test_from_dict_rejects_malformed_spec(self, edit):
        with pytest.raises(ConfigError):
            data.SyntheticSpec.from_dict({**self.spec().to_dict(), **edit})

    def test_frozen_specs_parse_and_float_fields_take_integers(self):
        path = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "inputs.json")
        with open(path, encoding="utf-8") as fh:
            frozen = json.load(fh)["synthetic"]
        assert data.SyntheticSpec.from_dict(frozen).to_dict() == frozen
        assert data.SyntheticSpec.from_dict(acceptance_spec_dict(0)) == acceptance_spec(0)
        events = [{"kind": "variance_burst", "start": 100, "duration": 50, "magnitude": 5}]
        ints = data.SyntheticSpec.from_dict({**self.spec().to_dict(), "ar_coeff": 1,
                                             "noise_scale": 1, "sine_periods": [97],
                                             "anomalies": events})
        floats = self.spec(ar_coeff=1.0, noise_scale=1.0, sine_periods=(97.0,),
                           anomalies=[{**events[0], "magnitude": 5.0}])
        assert ints == floats
        assert (data.generate_synthetic(ints).values.tobytes()
                == data.generate_synthetic(floats).values.tobytes())

    def test_acceptance_series_pinned(self):
        # sha256 of the acceptance family's seed-0 series, as the numpy
        # recursion over 8-channel rows made it
        ds = data.generate_synthetic(acceptance_spec(0))
        assert hashlib.sha256(ds.values.tobytes()).hexdigest()[:16] == "ff38c59a7af87576"
        assert hashlib.sha256(ds.labels.tobytes()).hexdigest()[:16] == "a44176dc4fdf08db"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            self.spec(anomalies=({"kind": "dropout", "start": 10, "duration": 5,
                                  "magnitude": 1.0},))
