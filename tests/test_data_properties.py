"""Property tests for windowing, the labeled-prefix split and checkpoints."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from standbench import checkpoint, data
from standbench.exceptions import SplitError
from standbench.ndcore import make_rng

SETTINGS = settings(max_examples=100, deadline=None)


@st.composite
def windowing(draw):
    T = draw(st.integers(1, 200))
    window = draw(st.integers(1, T))
    stride = draw(st.integers(1, window))
    return T, window, stride


class TestWindowRoundTrip:
    @SETTINGS
    @given(windowing(), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_reassemble_inverts_make_windows(self, shape, channels, seed):
        T, window, stride = shape
        # small integers: the per-timestep mean of equal copies is exact
        values = make_rng(seed).integers(-50, 50, size=(T, channels)).astype(np.float64)
        ws = data.make_windows(data.TimeSeriesDataset("p", values), window, stride)
        for c in range(channels):
            assert np.array_equal(data.reassemble(ws, ws.values[:, :, c]), values[:, c])


def exhaustive_prefix_split(y, threshold):
    """First cut t in [1, T) at or above the threshold that splits no event."""
    for t in range(1, len(y)):
        if y[:t].sum() / t >= threshold and not (y[t - 1] == 1 and y[t] == 1):
            return t
    return None


class TestPrefixSplit:
    @SETTINGS
    @given(st.lists(st.integers(0, 1), min_size=2, max_size=80), st.floats(0.01, 0.99))
    def test_agrees_with_exhaustive_scan(self, labels, threshold):
        y = np.array(labels)
        ds = data.TimeSeriesDataset("p", np.zeros((len(y), 1)), y)
        expected = exhaustive_prefix_split(y, threshold) if y.sum() else None
        if expected is None:
            with pytest.raises(SplitError):
                data.prefix_split(ds, threshold)
        else:
            assert data.prefix_split(ds, threshold).train_end == expected


shapes = st.lists(st.integers(0, 5), min_size=0, max_size=3).map(tuple)


class TestCheckpointRoundTrip:
    @SETTINGS
    @given(st.dictionaries(st.text("abcxyz._", min_size=1, max_size=8), shapes, max_size=5),
           st.integers(0, 2**32 - 1))
    def test_tensors_round_trip(self, tmp_path_factory, layout, seed):
        rng = make_rng(seed)
        tensors = {name: rng.standard_normal(shape) for name, shape in layout.items()}
        path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
        checkpoint.save_checkpoint(path, "probe", {"seed": seed}, tensors)
        kind, config, loaded = checkpoint.load_checkpoint(path)
        assert (kind, config) == ("probe", {"seed": seed})
        assert sorted(loaded) == sorted(tensors)
        for name, value in tensors.items():
            assert loaded[name].shape == value.shape
            assert loaded[name].tobytes() == value.tobytes()
