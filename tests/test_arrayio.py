import numpy as np
import pytest

from secpatch import TruncatedContainer
from secpatch.arrayio import load_arrays, save_arrays


def _small_container(path):
    arrays = {"b": np.arange(3, dtype="<i4"), "a": np.array([[1.5, -2.0]]), "c": np.zeros((0, 2))}
    save_arrays(path, arrays, meta={"format": "test", "n": 2})
    return arrays


def test_round_trip_bit_exact(tmp_path):
    path = tmp_path / "full.bin"
    arrays = _small_container(path)
    loaded, meta = load_arrays(path)
    assert meta == {"format": "test", "n": 2}
    assert sorted(loaded) == sorted(arrays)
    for name, arr in arrays.items():
        assert loaded[name].dtype == arr.dtype and loaded[name].shape == arr.shape
        np.testing.assert_array_equal(loaded[name], arr)


def test_truncation_at_every_offset_is_named(tmp_path):
    full = tmp_path / "full.bin"
    _small_container(full)
    data = full.read_bytes()
    cut = tmp_path / "cut.bin"
    for length in range(len(data)):
        cut.write_bytes(data[:length])
        with pytest.raises(TruncatedContainer) as info:
            load_arrays(cut)
        err = info.value
        assert err.path == str(cut) and str(cut) in str(err)
        assert 0 <= err.offset <= length, (length, err.offset)
        assert f"byte offset {err.offset}" in str(err)
