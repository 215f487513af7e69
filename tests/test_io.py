import numpy as np
import pytest

from tentspace.field import HalfSpaceField, SampledFunction, ScaleGrid, SpatialGrid
from tentspace.io import (
    from_json_obj,
    read_json,
    read_tsf1,
    to_json_obj,
    write_json,
    write_tsf1,
)
from tentspace.space import RandomSource, complex_gaussian_array, ell


def sample_function(space):
    grid = SpatialGrid(1, 16, 2.0)
    gen = RandomSource(1).generator()
    return SampledFunction(grid, space, complex_gaussian_array(gen, (16, space.dim)))


def sample_field():
    grid = SpatialGrid(2, 8)
    scales = ScaleGrid(0.01, 0.2, 3)
    gen = RandomSource(2).generator()
    vals = complex_gaussian_array(gen, (3, 8, 8, 2))
    return HalfSpaceField(grid, scales, ell(1, 2), vals)


@pytest.mark.parametrize("space", [ell(2, 3), ell(1, 2), ell("inf", 2)])
def test_tsf1_roundtrip_sampled_function(tmp_path, space):
    f = sample_function(space)
    p = tmp_path / "f.tsf1"
    write_tsf1(f, p)
    g = read_tsf1(p)
    assert isinstance(g, SampledFunction)
    assert g.grid == f.grid and g.space == f.space
    assert np.array_equal(g.values, f.values)


def test_tsf1_roundtrip_field(tmp_path):
    F = sample_field()
    p = tmp_path / "F.tsf1"
    write_tsf1(F, p)
    G = read_tsf1(p)
    assert isinstance(G, HalfSpaceField)
    assert G.grid == F.grid and G.scales == F.scales and G.space == F.space
    assert np.array_equal(G.values, F.values)


def test_tsf1_layout_is_spatial_major(tmp_path):
    F = sample_field()
    p = tmp_path / "F.tsf1"
    write_tsf1(F, p)
    raw = np.fromfile(p, dtype="<f8", offset=4 + 16 + 32)
    vals = raw[0::2] + 1j * raw[1::2]
    # first K*d entries belong to spatial cell (0, 0): scale-major inside
    first = vals[: 3 * 2].reshape(3, 2)
    assert np.array_equal(first, F.values[:, 0, 0, :])


def test_tsf1_rejects_bad_magic(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"NOPE" + b"\0" * 64)
    with pytest.raises(ValueError):
        read_tsf1(p)


def test_json_roundtrip(tmp_path):
    f = sample_function(ell("inf", 2))
    obj = to_json_obj(f)
    assert obj["q"] == "inf"
    g = from_json_obj(obj)
    assert np.array_equal(g.values, f.values)
    F = sample_field()
    p = tmp_path / "F.json"
    write_json(F, p)
    G = read_json(p)
    assert np.array_equal(G.values, F.values)
    assert G.scales == F.scales


def test_tsf1_rejects_non_finite_samples(tmp_path):
    F = sample_field()
    p = tmp_path / "F.tsf1"
    write_tsf1(F, p)
    raw = bytearray(p.read_bytes())
    offset = 4 + 16 + 32 + 16 * 5  # real part of the sixth sample
    raw[offset: offset + 8] = np.array([np.nan], dtype="<f8").tobytes()
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="finite"):
        read_tsf1(p)
