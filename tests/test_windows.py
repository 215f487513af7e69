import numpy as np
import pytest

from tentspace._windows import (
    ball_segments,
    per_scale_window_max,
    per_scale_window_sum,
    window_count,
    window_max,
    window_sum,
)
from tentspace.field import SpatialGrid


def brute_window_sum(grid, arr, radius):
    """Oracle: explicit mask over grid offsets per target point."""
    dist = grid.offset_distance()
    out = np.zeros_like(arr)
    if grid.n == 1:
        offs = np.nonzero(dist < radius)[0]
        for x in range(grid.N):
            out[..., x] = arr[..., (x + offs) % grid.N].sum(axis=-1)
        return out
    oi, oj = np.nonzero(dist < radius)
    for x in range(grid.N):
        for y in range(grid.N):
            out[..., x, y] = arr[..., (x + oi) % grid.N, (y + oj) % grid.N].sum(axis=-1)
    return out


def brute_window_max(grid, arr, radius):
    dist = grid.offset_distance()
    out = np.zeros_like(arr)
    if grid.n == 1:
        offs = np.nonzero(dist < radius)[0]
        for x in range(grid.N):
            out[..., x] = arr[..., (x + offs) % grid.N].max(axis=-1)
        return out
    oi, oj = np.nonzero(dist < radius)
    for x in range(grid.N):
        for y in range(grid.N):
            out[..., x, y] = arr[..., (x + oi) % grid.N, (y + oj) % grid.N].max(axis=-1)
    return out


@pytest.mark.parametrize("radius", [0.01, 0.13, 0.26, 0.49, 0.76])
def test_window_sum_1d_matches_oracle(radius):
    g = SpatialGrid(1, 32)
    gen = np.random.default_rng(1)
    arr = gen.normal(size=(3, 32))
    got = window_sum(g, arr, radius)
    want = brute_window_sum(g, arr, radius)
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("radius", [0.05, 0.2, 0.45, 0.6, 0.8])
def test_window_sum_2d_matches_oracle(radius):
    g = SpatialGrid(2, 16)
    gen = np.random.default_rng(2)
    arr = gen.normal(size=(16, 16))
    got = window_sum(g, arr, radius)
    want = brute_window_sum(g, arr, radius)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_window_sum_complex():
    g = SpatialGrid(1, 16)
    gen = np.random.default_rng(3)
    arr = gen.normal(size=16) + 1j * gen.normal(size=16)
    got = window_sum(g, arr, 0.2)
    want = brute_window_sum(g, arr, 0.2)
    assert np.allclose(got, want)


@pytest.mark.parametrize("n,N", [(1, 64), (2, 16)])
def test_window_max_matches_oracle(n, N):
    g = SpatialGrid(n, N)
    gen = np.random.default_rng(4)
    arr = gen.normal(size=g.shape)
    for radius in [0.03, 0.11, 0.3, 0.55, 0.6, 0.8]:
        got = window_max(g, arr, radius)
        want = brute_window_max(g, arr, radius)
        assert np.array_equal(got, want), radius


def test_per_scale_window_sum_and_max():
    gen = np.random.default_rng(5)
    cases = [
        (SpatialGrid(1, 32), np.array([0.02, 0.1, 0.24, 0.5])),
        # unsorted radii; 0.7 covers whole rows
        (SpatialGrid(2, 16), np.array([0.24, 0.02, 0.7, 0.1])),
    ]
    for g, radii in cases:
        arr = gen.normal(size=(4, 2) + g.shape)  # (K, extra, *spatial)
        got = per_scale_window_sum(g, arr, radii)
        gotm = per_scale_window_max(g, arr, radii)
        for k, r in enumerate(radii):
            assert np.allclose(got[k], brute_window_sum(g, arr[k], r))
            assert np.array_equal(gotm[k], brute_window_max(g, arr[k], r))
        with pytest.raises(ValueError, match="positive"):
            per_scale_window_sum(g, arr, np.array([0.1, 0.0, 0.2, 0.3]))


@pytest.mark.parametrize("n,N", [(1, 64), (2, 32)])
def test_window_sum_monotone_in_radius_for_nonnegative(n, N):
    # exact monotonicity: cumulative prefixes of nonnegative entries, rows
    # added centre-out; a one-column input gives exact zeros off its support
    g = SpatialGrid(n, N)
    gen = np.random.default_rng(6)
    dense = gen.uniform(size=g.shape)
    column = np.zeros(g.shape)
    column[..., 5] = gen.uniform(size=g.shape[:-1])
    for arr in (dense, column):
        prev = None
        for radius in np.linspace(0.01, 0.49, 25):
            cur = window_sum(g, arr, radius)
            assert np.all(cur >= 0)
            support = brute_window_sum(g, (arr > 0).astype(float), radius) > 0
            assert np.all(cur[~support] == 0.0)
            if prev is not None:
                assert np.all(cur >= prev)
            prev = cur


def test_window_count_and_halfwidth():
    g = SpatialGrid(1, 16)
    _, h, full = ball_segments(g, 3.5 * g.spacing)
    assert h[0, 0] == 3 and not full[0, 0]
    assert window_count(g, 3.5 * g.spacing) == 7
    assert window_count(g, 10.0) == 16  # window covers the torus
    g2 = SpatialGrid(2, 8)
    assert window_count(g2, g2.spacing * 1.001) == 5  # center + 4 axis neighbours
    g3 = SpatialGrid(2, 16)
    radii = np.linspace(0.01, 0.8, 40)
    for r in radii:
        assert window_count(g3, r) == (g3.offset_distance() < r).sum(), r
    assert window_count(g3, radii).tolist() == [window_count(g3, r) for r in radii]
