import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tentspace.field import (
    Ball,
    ScaleGrid,
    SpatialGrid,
    _components,
    ball_at,
    box_region,
    cone_region,
    dyadic_radii,
    torus_dist,
)


def test_torus_dist_basics():
    g = SpatialGrid(1, 16, 1.0)
    assert torus_dist(g, 0.0, 0.0) == 0.0
    assert torus_dist(g, 0.1, 0.9) == pytest.approx(0.2)
    g2 = SpatialGrid(2, 8, 2.0)
    assert torus_dist(g2, (0.1, 1.9), (0.1, 0.1)) == pytest.approx(0.2)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_torus_dist_triangle_inequality(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(1, 3))
    g = SpatialGrid(n, 8, float(gen.uniform(0.5, 3.0)))
    pts = gen.uniform(0, g.L, size=(3, n))
    if n == 1:
        pts = pts[:, 0]
    d = lambda a, b: float(torus_dist(g, a, b))
    assert d(pts[0], pts[2]) <= d(pts[0], pts[1]) + d(pts[1], pts[2]) + 1e-12
    assert d(pts[0], pts[1]) == pytest.approx(d(pts[1], pts[0]))


def test_grid_validation():
    with pytest.raises(ValueError):
        SpatialGrid(3, 8)
    with pytest.raises(ValueError):
        SpatialGrid(1, 12)
    with pytest.raises(ValueError):
        ScaleGrid(0.5, 0.1, 4)


@pytest.mark.parametrize("n", [1, 2])
def test_point_layout_against_meshgrid(n):
    # points are (N,) on the line and (N, N, 2) in the plane; _components
    # gives both layouts one trailing component axis
    grid = SpatialGrid(n, 8, 2.0)
    axes = {"coords": np.arange(8) * grid.spacing,
            "xi": 2.0 * math.pi * (np.fft.fftfreq(8) * 8) / grid.L}
    for name, axis in axes.items():
        got = getattr(grid, name)()
        if n == 1:
            want = axis
        else:
            xx, yy = np.meshgrid(axis, axis, indexing="ij")
            want = np.stack([xx, yy], axis=-1)
            assert np.array_equal(want[3, 5], [axis[3], axis[5]])
        assert got.shape == want.shape == grid.shape + (2,) * (n - 1)
        assert np.array_equal(got, want)
        comps = _components(got, n)
        assert comps.shape == grid.shape + (n,)
        assert np.array_equal(comps, want.reshape(grid.shape + (n,)))
        assert np.shares_memory(comps, got)
    batch = np.zeros((3, 5) + (n,) * (n - 1))
    assert _components(batch, n).shape == (3, 5, n)
    point = 0.5 if n == 1 else (0.5, 0.25)
    assert np.array_equal(_components(point, n), np.reshape(point, (n,)))


def test_scale_grid_nodes_log_uniform():
    s = ScaleGrid(0.01, 0.16, 5)
    t = s.nodes()
    ratios = t[1:] / t[:-1]
    assert np.allclose(ratios, ratios[0])
    assert t[0] == pytest.approx(0.01)
    assert t[-1] == pytest.approx(0.16)


def test_cone_region_empty_below_tmin():
    g = SpatialGrid(1, 32)
    s = ScaleGrid(0.01, 0.25, 8)
    r = cone_region(g, s, 0.0, alpha=1.0, h=0.005)
    assert r.size == 0
    assert r.measure() == 0.0


def test_cone_region_monotone_in_aperture_and_height():
    g = SpatialGrid(1, 64)
    s = ScaleGrid(0.01, 0.25, 16)
    base = cone_region(g, s, 0.25, alpha=0.5, h=0.1)
    wider = cone_region(g, s, 0.25, alpha=1.5, h=0.1)
    taller = cone_region(g, s, 0.25, alpha=0.5, h=0.2)
    base_set = set(zip(base.scale_idx, base.spatial_idx))
    assert base_set <= set(zip(wider.scale_idx, wider.spatial_idx))
    assert base_set <= set(zip(taller.scale_idx, taller.spatial_idx))
    assert base.measure() <= wider.measure()
    assert base.measure() <= taller.measure()


def test_cone_measure_matches_refined_quadrature():
    # dmu-measure of a unit-aperture cone, coarse vs 4x spatial resolution
    s = ScaleGrid(0.02, 0.25, 64)
    coarse = cone_region(SpatialGrid(1, 256), s, 0.0, alpha=1.0)
    fine = cone_region(SpatialGrid(1, 1024), s, 0.0, alpha=1.0)
    assert coarse.measure() == pytest.approx(fine.measure(), rel=0.01)
    # and the 1-D quadrature oracle: for n=1 each scale slab contributes
    # (number of points with dist < t) * dy / t, about 2*dlog per node
    t = s.nodes()
    oracle = sum(
        (2 * math.ceil(tk / (1.0 / 1024)) - 1) * (1.0 / 1024) * s.dlog / tk
        for tk in t
    )
    assert fine.measure() == pytest.approx(oracle, rel=1e-12)


def test_cone_mask_translates_exactly():
    g = SpatialGrid(1, 64)
    s = ScaleGrid(0.01, 0.25, 8)
    a = cone_region(g, s, g.spacing * 5, alpha=1.0)
    b = cone_region(g, s, g.spacing * 21, alpha=1.0)
    shifted = {((i + 16) % 64, k) for i, k in zip(a.spatial_idx, a.scale_idx)}
    assert shifted == set(zip(b.spatial_idx, b.scale_idx))


def test_box_region_empty_when_radius_below_tmin():
    g = SpatialGrid(1, 32)
    s = ScaleGrid(0.05, 0.25, 8)
    r = box_region(g, s, ball_at(g, 0.5, 0.04))
    assert r.size == 0


def test_box_region_weight_identity():
    # sum of weights == |B cap grid| * dy * #{t_k < r(B)} * dlog, exactly
    g = SpatialGrid(1, 64)
    s = ScaleGrid(0.01, 0.25, 16)
    b = ball_at(g, 0.25, 0.2)
    r = box_region(g, s, b)
    n_cells = int((g.point_distance(0.25) < b.radius).sum())
    n_scales = int((s.nodes() < b.radius).sum())
    assert r.measure() == pytest.approx(n_cells * g.spacing * n_scales * s.dlog, rel=1e-14)
    assert r.size == n_cells * n_scales


def test_box_region_covers_whole_torus_cap():
    g = SpatialGrid(1, 32)
    s = ScaleGrid(0.01, 0.3, 8)
    r = box_region(g, s, ball_at(g, 0.0, 0.25))
    # radius L/4 keeps only points with dist < 0.25: half the circle
    per_scale = np.bincount(r.scale_idx, minlength=s.K)
    expected_pts = int((g.offset_distance() < 0.25).sum())
    ks = s.nodes() < 0.25
    assert np.all(per_scale[ks] == expected_pts)


def test_box_log_measure_against_closed_form():
    # dmu-free box measure ~ |B| * log(r/t_min) for a fine scale grid
    g = SpatialGrid(1, 512)
    s = ScaleGrid(0.001, 0.25, 512)
    b = ball_at(g, 0.5, 0.2)
    r = box_region(g, s, b)
    n_cells = int((g.point_distance(0.5) < b.radius).sum())
    measured = r.measure() / (n_cells * g.spacing)
    assert measured == pytest.approx(math.log(b.radius / s.t_min), rel=0.01)


def test_ball_validation():
    g = SpatialGrid(1, 16, 1.0)
    with pytest.raises(ValueError):
        ball_at(g, 0.0, 0.3)
    with pytest.raises(ValueError):
        Ball((0.0,), -1.0)


def test_dyadic_radii():
    g = SpatialGrid(1, 64, 2.0)
    r = dyadic_radii(g)
    assert r[0] == pytest.approx(0.5)  # L/4
    assert r[-1] == pytest.approx(g.spacing)
    assert np.all(r[1:] < r[:-1])


def test_region_canonical_order_and_restrict():
    from tentspace.field import HalfSpaceField, Region
    from tentspace.space import ell

    g = SpatialGrid(1, 8)
    s = ScaleGrid(0.01, 0.25, 3)
    r = Region(g, s, np.array([5, 1, 3]), np.array([2, 0, 1]), np.array([1.0, 2.0, 3.0]))
    assert list(r.scale_idx) == [0, 1, 2]
    f = HalfSpaceField.zeros(g, s, ell(2, 2))
    f.values[0, 1, :] = [1.0, 2.0]
    vals = r.restrict(f)
    assert vals.shape == (3, 2)
    assert vals[0, 1] == 2.0
    # a tie in scale with the spatial indices out of order still sorts
    r = Region(g, s, np.array([1, 7, 3, 2]), np.array([0, 1, 1, 2]),
               np.array([1.0, 2.0, 3.0, 4.0]))
    assert list(r.spatial_idx) == [1, 3, 7, 2]
    assert list(r.weights) == [1.0, 3.0, 2.0, 4.0]


@pytest.mark.parametrize("n,N", [(1, 64), (2, 16)])
def test_mask_built_regions_are_already_canonical(n, N):
    # np.nonzero is row-major, so the constructor's sort has nothing to do
    g = SpatialGrid(n, N)
    s = ScaleGrid(2.0 * g.spacing, 0.25, 8)
    x = 0.3 if n == 1 else (0.3, 0.6)
    for r in (cone_region(g, s, x, 1.0, 0.2), box_region(g, s, ball_at(g, x, 0.2))):
        order = np.lexsort((r.spatial_idx, r.scale_idx))
        assert r.size > 0
        for got in (r.spatial_idx, r.scale_idx, r.weights):
            assert np.array_equal(got, got[order])


@pytest.mark.parametrize("n,N", [(1, 8), (2, 4)])
def test_region_rejects_atoms_outside_the_grid(n, N):
    from tentspace.field import Region

    g = SpatialGrid(n, N)
    s = ScaleGrid(0.01, 0.25, 3)
    one = np.array([1.0])
    Region(g, s, np.array([0, g.size - 1]), np.array([0, s.K - 1]), np.ones(2))
    for spatial, scale, bad in [(-1, 0, "spatial index -1"),
                                (g.size, 0, f"spatial index {g.size}"),
                                (0, -1, "scale index -1"),
                                (0, s.K, f"scale index {s.K}")]:
        with pytest.raises(ValueError, match=bad):
            Region(g, s, np.array([spatial]), np.array([scale]), one)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_sampled_function_and_field_reject_non_finite(bad):
    from tentspace.field import HalfSpaceField, SampledFunction
    from tentspace.space import ell

    g = SpatialGrid(1, 8)
    s = ScaleGrid(0.01, 0.25, 3)
    vals = np.zeros((8, 2), dtype=complex)
    vals[3, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        SampledFunction(g, ell(1, 2), vals)
    fvals = np.zeros((3, 8, 2), dtype=complex)
    fvals[2, 5, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        HalfSpaceField(g, s, ell(1, 2), fvals)


def _nonzero_atoms(grid, scales, mask, w_per_scale):
    k_idx, flat_idx = np.nonzero(mask.reshape(scales.K, grid.size))
    return flat_idx, k_idx, w_per_scale[k_idx]


@pytest.mark.parametrize("n, N", [(1, 64), (2, 16)])
def test_regions_match_the_nonzero_build_with_wrapping_centres(n, N):
    grid = SpatialGrid(n, N)
    scales = ScaleGrid(0.5 * grid.spacing, 0.25, 8)
    t, dy, L = scales.nodes(), grid.spacing, grid.L
    table = grid.offset_distance()
    centres = [0.0, L - dy, -dy, L + 2 * dy, 5 * dy]
    if n == 2:
        centres = [(0.0, L - dy), (-dy, L + 2 * dy), (L - dy, 3 * dy)]
    for x in centres:
        idx = np.round(np.atleast_1d(x) / dy).astype(int)
        if n == 1:
            want = table[(np.arange(N) - idx[0]) % N]
        else:
            want = table[(np.arange(N)[:, None] - idx[0]) % N,
                         (np.arange(N)[None, :] - idx[1]) % N]
        dist = grid.point_distance(x)
        assert np.array_equal(dist, want)
        flat = dist.reshape(-1)
        cone = cone_region(grid, scales, x, 1.0, 0.2)
        cone_mask = (flat[None, :] < t[:, None]) & (t < 0.2)[:, None]
        box = box_region(grid, scales, ball_at(grid, x, 0.1))
        box_mask = (flat[None, :] < 0.1) & (t < 0.1)[:, None]
        for region, mask, w in (
            (cone, cone_mask, grid.cell_volume * scales.dlog * t ** (-n)),
            (box, box_mask, np.full(scales.K, grid.cell_volume * scales.dlog)),
        ):
            assert region.size > 0
            for got, ref in zip((region.spatial_idx, region.scale_idx, region.weights),
                                _nonzero_atoms(grid, scales, mask, w)):
                assert np.array_equal(got, ref)


@pytest.mark.parametrize("n", [1, 2])
def test_point_distance_on_grid_tolerance_is_1e12_L(n):
    grid = SpatialGrid(n, 16, 2.0)
    table = grid.offset_distance()
    assert table is grid.offset_distance() and not table.flags.writeable
    tol = 1e-12 * grid.L
    for off, on_grid in ((tol, True), (-tol, True), (np.nextafter(tol, 1.0), False)):
        x = off if n == 1 else (off, 0.0)
        dist = grid.point_distance(x)
        assert np.array_equal(dist, table) is on_grid
        if not on_grid:
            diff = np.abs(grid.coords() - np.asarray(x)) % grid.L
            diff = np.minimum(diff, grid.L - diff)
            want = diff if n == 1 else np.sqrt((diff * diff).sum(axis=-1))
            assert np.array_equal(dist, want)


def _two_index_gather(region, field):
    """The per-(scale, spatial) gather that the flat atom index replaced."""
    flat = field.values.reshape(field.scales.K, field.grid.size, field.space.dim)
    return flat[region.scale_idx, region.spatial_idx, :]


@pytest.mark.parametrize("n, N", [(1, 64), (2, 16)])
@pytest.mark.parametrize("d", [1, 3, 8])
def test_restrict_through_atoms_matches_two_index_gather(n, N, d):
    from tentspace.field import HalfSpaceField, Region
    from tentspace.space import RandomSource, complex_gaussian_array, ell

    grid = SpatialGrid(n, N)
    scales = ScaleGrid(0.5 * grid.spacing, 0.25, 8)
    shape = (scales.K,) + grid.shape + (d,)
    field = HalfSpaceField(grid, scales, ell(1, d),
                           complex_gaussian_array(RandomSource(d).generator(), shape))
    dy, L = grid.spacing, grid.L
    # wrapping on-grid centres, then an off-grid one (the torus_dist path)
    centres = [0.0, L - dy, -dy, L + 2 * dy, 0.3 + 0.37 * dy]
    if n == 2:
        centres = [(0.0, L - dy), (-dy, L + 2 * dy), (0.3 + 0.37 * dy, 0.6)]
    regions = [cone_region(grid, scales, 0.3, 1.0, 0.5 * scales.t_min)]  # empty
    for x in centres:
        regions += [cone_region(grid, scales, x, 1.0, 0.2),
                    box_region(grid, scales, ball_at(grid, x, 0.2))]
    gen = np.random.default_rng(n * 10 + d)
    flat = gen.choice(scales.K * grid.size, size=40, replace=False)  # unsorted
    regions.append(Region(grid, scales, flat % grid.size, flat // grid.size,
                          gen.uniform(0.5, 2.0, size=40)))
    assert regions[0].size == 0 and all(r.size for r in regions[1:])
    for r in regions:
        assert r.atoms.dtype == r.scale_idx.dtype == r.spatial_idx.dtype == np.int64
        assert np.array_equal(r.atoms, r.scale_idx * grid.size + r.spatial_idx)
        got, want = r.restrict(field), _two_index_gather(r, field)
        assert got.shape == want.shape == (r.size, d)
        assert np.array_equal(got, want)


def test_restrict_rejects_a_field_on_another_grid_or_scales():
    from tentspace.field import HalfSpaceField
    from tentspace.space import ell

    grid, scales = SpatialGrid(1, 64), ScaleGrid(0.01, 0.25, 12)
    cone = cone_region(grid, scales, 0.3, 1.0, 0.2)
    other_grid = SpatialGrid(1, 128)
    with pytest.raises(ValueError, match=r"grid.*N=128.*region grid.*N=64"):
        cone.restrict(HalfSpaceField.zeros(other_grid, scales, ell(2, 2)))
    with pytest.raises(ValueError, match=r"scales.*K=20.*region scales.*K=12"):
        cone.restrict(HalfSpaceField.zeros(grid, ScaleGrid(0.01, 0.25, 20), ell(2, 2)))


def test_region_from_mask_checks_mask_shape_and_per_scale_weights():
    from tentspace.field import _region_from_mask

    grid, scales = SpatialGrid(2, 8), ScaleGrid(0.05, 0.25, 4)
    mask = np.zeros((scales.K,) + grid.shape, dtype=bool)
    mask[1, 2, 3] = mask[3, 0, 0] = True
    w = np.array([1.0, 2.0, 3.0, 4.0])
    r = _region_from_mask(grid, scales, mask, w)
    assert list(r.atoms) == [1 * 64 + 2 * 8 + 3, 3 * 64]
    assert list(r.scale_idx) == [1, 3] and list(r.spatial_idx) == [19, 0]
    assert list(r.weights) == [2.0, 4.0]
    for bad_mask in (mask.reshape(scales.K, -1), mask[:3], mask[..., :4]):
        with pytest.raises(ValueError, match="mask shape"):
            _region_from_mask(grid, scales, bad_mask, w)
    # a bad weight is rejected even at a scale with no atoms
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="per-scale weights"):
            _region_from_mask(grid, scales, mask, np.array([1.0, 2.0, bad, 4.0]))
    with pytest.raises(ValueError, match="per-scale weights"):
        _region_from_mask(grid, scales, mask, w[:3])


@pytest.mark.parametrize("n, N", [(1, 64), (2, 16)])
def test_scale_tables_are_cached_read_only_and_exact(n, N):
    from tentspace.field import cone_weights

    grid = SpatialGrid(n, N)
    scales = ScaleGrid(2.0 * grid.spacing, 0.25, 12)
    t = scales.nodes()
    assert t is scales.nodes() and t is ScaleGrid(2.0 * grid.spacing, 0.25, 12).nodes()
    assert np.array_equal(t, scales.t_min * np.exp(scales.dlog * np.arange(scales.K)))
    w = cone_weights(grid, scales)
    assert w is cone_weights(grid, scales)
    assert np.array_equal(w, grid.cell_volume * scales.dlog * t ** (-n))
    for table in (t, w):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            table *= 2.0


@pytest.mark.parametrize("n", [1, 2])
def test_point_distance_snaps_grid_points_beyond_int64(n):
    # 1e300 is a multiple of the period 2, so it is the grid point 0; its
    # index overflows int64, which once sent it to torus_dist (all zeros)
    import warnings

    grid = SpatialGrid(n, 8, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (1e300, -1e300):
            dist = grid.point_distance(x if n == 1 else (x, 0.0))
            assert np.array_equal(dist, grid.offset_distance())
