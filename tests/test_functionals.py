import math

import numpy as np
import pytest

from tentspace import functionals
from tentspace.field import (
    HalfSpaceField,
    SampledFunction,
    ScaleGrid,
    SpatialGrid,
    ball_at,
    box_region,
    cone_region,
    dyadic_radii,
)
from tentspace.functionals import (
    FunctionalProfile,
    a_fun,
    a_fun_cuts,
    bmo_norm,
    c2_box_profile,
    c_fun,
    maximal_fn,
    n_fun,
)
from tentspace._windows import window_count, window_max, window_sum
from tentspace.gaussnorm import gauss_norm
from tentspace.space import RandomSource, complex_gaussian_array, ell, norm

GRID = SpatialGrid(1, 128)
SCALES = ScaleGrid(0.006, 0.25, 12)


def random_field(space, seed, grid=GRID, scales=SCALES):
    gen = RandomSource(seed).generator()
    vals = complex_gaussian_array(gen, (scales.K,) + grid.shape + (space.dim,))
    return HalfSpaceField(grid, scales, space, vals)


def random_scalar_fn(seed, grid=GRID):
    gen = RandomSource(seed).generator()
    vals = complex_gaussian_array(gen, grid.shape + (1,))
    return SampledFunction(grid, ell(2, 1), vals)


def test_a_fun_zero_field():
    for space in (ell(2, 2), ell(1, 3)):
        prof = a_fun(HalfSpaceField.zeros(GRID, SCALES, space), 1.0)
        assert prof.stderr is None and prof.max() == 0.0


def test_a_fun_matches_region_oracle():
    for f in (random_field(ell(2, 1), 1), random_field(ell(1, 3), 22)):
        for alpha, h in [(1.0, None), (0.7, 0.1), (2.0, 0.05)]:
            prof = a_fun(f, alpha, h)
            assert prof.stderr is None
            for i in [0, 17, 63, 100]:
                region = cone_region(GRID, SCALES, GRID.spacing * i, alpha, h)
                oracle = gauss_norm(f, region).value
                assert prof.values[i] == pytest.approx(oracle, rel=1e-12, abs=1e-14)


def test_a_fun_matches_region_oracle_2d():
    grid = SpatialGrid(2, 16)
    scales = ScaleGrid(0.02, 0.25, 6)
    f = random_field(ell(2, 2), 2, grid, scales)
    prof = a_fun(f, 1.0, 0.2)
    for ij in [(0, 0), (3, 11), (8, 8)]:
        x = (grid.spacing * ij[0], grid.spacing * ij[1])
        oracle = gauss_norm(f, cone_region(grid, scales, x, 1.0, 0.2)).value
        assert prof.values[ij] == pytest.approx(oracle, rel=1e-10, abs=1e-14)


def test_a_fun_monotone_in_aperture_and_height():
    f = random_field(ell(2, 3), 3)
    small = a_fun(f, 0.5).values
    big = a_fun(f, 1.5).values
    assert np.all(small <= big + 1e-12)
    lo, hi = a_fun_cuts(f, 1.0, [0.05, 0.2])
    assert np.all(lo.values <= hi.values)  # shared prefix sums: exact


def test_a_fun_translation_equivariance():
    f = random_field(ell(2, 2), 4)
    prof = a_fun(f, 1.0)
    prof_shift = a_fun(f.shifted(21), 1.0)
    assert np.allclose(prof_shift.values, np.roll(prof.values, 21), atol=1e-10)


@pytest.mark.parametrize("n,N,K", [(1, 128, 16), (2, 32, 8)])
def test_a_fun_exact_l1_heights_monotone(n, N, K):
    # the closed form is monotone in the covariance, and each height's
    # covariance adds a band to the one below it
    grid = SpatialGrid(n, N)
    scales = ScaleGrid(2.0 * grid.spacing, 0.25, K)
    f = random_field(ell(1, 3), 20, grid, scales)
    heights = sorted(dyadic_radii(grid)) + [None]
    cuts = a_fun_cuts(f, 1.0, heights)
    assert all(p.stderr is None for p in cuts)
    for lo, hi in zip(cuts, cuts[1:]):
        assert np.all(lo.values <= hi.values * (1.0 + 1e-12))


@pytest.mark.parametrize("n,N,K", [(1, 128, 16), (2, 32, 8)])
def test_a_fun_exact_l1_translation_equivariance(n, N, K):
    grid = SpatialGrid(n, N)
    scales = ScaleGrid(2.0 * grid.spacing, 0.25, K)
    f = random_field(ell(1, 3), 21, grid, scales)
    heights = list(dyadic_radii(grid)) + [None]
    shift = N // 3
    base, moved = (a_fun_cuts(g, 1.0, heights) for g in (f, f.shifted(shift)))
    axes = tuple(range(n))
    for p, m in zip(base, moved):
        np.testing.assert_allclose(m.values, np.roll(p.values, shift, axis=axes),
                                   rtol=1e-12, atol=0)


def test_a_fun_mc_agrees_with_exact():
    f = random_field(ell(2, 3), 5)
    exact = a_fun(f, 1.0)
    mc = a_fun(f, 1.0, trials=800, rng=RandomSource(6), force_mc=True)
    assert mc.stderr is not None
    z = np.abs(mc.values - exact.values) / np.maximum(mc.stderr, 1e-15)
    assert np.mean(z <= 3.0) > 0.95
    assert np.allclose(mc.values, exact.values, rtol=0.12)


@pytest.mark.parametrize("q", [1.0, "inf"])
@pytest.mark.parametrize("n,N,K", [(1, 128, 16), (2, 32, 8)])
def test_a_fun_mc_translation_equivariance(n, N, K, q):
    # the band draws are shared by every point and the covariance roots
    # move with the field, so a shift moves the Monte Carlo profiles too
    grid = SpatialGrid(n, N)
    scales = ScaleGrid(2.0 * grid.spacing, 0.25, K)
    f = random_field(ell(q, 3), 16, grid, scales)
    heights = list(dyadic_radii(grid)) + [None]
    shift = N // 3
    base, moved = (a_fun_cuts(g, 1.0, heights, trials=64, rng=RandomSource(17),
                              force_mc=True) for g in (f, f.shifted(shift)))
    axes = tuple(range(n))
    for p, m in zip(base, moved):
        np.testing.assert_allclose(m.values, np.roll(p.values, shift, axis=axes),
                                   rtol=1e-10, atol=0)
        np.testing.assert_allclose(m.stderr, np.roll(p.stderr, shift, axis=axes),
                                   rtol=1e-10, atol=0)


@pytest.mark.parametrize("block", [1, 7 * 64 * 3])
def test_a_fun_mc_point_blocks_change_no_output(monkeypatch, block):
    f = random_field(ell(4.0, 3), 18)
    heights = list(dyadic_radii(GRID))
    before = a_fun_cuts(f, 1.0, heights, trials=64, rng=RandomSource(19), force_mc=True)
    monkeypatch.setattr(functionals, "_SWEEP_BLOCK_ELEMS", block)
    after = a_fun_cuts(f, 1.0, heights, trials=64, rng=RandomSource(19), force_mc=True)
    for p, m in zip(before, after):
        assert np.array_equal(p.values, m.values)
        assert np.array_equal(p.stderr, m.stderr)


@pytest.mark.parametrize("trials", [0, 1])
def test_mc_sweep_rejects_fewer_than_two_trials(trials):
    f = random_field(ell(1, 3), 15)
    with pytest.raises(ValueError, match="at least two trials"):
        a_fun(f, 1.0, trials=trials, force_mc=True)
    with pytest.raises(ValueError, match="at least two trials"):
        c_fun(f, 1.0, trials=trials, force_mc=True)


def test_a_fun_reports_effective_height():
    f = random_field(ell(2, 1), 7)
    assert a_fun(f, 1.0).params["h"] == SCALES.t_max
    assert a_fun(f, 1.0, 0.1).params["h"] == 0.1


def test_c_fun_zero_and_monotone_in_q():
    zero = HalfSpaceField.zeros(GRID, SCALES, ell(2, 1))
    assert c_fun(zero, 1.0).max() == 0.0
    qs = [0.5, 1.0, 2.0, 4.0]
    for seed in range(5):
        f = random_field(ell(2, 1), 100 + seed)
        profs = [c_fun(f, q).values for q in qs]
        for lo, hi in zip(profs, profs[1:]):
            assert np.all(lo <= hi + 1e-12)


def _c_fun_stderr_by_loops(profiles, radii, q, combine):
    """C_q stderr with every window an explicit offset loop.

    combine(terms) turns the (offsets, N) per-point errors of one ball
    into the error of its q-mean.
    """
    grid = profiles[0].grid
    best = np.zeros(grid.N)
    best_err = np.zeros(grid.N)
    for r, prof in zip(radii, profiles):
        offs = np.nonzero(grid.offset_distance() < r)[0]
        a, s = prof.values, prof.stderr
        term = np.zeros_like(a)
        term[a > 0] = q * a[a > 0] ** (q - 1.0) * s[a > 0]
        mean_q = np.mean([np.roll(a ** q, -o) for o in offs], axis=0)
        err_mean = combine(np.array([np.roll(term, -o) for o in offs]))
        cand = np.max([np.roll(mean_q, -o) for o in offs], axis=0)
        cand_err = np.max([np.roll(err_mean, -o) for o in offs], axis=0)
        best_err = np.where(cand > best, cand_err, best_err)
        best = np.maximum(best, cand)
    values = best ** (1.0 / q)
    return np.where(values > 0, best_err / q * best ** (1.0 / q - 1.0), 0.0)


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
def test_c_fun_mc_stderr_is_the_correlation_free_bound(q):
    # cones of neighbouring points share atoms and draws, so the error of
    # a ball mean is bounded by the mean of the pointwise errors
    grid, scales = SpatialGrid(1, 64), ScaleGrid(0.02, 0.25, 8)
    f = random_field(ell(1, 2), 9, grid, scales)
    radii = dyadic_radii(grid)
    cuts = a_fun_cuts(f, 1.0, list(radii), trials=64, rng=RandomSource(3),
                      force_mc=True)
    got = c_fun(f, q, radii=radii, a_profiles=cuts)
    bound = _c_fun_stderr_by_loops(cuts, radii, q,
                                   lambda t: np.abs(t).sum(axis=0) / t.shape[0])
    old = _c_fun_stderr_by_loops(
        cuts, radii, q, lambda t: np.sqrt((t * t).sum(axis=0)) / t.shape[0])
    np.testing.assert_allclose(got.stderr, bound, rtol=1e-12, atol=1e-15)
    assert np.all(got.stderr >= old * (1.0 - 1e-12))
    assert np.any(got.stderr > 1.5 * old)
    assert c_fun(random_field(ell(2, 1), 9, grid, scales), q).stderr is None


def test_c_fun_rejects_an_empty_radius_list():
    f = random_field(ell(2, 1), 16)
    with pytest.raises(ValueError, match="at least one radius"):
        c_fun(f, 1.0, radii=np.array([]))
    with pytest.raises(ValueError, match="at least one radius"):
        c_fun(f, 1.0, radii=[], a_profiles=[])
    with pytest.raises(ValueError, match="must match the radius list"):
        c_fun(f, 1.0, a_profiles=[])


def _c_fun_per_radius(profiles, radii, q):
    """C_q (values, stderr) with one window_sum and window_max per radius."""
    grid = profiles[0].grid
    best = np.zeros(grid.shape)
    best_err = np.zeros(grid.shape)
    mc = profiles[0].stderr is not None
    for r, prof in zip(radii, profiles):
        count = window_count(grid, r)
        mean_q = window_sum(grid, prof.values ** q, r) / count
        cand = window_max(grid, mean_q, r)
        if mc:
            a, s = prof.values, prof.stderr
            pos = a > 0
            term = np.zeros_like(a)
            term[pos] = q * a[pos] ** (q - 1.0) * s[pos]
            err_mean = window_sum(grid, np.abs(term), r) / count
            cand_err = window_max(grid, err_mean, r)
            best_err = np.where(cand > best, cand_err, best_err)
        best = np.maximum(best, cand)
    values = best ** (1.0 / q)
    if not mc:
        return values, None
    return values, np.where(values > 0, best_err / q * best ** (1.0 / q - 1.0), 0.0)


@pytest.mark.parametrize("n, N, K", [(1, 128, 12), (2, 16, 8)])
@pytest.mark.parametrize("space, force_mc", [(ell(2, 2), False), (ell(1, 3), True),
                                             (ell("inf", 3), True)])
def test_c_fun_batched_windows_match_per_radius_loop(n, N, K, space, force_mc):
    grid = SpatialGrid(n, N)
    scales = ScaleGrid(2.0 * grid.spacing, 0.25, K)
    radii = dyadic_radii(grid)
    f = random_field(space, 17, grid, scales)
    for alpha in (1.0, 2.0):
        cuts = a_fun_cuts(f, alpha, list(radii), trials=32, rng=RandomSource(4),
                          force_mc=force_mc)
        for q in (0.5, 1.0, 3.0):
            got = c_fun(f, q, alpha, radii=radii, a_profiles=cuts)
            values, stderr = _c_fun_per_radius(cuts, radii, q)
            assert np.array_equal(got.values, values)
            assert (got.stderr is None) == (stderr is None)
            if stderr is not None:
                assert np.array_equal(got.stderr, stderr)


@pytest.mark.parametrize("n, N", [(1, 64), (2, 16)])
def test_c_fun_stderr_comes_from_the_first_radius_attaining_the_sup(n, N):
    # constant profiles tie every radius exactly; stderr differs by radius
    grid = SpatialGrid(n, N)
    radii = dyadic_radii(grid)
    f = HalfSpaceField.zeros(grid, ScaleGrid(0.01, 0.25, 4), ell(1, 2))
    ones = np.ones(grid.shape)
    cuts = [FunctionalProfile("A", grid, ones, stderr=(k + 1) * 0.125 * ones)
            for k in range(radii.size)]
    got = c_fun(f, 1.0, radii=radii, a_profiles=cuts)
    values, stderr = _c_fun_per_radius(cuts, radii, 1.0)
    assert np.array_equal(got.values, values) and np.all(values == 1.0)
    assert np.array_equal(got.stderr, stderr) and np.all(stderr == 0.125)


@pytest.mark.parametrize("n, N", [(1, 32), (2, 16)])
@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_c_fun_matches_explicit_ball_oracle(n, N, alpha):
    # A from explicit cone regions at every point, C_q from explicit loops
    # over every dyadic ball and its centre
    # l^1_3 takes A from each explicit cone's exact region Gauss norm
    grid = SpatialGrid(n, N)
    scales = ScaleGrid(2.0 * grid.spacing, 0.25, 8)
    radii = dyadic_radii(grid)
    points = [grid.coords()[idx] for idx in np.ndindex(grid.shape)]
    for space in (ell(2, 2), ell(1, 3)):
        f = random_field(space, 31, grid, scales)
        sq = (np.abs(f.values) ** 2).sum(axis=-1).reshape(scales.K, -1)
        a = np.empty((radii.size, grid.size))
        for k, r in enumerate(radii):
            for i, x in enumerate(points):
                cone = cone_region(grid, scales, x, alpha, r)
                if space.is_hilbert:
                    a[k, i] = math.sqrt(
                        (cone.weights * sq[cone.scale_idx, cone.spatial_idx]).sum())
                else:
                    a[k, i] = gauss_norm(f, cone).value
        for q in (1.0, 2.0):
            best = np.zeros(grid.size)
            for k, r in enumerate(radii):
                for c in points:
                    ball = ball_at(grid, c, r)
                    members = (grid.point_distance(ball.center) < ball.radius).reshape(-1)
                    mean = (a[k, members] ** q).mean()
                    best[members] = np.maximum(best[members], mean)
            got = c_fun(f, q, alpha)
            assert got.stderr is None
            np.testing.assert_allclose(got.values.reshape(-1), best ** (1.0 / q),
                                       rtol=1e-12, atol=0)


def test_c_fun_dominated_by_maximal_of_a_power():
    f = random_field(ell(2, 1), 8)
    q = 1.0
    c = c_fun(f, q).values
    a_full = a_fun(f, 1.0).values
    m = maximal_fn(SampledFunction(GRID, ell(2, 1), (a_full ** q)[..., None])).values
    assert np.all(c <= m ** (1.0 / q) + 1e-12)


def test_c_fun_c2_box_cross_check_band():
    ratios = []
    for seed in range(20):
        f = random_field(ell(2, 1), 200 + seed)
        scalar = HalfSpaceField(GRID, SCALES, ell(2, 1), f.values)
        c2 = c_fun(scalar, 2.0).values
        box = c2_box_profile(scalar).values
        mask = box > 1e-12
        ratios.append((c2[mask] ** 2) / (box[mask] ** 2))
    allr = np.concatenate(ratios)
    # fixed-constant equivalence band, logged; geometry keeps it O(1)
    assert allr.min() > 0.05 and allr.max() < 20.0


def _maximal_per_radius(g):
    """maximal_fn with one window_sum and window_max per dyadic radius."""
    grid, mods = g.grid, np.abs(g.values[..., 0])
    best = np.zeros(grid.shape)
    for r in dyadic_radii(grid):
        means = window_sum(grid, mods, r) / window_count(grid, r)
        best = np.maximum(best, window_max(grid, means, r))
    return best


def _c2_box_per_radius(field):
    """c2_box_profile with one window_sum and window_max per dyadic radius."""
    grid, scales = field.grid, field.scales
    sq = np.abs(field.values[..., 0]) ** 2
    best = np.zeros(grid.shape)
    for r in dyadic_radii(grid):
        m = int(np.count_nonzero(scales.nodes() < r))
        if m:
            inner = sq[:m].sum(axis=0) * scales.dlog
            means = window_sum(grid, inner, r) / window_count(grid, r)
            best = np.maximum(best, window_max(grid, means, r))
    return np.sqrt(best)


@pytest.mark.parametrize("n, N, K", [(1, 128, 12), (2, 16, 8)])
def test_maximal_and_box_match_per_radius_loop_and_ball_oracle(n, N, K):
    # t_min = 2 dy: the smallest radius has no scale node below it
    grid = SpatialGrid(n, N)
    scales = ScaleGrid(2.0 * grid.spacing, 0.25, K)
    f = random_field(ell(2, 1), 41, grid, scales)
    g = SampledFunction(grid, ell(2, 1), f.values[-1])
    m = maximal_fn(g).values
    box = c2_box_profile(f).values
    assert np.array_equal(m, _maximal_per_radius(g))
    assert np.array_equal(box, _c2_box_per_radius(f))
    # explicit balls: every dyadic ball's mean spread over its members
    mods = np.abs(g.values[..., 0]).reshape(-1)
    sq = (np.abs(f.values[..., 0]) ** 2).reshape(scales.K, -1)
    best_m, best_box = np.zeros(grid.size), np.zeros(grid.size)
    for r in dyadic_radii(grid):
        for idx in np.ndindex(grid.shape):
            ball = ball_at(grid, grid.coords()[idx], r)
            members = (grid.point_distance(ball.center) < r).reshape(-1)
            cyl = box_region(grid, scales, ball)
            mean_sq = ((cyl.weights * sq[cyl.scale_idx, cyl.spatial_idx]).sum()
                       / (members.sum() * grid.cell_volume))
            best_m[members] = np.maximum(best_m[members], mods[members].mean())
            best_box[members] = np.maximum(best_box[members], mean_sq)
    np.testing.assert_allclose(m.reshape(-1), best_m, rtol=1e-12, atol=0)
    np.testing.assert_allclose(box.reshape(-1), np.sqrt(best_box), rtol=1e-12, atol=0)


def test_n_fun_constant_and_indicator():
    c = 2.0 - 1.5j
    vals = np.full((SCALES.K,) + GRID.shape + (1,), c)
    g = HalfSpaceField(GRID, SCALES, ell(2, 1), vals)
    prof = n_fun(g, 1.0)
    assert np.allclose(prof.values, abs(c))

    ind = HalfSpaceField.zeros(GRID, SCALES, ell(2, 1))
    k0, i0 = 5, 40
    ind.values[k0, i0, 0] = 1.0
    prof = n_fun(ind, 1.0)
    t0 = SCALES.nodes()[k0]
    dist = GRID.point_distance(GRID.spacing * i0)
    assert np.array_equal(prof.values, (dist < t0).astype(float))


def test_n_fun_vector_field_equals_n_fun_of_norms():
    # N(F)(x) is the sup over the cone of ||F(y, t)||_X: the field of
    # pointwise norms, as a scalar field, has the same profile bit for bit
    for grid in (GRID, SpatialGrid(2, 32)):
        scales = ScaleGrid(2.0 * grid.spacing, 0.25, 8)
        for q in (1.0, 2.0, 4.0, "inf"):
            F = random_field(ell(q, 3), 9, grid=grid, scales=scales)
            norms = norm(F.space, F.values)
            scalar = HalfSpaceField(grid, scales, ell(2, 1), norms[..., None].astype(complex))
            flat = norms.reshape(scales.K, grid.size)
            for alpha in (0.5, 2.0):
                got = n_fun(F, alpha).values
                assert np.array_equal(got, n_fun(scalar, alpha).values), (grid, q)
                # and each value is the largest norm among its cone's atoms
                for i in (0, grid.size // 3):
                    x = grid.coords().reshape(grid.size, -1)[i]
                    cone = cone_region(grid, scales, x, alpha)
                    want = flat[cone.scale_idx, cone.spatial_idx].max()
                    assert got.reshape(-1)[i] == want, (grid, q, alpha, i)


def test_n_fun_lower_semicontinuity_under_refinement():
    # trig-synthesized scalar field: bit-identical at shared points
    def synth(grid, scales):
        gen = RandomSource(11).generator()
        coef = complex_gaussian_array(gen, (scales.K, 9))
        x = grid.coords()
        vals = np.zeros((scales.K, grid.N), dtype=complex)
        for m in range(9):
            vals += coef[:, m: m + 1] * np.exp(2j * math.pi * (m - 4) * x)[None, :]
        return HalfSpaceField(grid, scales, ell(2, 1), vals[..., None])

    coarse = n_fun(synth(SpatialGrid(1, 64), SCALES), 1.0)
    fine = n_fun(synth(SpatialGrid(1, 128), SCALES), 1.0)
    assert np.all(fine.values[::2] >= coarse.values - 1e-12)


def test_bmo_constant_and_translation():
    f = SampledFunction.constant(GRID, ell(2, 2), [1.0, 2.0])
    assert bmo_norm(f) == 0.0
    # f is centred before its prefix sums, so inexact constants give 0 too
    assert bmo_norm(SampledFunction.constant(GRID, ell(1, 2), [0.1, 2.7j])) == 0.0
    g = random_scalar_fn(12)
    assert bmo_norm(g.shifted(37)) == pytest.approx(bmo_norm(g), rel=1e-12)


def test_bmo_step_function_matches_exhaustive_oracle():
    vals = np.zeros((GRID.N, 1), dtype=complex)
    vals[: GRID.N // 2, 0] = 1.0
    f = SampledFunction(GRID, ell(2, 1), vals)
    got = bmo_norm(f)

    # oracle: direct loops over every (center, dyadic radius) ball
    arr = vals[:, 0]
    best = 0.0
    for r in dyadic_radii(GRID):
        offs = np.nonzero(GRID.offset_distance() < r)[0]
        for c in range(GRID.N):
            members = arr[(c + offs) % GRID.N]
            mu = members.mean()
            best = max(best, float(np.abs(members - mu).mean()))
    assert got == pytest.approx(best, rel=1e-12)


def _bmo_oscillations_by_rolls(f):
    """Every ball's mean oscillation, (radius, *spatial), one np.roll per offset."""
    grid = f.grid
    vecs = np.moveaxis(f.values, -1, 0)
    out = []
    for r in dyadic_radii(grid):
        count = window_count(grid, r)
        mu_pts = np.moveaxis(window_sum(grid, vecs, r) / count, 0, -1)
        acc = np.zeros(grid.shape)
        offsets = np.nonzero(grid.offset_distance() < r)
        for off in zip(*offsets):
            shifted = np.roll(f.values, tuple(-int(o) for o in off),
                              axis=tuple(range(grid.n)))
            acc += norm(f.space, shifted - mu_pts)
        out.append(acc / count)
    return np.array(out)


def _bmo_norm_by_rolls(f):
    """The former kernel: every ball's oscillation, then the sup."""
    return float(_bmo_oscillations_by_rolls(f).max())


def _drifting_field(grid, space, seed):
    """Complex Gaussian samples with a BMO-like cumulative drift."""
    vals = complex_gaussian_array(RandomSource(seed).generator(),
                                  grid.shape + (space.dim,))
    vals[..., 1 % space.dim] += np.cumsum(vals[..., 0].real, axis=0)
    return SampledFunction(grid, space, vals)


def _rademacher_field(grid, space, seed):
    """+-1 signs times (1, ..., 1).

    On l^1 and l^2 a ball of m points whose signs split as evenly as m
    allows comes within a factor sqrt(1 - 1/m^2) of its Jensen bound, and
    all such balls tie at the sup.
    """
    signs = RandomSource(seed).generator().choice([-1.0, 1.0], size=grid.shape)
    return SampledFunction(grid, space,
                           np.repeat(signs[..., None], space.dim, axis=-1) + 0j)


def _cube_root_field(grid, space):
    """omega^(column mod 3) times (1, ..., 1), omega = exp(2 pi i / 3).

    A ball whose rows hold multiples of 3 points has mean 0 and a constant
    ||f - f_B||, so on l^1 and l^2 it attains its Jensen bound up to
    roundoff.
    """
    col = np.indices(grid.shape)[-1]
    vals = np.exp(2j * math.pi * (col % 3) / 3)
    return SampledFunction(grid, space, np.repeat(vals[..., None], space.dim, axis=-1))


@pytest.mark.parametrize("n, N", [(1, 64), (1, 128), (2, 16), (2, 32)])
@pytest.mark.parametrize("q", [1, 2, 4, "inf"])
def test_bmo_norm_matches_roll_loop(n, N, q):
    f = _drifting_field(SpatialGrid(n, N), ell(q, 3), 40 + N)
    assert bmo_norm(f) == pytest.approx(_bmo_norm_by_rolls(f), rel=1e-12)


@pytest.mark.parametrize("n, N", [(1, 64), (2, 16)])
@pytest.mark.parametrize("q", [1, 2, 4, "inf"])
def test_bmo_bound_holds_at_every_ball(n, N, q):
    grid = SpatialGrid(n, N)
    for f in (_drifting_field(grid, ell(q, 3), 7 + N),
              _rademacher_field(grid, ell(q, 3), 8 + N),
              _cube_root_field(grid, ell(q, 3))):
        bounds = functionals._bmo_bounds(f)[-1]
        osc = _bmo_oscillations_by_rolls(f).reshape(bounds.shape)
        assert np.all(bounds >= osc)


@pytest.mark.parametrize("n, N", [(1, 128), (2, 32)])
@pytest.mark.parametrize("q", [1, 2, 4, "inf"])
def test_bmo_norm_exact_where_bound_is_tight(n, N, q):
    # many balls tie at the sup, close to their bounds: pruning must keep
    # the sup exact among them
    f = _rademacher_field(SpatialGrid(n, N), ell(q, 3), 9 + N)
    osc = _bmo_oscillations_by_rolls(f)
    assert np.count_nonzero(osc >= osc.max() * (1 - 1e-12)) > 1
    assert bmo_norm(f) == pytest.approx(float(osc.max()), rel=1e-12)


@pytest.mark.parametrize("family", ["bmo_log", "bmo_step", "lacunary"])
@pytest.mark.parametrize("space", [ell(2, 2), ell(1, 3)], ids=["l2_2", "l1_3"])
def test_bmo_norm_matches_roll_loop_on_corpus(family, space):
    from tentspace.harness import CorpusSpec, generate_corpus

    grid = SpatialGrid(1, 512)
    for f in generate_corpus(CorpusSpec(family, 2), grid, space, RandomSource(5)):
        assert bmo_norm(f) == pytest.approx(_bmo_norm_by_rolls(f), rel=1e-12)


def test_bmo_constant_and_translation_2d():
    grid = SpatialGrid(2, 32)
    f = SampledFunction.constant(grid, ell(2, 2), [1.0, 2.0])
    assert bmo_norm(f) == 0.0
    assert bmo_norm(SampledFunction.constant(grid, ell(1, 2), [0.1, 2.7j])) == 0.0
    g = SampledFunction(grid, ell(1, 2),
                        complex_gaussian_array(RandomSource(13), grid.shape + (2,)))
    assert bmo_norm(g.shifted((5, 11))) == pytest.approx(bmo_norm(g), rel=1e-12)


def test_maximal_fn_basics():
    c = 1.5
    f = SampledFunction.constant(GRID, ell(2, 1), [c])
    assert np.allclose(maximal_fn(f).values, c)
    g = random_scalar_fn(13)
    m = maximal_fn(g).values
    assert np.all(m >= np.abs(g.values[:, 0]) - 1e-14)


def test_maximal_fn_l2_bound_logged():
    cs = []
    for seed in range(10):
        g = random_scalar_fn(300 + seed)
        m = maximal_fn(g)
        num = m.lp_norm(2.0)
        den = math.sqrt(float((np.abs(g.values[:, 0]) ** 2).sum() * GRID.cell_volume))
        cs.append(num / den)
    assert max(cs) < 4.0  # desk-scale maximal constant stays O(1)


def test_profile_csv_roundtrip(tmp_path):
    f = random_field(ell(2, 1), 14)
    prof = a_fun(f, 1.0)
    path = tmp_path / "prof.csv"
    prof.to_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "x,value,stderr"
    assert len(rows) == GRID.N + 1
    sf = prof.to_sampled()
    assert np.allclose(sf.values[:, 0].real, prof.values)


def test_profile_rejects_nan():
    vals = np.zeros(GRID.shape)
    vals[7] = np.nan
    with pytest.raises(ValueError):
        FunctionalProfile("A", GRID, vals)


@pytest.mark.parametrize("q,dim,seed", [(1.0, 3, 40), (4.0, 2, 41), ("inf", 3, 42)])
def test_a_fun_mc_agrees_with_region_oracle_non_hilbert(q, dim, seed):
    # two algorithms: the sweep's windowed covariance roots and the region's
    # QR factor of its atom matrix
    f = random_field(ell(q, dim), seed)
    cuts = a_fun_cuts(f, 1.0, [None, 0.1], trials=1000, rng=RandomSource(seed),
                      force_mc=True)
    for prof, h in zip(cuts, [None, 0.1]):
        for i in [0, 45, 101]:
            region = cone_region(GRID, SCALES, GRID.spacing * i, 1.0, h)
            est = gauss_norm(f, region, trials=4000, rng=RandomSource(seed + 1000))
            spread = math.hypot(prof.stderr[i], est.stderr)
            assert abs(prof.values[i] - est.value) <= 4.0 * spread, (q, h, i)
