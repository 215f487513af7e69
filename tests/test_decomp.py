import hashlib
import json
import math

import numpy as np
import pytest

from tentspace.decomp import (
    DyadicCube,
    fubini_defect,
    good_lambda_table,
    set_measure,
    stopping_time,
    whitney,
    whitney_check,
)
from tentspace.field import HalfSpaceField, ScaleGrid, SpatialGrid
from tentspace.functionals import c_fun
from tentspace.space import RandomSource, complex_gaussian_array, ell

GRID = SpatialGrid(1, 128)
SCALES = ScaleGrid(0.006, 0.25, 16)


def random_field(seed, grid=GRID, scales=SCALES, space=None):
    space = space or ell(2, 1)
    gen = RandomSource(seed).generator()
    vals = complex_gaussian_array(gen, (scales.K,) + grid.shape + (space.dim,))
    return HalfSpaceField(grid, scales, space, vals)


def random_open_set(grid, seed):
    """Random nonempty, non-full union of grid cells."""
    gen = np.random.default_rng(seed)
    smooth = gen.normal(size=grid.shape)
    for axis in range(grid.n):
        smooth = np.fft.ifft(
            np.fft.fft(smooth, axis=axis)
            * np.exp(-np.abs(np.fft.fftfreq(grid.N) * grid.N) / 4)[
                (None,) * axis + (slice(None),) + (None,) * (grid.n - 1 - axis)
            ],
            axis=axis,
        ).real
    mask = smooth > np.quantile(smooth, float(gen.uniform(0.3, 0.8)))
    if not mask.any():
        mask.flat[0] = True
    if mask.all():
        mask.flat[0] = False
    return mask


def test_whitney_rejects_full_torus():
    with pytest.raises(ValueError):
        whitney(GRID, np.ones(GRID.shape, dtype=bool))


def test_whitney_empty_set():
    dec = whitney(GRID, np.zeros(GRID.shape, dtype=bool))
    assert dec.cubes == []


def test_whitney_single_cell_descends_and_verifies():
    cells = np.zeros(GRID.shape, dtype=bool)
    cells[17] = True
    dec = whitney(GRID, cells)
    rep = whitney_check(dec)
    assert rep.ok, rep
    j_max = int(math.log2(GRID.N))
    assert all(c.level > j_max for c in dec.cubes)  # single cell must split


def test_whitney_random_sets_pass_checker_1d():
    for seed in range(50):
        cells = random_open_set(GRID, seed)
        rep = whitney_check(whitney(GRID, cells))
        assert rep.ok, (seed, rep)


def test_whitney_random_sets_pass_checker_2d():
    grid = SpatialGrid(2, 32)
    for seed in range(8):
        cells = random_open_set(grid, 100 + seed)
        rep = whitney_check(whitney(grid, cells))
        assert rep.ok, (seed, rep)


def test_whitney_translation_commutes():
    cells = random_open_set(GRID, 7)
    shift = GRID.N // 4  # dyadic vector L/4: preserves every cube level
    dec = whitney(GRID, cells)
    dec_shifted = whitney(GRID, np.roll(cells, shift))
    def key(c):
        w = GRID.N * 2 ** (c.level - int(math.log2(GRID.N)))
        return (c.level, tuple((i + (shift * w) // GRID.N) % w for i in c.index))
    got = sorted((c.level, c.index) for c in dec_shifted.cubes)
    want = sorted(key(c) for c in dec.cubes)
    assert got == want


def test_dyadic_cube_geometry():
    g = SpatialGrid(2, 16, 2.0)
    c = DyadicCube(2, (3, 1))
    assert c.side(g) == pytest.approx(0.5)
    assert c.diam(g) == pytest.approx(0.5 * math.sqrt(2))
    assert c.anchor(g) == (1.5, 0.5)
    assert c.children() == [DyadicCube(3, (6, 2)), DyadicCube(3, (6, 3)),
                            DyadicCube(3, (7, 2)), DyadicCube(3, (7, 3))]
    assert DyadicCube(4, (5,)).children() == [DyadicCube(5, (10,)), DyadicCube(5, (11,))]


# cube count and sha256 prefix of the JSON cube list [[level, *index], ...]
# on rng.random(shape) < p masks; integer outputs, portable across builds
WHITNEY_PINS = [
    (1, 64, 0, 0.2, 50, "82a6a214d0f36d1f"),
    (1, 64, 1, 0.5, 86, "14fa0be10a77c952"),
    (1, 64, 2, 0.8, 99, "067b92d826080e43"),
    (2, 16, 0, 0.2, 2298, "a96723097ab9daa8"),
    (2, 16, 1, 0.5, 3718, "20273a2b06573f10"),
    (2, 16, 2, 0.8, 3556, "0ed5fca2de858dea"),
    (2, 32, 0, 0.2, 8896, "0c21a7904fe514fd"),
    (2, 32, 1, 0.5, 15752, "9f8c9a64c5c53a99"),
    (2, 32, 2, 0.8, 14642, "07cd03802c81be99"),
]


def test_whitney_cube_lists_pinned():
    for n, N, seed, p, count, digest in WHITNEY_PINS:
        grid = SpatialGrid(n, N)
        cells = np.random.default_rng(seed).random(grid.shape) < p
        cubes = [[c.level, *c.index] for c in whitney(grid, cells).cubes]
        got = hashlib.sha256(json.dumps(cubes).encode()).hexdigest()[:16]
        assert (len(cubes), got) == (count, digest), (n, N, seed, p)


def test_whitney_passes_checker_at_a_period_not_a_power_of_two():
    # at L = 2 pi a cube at exactly 4 diam from the complement is decided by
    # rounding; whitney must round as whitney_check does
    for n, N, seed, p in [(1, 128, 6, 0.9), (1, 128, 8, 0.6), (2, 8, 2, 0.9),
                          (2, 16, 7, 0.9)]:
        grid = SpatialGrid(n, N, 2 * math.pi)
        cells = np.random.default_rng(seed).random(grid.shape) < p
        rep = whitney_check(whitney(grid, cells))
        assert rep.ok, (n, N, seed, p, rep)


def test_stopping_time_zero_field_is_infinite():
    f = HalfSpaceField.zeros(GRID, SCALES, ell(2, 1))
    prof = stopping_time(f, q=1.0, rho=2.0)
    assert np.all(np.isinf(prof.tau))
    assert np.all(prof.cut_index == SCALES.K)


def test_stopping_time_monotone_in_rho():
    f = random_field(21)
    t2 = stopping_time(f, q=1.0, rho=2.0).tau
    t4 = stopping_time(f, q=1.0, rho=4.0).tau
    assert np.all(t2 <= t4)


def test_stopping_time_nonincreasing_under_enlargement():
    f = random_field(22)
    cq = c_fun(f, 1.0)
    bigger = HalfSpaceField(GRID, SCALES, f.space, 2.0 * f.values)
    t1 = stopping_time(f, q=1.0, rho=2.0, cq=cq).tau
    t2 = stopping_time(bigger, q=1.0, rho=2.0, cq=cq).tau
    assert np.all(t2 <= t1)


@pytest.mark.parametrize("n, N", [(1, 128), (2, 16)])
@pytest.mark.parametrize("q, alpha", [(1.0, 1.0), (2.0, 2.0)])
def test_stopping_time_shared_sweep_matches_passed_cq(n, N, q, alpha):
    from tentspace.harness import generate_column_corpus

    grid = SpatialGrid(n, N)
    fields = [random_field(26, grid, SCALES, ell(2, 2))]
    # a single column stops at finite heights for this rho
    fields += generate_column_corpus(grid, SCALES, ell(2, 2), 1, RandomSource(78),
                                     columns=1)
    rho = 1.2
    finite = 0
    for f in fields:
        shared = stopping_time(f, q=q, rho=rho, alpha=alpha)
        passed = stopping_time(f, q=q, rho=rho, alpha=alpha, cq=c_fun(f, q, alpha))
        assert np.array_equal(shared.tau, passed.tau)
        assert np.array_equal(shared.cut_index, passed.cut_index)
        finite += int(np.isfinite(shared.tau).sum())
    assert finite > 0


def test_stopping_time_rejects_a_mismatched_cq():
    from tentspace.functionals import a_fun

    f = random_field(25)
    other = random_field(25, grid=SpatialGrid(1, 64))
    for cq in (c_fun(f, 2.0), c_fun(f, 1.0, alpha=2.0), a_fun(f, 1.0), c_fun(other, 1.0)):
        with pytest.raises(ValueError, match="cq must be"):
            stopping_time(f, q=1.0, rho=2.0, cq=cq)


def test_stopping_time_rejects_rho_at_most_one():
    with pytest.raises(ValueError):
        stopping_time(random_field(23), q=1.0, rho=1.0)


def test_stopping_measure_lemma_on_dyadic_balls():
    from tentspace.field import dyadic_radii
    from tentspace.harness import generate_column_corpus
    from tentspace.space import RandomSource

    rho, q = 2.0, 1.0
    gen = np.random.default_rng(0)
    fields = [random_field(500 + seed) for seed in range(5)]
    # single-column fields actually stop at finite heights near the peak
    fields += generate_column_corpus(GRID, SCALES, ell(2, 1), 5,
                                     RandomSource(77), columns=1)
    finite = 0
    for f in fields:
        prof = stopping_time(f, q=q, rho=rho)
        finite += int(np.isfinite(prof.tau).sum())
        radii = dyadic_radii(GRID)
        for _ in range(50):
            r = float(radii[gen.integers(0, radii.size)])
            c = GRID.spacing * int(gen.integers(0, GRID.N))
            members = GRID.point_distance(c) < r
            ball = set_measure(GRID, members)
            good = set_measure(GRID, members & (prof.tau > r))
            assert good >= (1 - rho ** (-q)) * ball - GRID.cell_volume - 1e-12
    assert finite > 0


def test_fubini_zero_and_slab():
    f = HalfSpaceField.zeros(GRID, SCALES, ell(2, 1))
    prof = stopping_time(f, q=1.0, rho=2.0)  # tau = +inf everywhere
    H = np.zeros((SCALES.K,) + GRID.shape)
    assert fubini_defect(H, prof) == 0.0

    # H = 1 on one interior scale slab: both sides in closed form
    k0 = 5
    H[k0] = 1.0
    got = fubini_defect(H, prof)
    t = SCALES.nodes()[k0]
    npts = int((GRID.offset_distance() < t).sum())
    lhs = 2.0 * GRID.N * npts * GRID.cell_volume ** 2 * SCALES.dlog / t
    rhs = GRID.N * GRID.cell_volume * SCALES.dlog
    assert got == pytest.approx(lhs - rhs, rel=1e-12)
    assert got >= 0.0


def test_fubini_defect_nonnegative_on_random_cases():
    gen = np.random.default_rng(1)
    for seed in range(20):
        f = random_field(700 + seed)
        prof = stopping_time(f, q=1.0, rho=2.0)
        H = gen.uniform(size=(SCALES.K,) + GRID.shape)
        rhs = float(H.sum()) * GRID.cell_volume * SCALES.dlog
        assert fubini_defect(H, prof) >= -0.01 * rhs


def test_fubini_rejects_negative_H():
    f = random_field(24)
    prof = stopping_time(f, q=1.0, rho=2.0)
    H = -np.ones((SCALES.K,) + GRID.shape)
    with pytest.raises(ValueError):
        fubini_defect(H, prof)


def test_good_lambda_zero_field():
    f = HalfSpaceField.zeros(GRID, SCALES, ell(2, 1))
    table = good_lambda_table(f, 1.0, 1.0, [1.0, 0.5], [0.1, 1.0])
    assert all(r["m_lhs"] == 0.0 for r in table.rows)
    assert table.satisfied()
    assert all(c == 0.0 for c in table.fitted.values())


def test_good_lambda_trivial_above_max():
    f = random_field(25)
    from tentspace.functionals import a_fun

    top = a_fun(f, 1.0).max()
    table = good_lambda_table(f, 1.0, 1.0, [1.0], [top + 1.0])
    assert table.rows[0]["m_lhs"] == 0.0
    assert table.satisfied()


def test_good_lambda_fitted_finite_and_satisfied():
    f = random_field(26)
    from tentspace.functionals import a_fun

    amax = a_fun(f, 1.0).max()
    lambdas = np.geomspace(amax / 20, amax / 1.5, 6)
    table = good_lambda_table(f, 1.0, 1.0, [1.0, 0.5, 0.25], lambdas, beta=3.0)
    assert table.satisfied()
    assert all(math.isfinite(c) for c in table.fitted.values())


def test_good_lambda_shares_one_sweep_at_alpha():
    # Monte Carlo target: A and C_q at alpha come from the same draws
    from tentspace.field import dyadic_radii
    from tentspace.functionals import a_fun_cuts

    f = random_field(29, space=ell("inf", 2))
    radii = dyadic_radii(GRID)
    cuts = a_fun_cuts(f, 1.0, [*radii, None], trials=64, rng=RandomSource(4))
    cq = c_fun(f, 1.0, 1.0, radii=radii, a_profiles=cuts[:-1])
    lam = float(np.median(cuts[-1].values)) / 2.0
    table = good_lambda_table(f, 1.0, 1.0, [0.5], [lam], beta=3.0, trials=64,
                              rng=RandomSource(4))
    assert table.rows[0]["m_lhs"] == set_measure(GRID, cuts[-1].values > 2.0 * lam)
    assert table.rows[0]["m_cq"] == set_measure(GRID, cq.values > 0.5 * lam)


def test_good_lambda_wrap_warning():
    f = random_field(27)
    table = good_lambda_table(f, 1.0, 1.0, [1.0], [1.0])  # beta = 11
    assert table.wrap_warning  # 11 * 0.25 > L/2


def test_good_lambda_rejects_bad_params():
    f = random_field(28)
    with pytest.raises(ValueError):
        good_lambda_table(f, 1.0, 1.0, [1.5], [1.0])
    with pytest.raises(ValueError):
        good_lambda_table(f, 1.0, 1.0, [0.5], [-1.0])
