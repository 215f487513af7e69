import math

import numpy as np
import pytest

from tentspace.field import (
    HalfSpaceField,
    Region,
    ScaleGrid,
    SpatialGrid,
    ball_at,
    box_region,
    cone_region,
)
from tentspace.gaussnorm import (
    _closed_form_moment,
    _estimate_from_moments,
    _hyp2f1_agm,
    duality_defect,
    gauss_norm,
    paired_multiplier_defect,
    unimodular_invariance_defect,
)
from tentspace.space import (
    RandomSource,
    _squared_norm2,
    complex_gaussian_array,
    dual,
    ell,
    norm,
    pair,
)

GRID = SpatialGrid(1, 64)
SCALES = ScaleGrid(0.01, 0.25, 8)


def random_field(space, seed, grid=GRID, scales=SCALES):
    gen = RandomSource(seed).generator()
    vals = complex_gaussian_array(gen, (scales.K,) + grid.shape + (space.dim,))
    return HalfSpaceField(grid, scales, space, vals)


def random_region(seed, grid=GRID, scales=SCALES):
    gen = np.random.default_rng(seed)
    x = grid.spacing * int(gen.integers(0, grid.N))
    alpha = float(gen.uniform(0.3, 2.0))
    h = float(gen.uniform(scales.t_min * 2, scales.t_max * 1.5))
    return cone_region(grid, scales, x, alpha, h)


def per_atom_moments(field, region, trials, seed, multiplier=None):
    """Reference sampler: one complex Gaussian per atom per trial.

    Independent of the covariance factor used by the library; returns the
    per-trial squared norms of S (and of the sum for multiplier * F).
    """
    weighted = np.sqrt(region.weights)[:, None] * region.restrict(field)
    g = complex_gaussian_array(RandomSource(seed).generator(), (trials, region.size))
    m = norm(field.space, g @ weighted) ** 2
    if multiplier is None:
        return m
    return m, norm(field.space, g @ (multiplier[:, None] * weighted)) ** 2


def moments_estimate(m):
    value = math.sqrt(float(m.mean()))
    return value, math.sqrt(float(m.var(ddof=1)) / m.size) / (2.0 * value)


def small_region(count, seed):
    """Region of ``count`` distinct random atoms (fewer than d allowed)."""
    gen = np.random.default_rng(seed)
    flat = gen.choice(SCALES.K * GRID.size, size=count, replace=False)
    return Region(GRID, SCALES, flat % GRID.size, flat // GRID.size,
                  gen.uniform(0.5, 2.0, size=count))


NON_HILBERT = [(q, d) for q in (1.0, 4.0, "inf") for d in (1, 2, 3)]


@pytest.mark.parametrize("q,d", NON_HILBERT)
def test_gauss_norm_agrees_with_per_atom_sampler(q, d):
    seed = 600 + 10 * d + (0 if q == "inf" else int(q))
    f = random_field(ell(q, d), seed)
    for r in (random_region(seed), small_region(max(d - 1, 1), seed)):
        est = gauss_norm(f, r, trials=2000, rng=RandomSource(seed), force_mc=True)
        ref, ref_err = moments_estimate(per_atom_moments(f, r, 2000, seed + 1))
        assert not est.exact and est.trials == 2000
        assert abs(est.value - ref) <= 4.0 * math.hypot(est.stderr, ref_err)


@pytest.mark.parametrize("q,d", NON_HILBERT)
def test_paired_defect_agrees_with_per_atom_sampler(q, d):
    seed = 700 + 10 * d + (0 if q == "inf" else int(q))
    gen = np.random.default_rng(seed)
    f = random_field(ell(q, d), seed)
    g = gen.uniform(0.0, 1.5, size=(SCALES.K,) + GRID.shape)
    # a full cone, fewer atoms than d, and fewer than 2d (the stacked factor)
    regions = [random_region(seed), small_region(max(d - 1, 1), seed),
               small_region(2 * d - 1, seed + 1)]
    for r in regions:
        defect, stderr = paired_multiplier_defect(f, r, g, trials=2000,
                                                  rng=RandomSource(seed))
        g_atoms = g.reshape(SCALES.K, GRID.size)[r.scale_idx, r.spatial_idx]
        m, mb = per_atom_moments(f, r, 2000, seed + 1, multiplier=g_atoms)
        (a, _), (b, _) = moments_estimate(m), moments_estimate(mb)
        ref_err = math.sqrt(float((mb - m).var(ddof=1)) / m.size) / (2.0 * max(a, b))
        assert abs(defect - (b - a)) <= 4.0 * math.hypot(stderr, ref_err)


def test_zero_field_and_empty_region():
    f = HalfSpaceField.zeros(GRID, SCALES, ell(2, 3))
    r = cone_region(GRID, SCALES, 0.0, 1.0)
    est = gauss_norm(f, r)
    assert est.value == 0.0 and est.exact
    empty = cone_region(GRID, SCALES, 0.0, 1.0, h=SCALES.t_min / 2)
    est2 = gauss_norm(random_field(ell(1, 2), 1), empty)
    assert est2.value == 0.0 and est2.exact


def test_hilbert_exact_value():
    f = random_field(ell(2, 3), 2)
    r = random_region(3)
    est = gauss_norm(f, r)
    vals = r.restrict(f)
    oracle = math.sqrt(float((r.weights * (np.abs(vals) ** 2).sum(axis=1)).sum()))
    assert est.exact and est.stderr == 0.0
    assert est.value == pytest.approx(oracle, rel=1e-14)


def test_mc_agrees_with_exact_on_hilbert():
    hits = 0
    for case in range(30):
        f = random_field(ell(2, 3), 100 + case)
        r = random_region(200 + case)
        exact = gauss_norm(f, r)
        mc = gauss_norm(f, r, trials=2000, rng=RandomSource(case), force_mc=True)
        assert not mc.exact and mc.stderr > 0
        if abs(mc.value - exact.value) <= 3 * mc.stderr:
            hits += 1
        assert mc.value == pytest.approx(exact.value, rel=0.05)
    assert hits >= 29


def test_rank_one_identity():
    # gauss_norm(h (x) xi) = ||h||_{L^2(dmu)} ||xi||_X for non-Hilbert targets
    for space, seed in [(ell(1, 3), 5), (ell(4, 2), 6)]:
        gen = RandomSource(seed).generator()
        r = random_region(seed + 50)
        h = complex_gaussian_array(gen, (SCALES.K,) + GRID.shape)
        xi = complex_gaussian_array(gen, space.dim)
        f = HalfSpaceField(GRID, SCALES, space, h[..., None] * xi)
        est = gauss_norm(f, r, trials=4000, rng=RandomSource(seed), force_mc=True)
        flat = h.reshape(SCALES.K, GRID.size)
        h_atoms = flat[r.scale_idx, r.spatial_idx]
        oracle = math.sqrt(float((r.weights * np.abs(h_atoms) ** 2).sum()))
        oracle *= float(norm(space, xi))
        assert abs(est.value - oracle) <= 3 * est.stderr


def test_gauss_norm_homogeneity_paired():
    f = random_field(ell(1, 2), 7)
    r = random_region(8)
    c = 2.5 - 1.0j
    scaled = HalfSpaceField(GRID, SCALES, f.space, c * f.values)
    a = gauss_norm(f, r, trials=1500, rng=RandomSource(9))
    b = gauss_norm(scaled, r, trials=1500, rng=RandomSource(9))
    # common seed: identical draws, so homogeneity is exact up to roundoff
    assert b.value == pytest.approx(abs(c) * a.value, rel=1e-10)


def test_monotone_under_region_inclusion_hilbert():
    f = random_field(ell(2, 2), 10)
    small = cone_region(GRID, SCALES, 0.25, 0.5, h=0.1)
    big = cone_region(GRID, SCALES, 0.25, 1.5, h=0.2)
    assert gauss_norm(f, small).value <= gauss_norm(f, big).value


def test_atom_order_independence():
    from tentspace.field import Region

    f = random_field(ell(1, 2), 11)
    r = random_region(12)
    perm = np.random.default_rng(0).permutation(r.size)
    r2 = Region(GRID, SCALES, r.spatial_idx[perm], r.scale_idx[perm], r.weights[perm])
    a = gauss_norm(f, r, trials=500, rng=RandomSource(13))
    b = gauss_norm(f, r2, trials=500, rng=RandomSource(13))
    assert a.value == b.value  # canonical atom order fixes the covariance factor
    fh = random_field(ell(2, 2), 99)
    assert gauss_norm(fh, r).value == gauss_norm(fh, r2).value  # bit-identical


def test_multiplier_contraction():
    gen = np.random.default_rng(14)
    f = random_field(ell(1, 3), 15)
    r = random_region(16)
    g = gen.uniform(0.0, 1.0, size=(SCALES.K,) + GRID.shape)
    defect, stderr = paired_multiplier_defect(f, r, g, trials=2000, rng=RandomSource(17))
    assert defect <= 3 * stderr  # ||g||_inf <= 1 never increases the norm


def test_unimodular_invariance():
    gen = np.random.default_rng(18)
    phases = np.exp(2j * math.pi * gen.uniform(size=(SCALES.K,) + GRID.shape))
    # Hilbert path: exact
    fh = random_field(ell(2, 2), 19)
    r = random_region(20)
    assert unimodular_invariance_defect(fh, r, phases) < 1e-12
    # v == 1 exactly zero
    f1 = random_field(ell(1, 3), 21)
    ones = np.ones((SCALES.K,) + GRID.shape, dtype=complex)
    assert unimodular_invariance_defect(f1, r, ones, trials=10, rng=RandomSource(0)) == 0.0
    # MC paired path within 3 sigma
    for case in range(20):
        f = random_field(ell(1, 3), 300 + case)
        defect, stderr = unimodular_invariance_defect(
            f, r, phases, trials=1000, rng=RandomSource(case), force_mc=True, details=True
        )
        assert defect <= max(3 * stderr, 1e-12)


@pytest.mark.parametrize("q,d", [(1.0, 2), (1.0, 3), (4.0, 1)])
def test_paired_defects_are_exact_where_gauss_norm_is(q, d):
    # l^1_d and d = 1: both norms come from the closed form, stderr 0
    seed = 800 + 10 * d + int(q)
    gen = np.random.default_rng(seed)
    f = random_field(ell(q, d), seed)
    g = gen.uniform(0.0, 1.5, size=(SCALES.K,) + GRID.shape)
    phases = np.exp(2j * math.pi * gen.uniform(size=g.shape))
    for r in (random_region(seed), small_region(max(d - 1, 1), seed)):
        base = gauss_norm(f, r)
        for v in (g, phases):
            vf = HalfSpaceField(GRID, SCALES, f.space, v[..., None] * f.values)
            scaled = gauss_norm(vf, r)
            assert base.exact and scaled.exact
            defect, stderr = paired_multiplier_defect(f, r, v, trials=2000,
                                                      rng=RandomSource(seed))
            assert stderr == 0.0
            assert defect == pytest.approx(scaled.value - base.value, rel=0, abs=1e-12)
        defect, stderr = unimodular_invariance_defect(f, r, phases, details=True)
        assert stderr == 0.0 and defect <= 1e-12


def test_unimodular_rejects_non_unimodular():
    f = random_field(ell(1, 2), 22)
    r = random_region(23)
    v = np.full((SCALES.K,) + GRID.shape, 0.5, dtype=complex)
    with pytest.raises(ValueError):
        unimodular_invariance_defect(f, r, v)


def test_duality_defect_zero_dual_field():
    f = random_field(ell(1, 2), 24)
    g = HalfSpaceField.zeros(GRID, SCALES, ell("inf", 2))
    r = random_region(25)
    assert duality_defect(f, g, r, trials=100, rng=RandomSource(1)) <= 0.0


def test_duality_defect_scalar_cauchy_schwarz():
    # X = X' = C: weighted Cauchy-Schwarz, exact path
    f = random_field(ell(2, 1), 26)
    r = random_region(27)
    det = duality_defect(f, f, r, details=True)
    # F = G: |<F, F>| integral vs ||F||^2; equality iff proportional - here equal
    assert det.defect <= 1e-10 * max(det.integral, 1.0)


def test_duality_defect_l1_linf_within_3sigma():
    r = random_region(28)
    for case in range(50):
        f = random_field(ell(1, 2), 400 + case)
        g = random_field(ell("inf", 2), 500 + case)
        det = duality_defect(
            f, g, r, trials=1500, rng=RandomSource(case), details=True
        )
        assert det.defect <= 3 * det.stderr + 1e-9


def test_duality_defect_rejects_mismatch():
    f = random_field(ell(1, 2), 29)
    g = random_field(ell(2, 2), 30)
    r = random_region(31)
    with pytest.raises(ValueError):
        duality_defect(f, g, r)


def test_exact_l1_rank_one_identity():
    # the closed form needs no draws: the identity holds to roundoff
    for seed in range(5, 10):
        gen = RandomSource(seed).generator()
        r = random_region(seed + 50)
        h = complex_gaussian_array(gen, (SCALES.K,) + GRID.shape)
        xi = complex_gaussian_array(gen, 3)
        f = HalfSpaceField(GRID, SCALES, ell(1, 3), h[..., None] * xi)
        est = gauss_norm(f, r)
        h_atoms = h.reshape(SCALES.K, GRID.size)[r.scale_idx, r.spatial_idx]
        oracle = math.sqrt(float((r.weights * np.abs(h_atoms) ** 2).sum()))
        oracle *= float(norm(ell(1, 3), xi))
        assert est.exact and est.stderr == 0.0 and est.trials == 0
        assert est.value == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_exact_l1_agrees_with_forced_draws(d):
    f = random_field(ell(1, d), 800 + d)
    regions = [cone_region(GRID, SCALES, GRID.spacing * 9, 1.0, 0.2),
               cone_region(GRID, SCALES, GRID.spacing * 40, 0.5),
               box_region(GRID, SCALES, ball_at(GRID, GRID.spacing * 20, 0.1)),
               box_region(GRID, SCALES, ball_at(GRID, GRID.spacing * 51, 0.25))]
    for k, r in enumerate(regions):
        exact = gauss_norm(f, r)
        mc = gauss_norm(f, r, trials=20_000, rng=RandomSource(810 + k), force_mc=True)
        assert exact.exact and not mc.exact
        assert abs(exact.value - mc.value) <= 4.0 * mc.stderr, (d, k)


@pytest.mark.parametrize("q", [4.0, "inf"])
def test_exact_at_dimension_one_for_every_target(q):
    # at d = 1 every l^q norm is the modulus: the l^2 value, exactly
    f = random_field(ell(q, 1), 830)
    r = random_region(831)
    est = gauss_norm(f, r)
    hilbert = gauss_norm(HalfSpaceField(GRID, SCALES, ell(2, 1), f.values), r)
    assert est.exact and est.value == hilbert.value


def test_exact_l1_zero_component_and_zero_field():
    f = random_field(ell(1, 2), 840)
    padded = HalfSpaceField(GRID, SCALES, ell(1, 3),
                            np.concatenate([f.values, np.zeros_like(f.values[..., :1])],
                                           axis=-1))
    r = random_region(841)
    est = gauss_norm(padded, r)
    assert est.exact and math.isfinite(est.value)
    assert est.value == pytest.approx(gauss_norm(f, r).value, rel=1e-14)
    zero = gauss_norm(HalfSpaceField.zeros(GRID, SCALES, ell(1, 3)), r)
    assert zero.exact and zero.value == 0.0


def test_closed_form_clips_the_squared_correlation():
    # roundoff can push |C_ij|^2 past C_ii C_jj; the moment stays that of
    # perfect correlation, (sum_j sqrt(C_jj))^2
    space = ell(1, 2)
    upper = np.array([4.0, 6.0 * (1.0 + 1e-12), 9.0], dtype=complex)
    moment = _closed_form_moment(space, None, lambda: upper)
    assert moment == pytest.approx(25.0, rel=1e-12)
    zero_var = np.array([4.0, 0.0, 0.0], dtype=complex)
    assert _closed_form_moment(space, None, lambda: zero_var) == 4.0


def test_agm_hyp2f1_matches_scipy():
    # scipy is a test-only oracle: the library evaluates 2F1 by the AGM
    from scipy.special import hyp2f1

    for x in (np.linspace(0.0, 1.0, 20_001)[:-1], 1.0 - np.logspace(-16, -1, 2_000)):
        ref = hyp2f1(-0.5, -0.5, 1.0, x)
        assert np.max(np.abs(_hyp2f1_agm(x) / ref - 1.0)) <= 1e-13
    # at x = 1 the AGM does not converge; the value is 4/pi
    assert _hyp2f1_agm(np.ones(3)) == pytest.approx(np.full(3, 4.0 / math.pi), rel=1e-13)



def _two_index_gather(values, region):
    """Per-atom values by (scale, spatial) index, without the flat atom index."""
    flat = values.reshape(region.scales.K, region.grid.size, -1)
    return flat[region.scale_idx, region.spatial_idx]


def _reference_estimate(m):
    """sqrt(E m) and its delta-method stderr with numpy's own ddof=1 variance."""
    mean = m.mean(axis=-1)
    value = np.sqrt(mean)
    safe = np.where(mean > 0.0, value, np.inf)
    return value, np.sqrt(m.var(axis=-1, ddof=1) / m.shape[-1]) / (2.0 * safe)


def _reference_moment(space, vals, w):
    def covariance():
        m = np.sqrt(w)[:, None] * vals
        return (m.T @ m.conj())[np.triu_indices(space.dim)]

    return _closed_form_moment(space, lambda: (w * _squared_norm2(vals)).sum(), covariance)


def _reference_draws(space, vals, w, trials, seed, v=None):
    """Squared norms of the draws z R, R the phase-fixed QR factor of sqrt(w) F."""
    weighted = np.sqrt(w)[:, None] * vals
    if v is not None:
        weighted = np.concatenate([weighted, (v - 1.0)[:, None] * weighted], axis=1)
    r = np.linalg.qr(weighted, mode="r")
    r = np.exp(-1j * np.angle(np.diagonal(r)))[:, None] * r
    t = complex_gaussian_array(RandomSource(seed), (trials, r.shape[0])) @ r
    s = t[:, :space.dim]
    m = norm(space, s) ** 2
    return m if v is None else (m, norm(space, s + t[:, space.dim:]) ** 2)


def _reference_gauss_norm(field, region, trials, seed, force_mc):
    vals = _two_index_gather(field.values, region)
    moment = None if force_mc else _reference_moment(field.space, vals, region.weights)
    if moment is not None:
        return math.sqrt(float(moment)), 0.0
    value, stderr = _reference_estimate(
        _reference_draws(field.space, vals, region.weights, trials, seed))
    return float(value), float(stderr)


def _reference_paired(field, region, v, trials, seed, force_mc):
    vals = _two_index_gather(field.values, region)
    g = _two_index_gather(v, region)[:, 0]
    w = region.weights
    base = None if force_mc else _reference_moment(field.space, vals, w)
    if base is not None:
        scaled = _reference_moment(field.space, vals, w * np.abs(g) ** 2)
        return math.sqrt(float(scaled)) - math.sqrt(float(base)), 0.0
    m, mb = _reference_draws(field.space, vals, w, trials, seed, v=g)
    (est, est_b), _ = _reference_estimate(np.stack([m, mb]))
    stderr = math.sqrt(float((mb - m).var(ddof=1)) / trials) / (2.0 * max(est, est_b))
    return float(est_b - est), stderr


@pytest.mark.parametrize("q,d", [(2.0, 3), (1.0, 3), ("inf", 3), (4.0, 2), (1.0, 8), ("inf", 8)])
def test_gauss_norm_and_defects_match_a_two_index_gather_reference(q, d):
    seed = 900 + d
    gen = np.random.default_rng(seed)
    f = random_field(ell(q, d), seed)
    g = random_field(dual(ell(q, d)), seed + 1)
    v = gen.uniform(0.0, 1.5, size=(SCALES.K,) + GRID.shape)
    phases = np.exp(2j * math.pi * gen.uniform(size=v.shape))
    regions = [random_region(seed), small_region(max(d - 1, 1), seed),
               box_region(GRID, SCALES, ball_at(GRID, 0.95, 0.2))]
    for r in regions:
        for force_mc in (False, True):
            est = gauss_norm(f, r, trials=500, rng=RandomSource(seed), force_mc=force_mc)
            assert (est.value, est.stderr) == _reference_gauss_norm(f, r, 500, seed, force_mc)
            for mult in (v, phases):
                got = paired_multiplier_defect(f, r, mult, trials=500,
                                               rng=RandomSource(seed), force_mc=force_mc)
                assert got == _reference_paired(f, r, mult, 500, seed, force_mc)
            defect, stderr = unimodular_invariance_defect(
                f, r, phases, trials=500, rng=RandomSource(seed), force_mc=force_mc,
                details=True)
            want, want_err = _reference_paired(f, r, phases, 500, seed, force_mc)
            assert (defect, stderr) == (abs(want), want_err)
        fv, gv = _two_index_gather(f.values, r), _two_index_gather(g.values, r)
        det = duality_defect(f, g, r, trials=500, details=True)
        assert det.integral == float((r.weights * np.abs(pair(fv, gv))).sum())


@pytest.mark.parametrize("shape", [(2000,), (2, 2000), (5, 64), (3, 7, 33), (1, 2)])
def test_estimate_reuses_the_mean_bit_for_bit(shape):
    m = np.random.default_rng(len(shape)).exponential(size=shape) * 3.7
    m[..., 0] = 0.0
    for rows in (m, np.zeros(shape)):
        got, want = _estimate_from_moments(rows), _reference_estimate(rows)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("q,d", [("inf", 3), ("inf", 8), (1.0, 8)])
def test_sweep_stderr_is_unchanged_by_the_variance_reuse(q, d, monkeypatch):
    from tentspace import functionals
    from tentspace.functionals import a_fun_cuts

    grid, scales = SpatialGrid(1, 32), ScaleGrid(0.04, 0.25, 6)
    f = random_field(ell(q, d), 70 + d, grid=grid, scales=scales)

    def sweep():
        return a_fun_cuts(f, 1.0, [0.1, None], trials=64, rng=RandomSource(d),
                          force_mc=True)

    got = sweep()
    monkeypatch.setattr(functionals, "_estimate_from_moments", _reference_estimate)
    want = sweep()
    for a, b in zip(got, want):
        assert a.stderr is not None
        assert np.array_equal(a.values, b.values) and np.array_equal(a.stderr, b.stderr)


@pytest.mark.parametrize("other", ["grid", "scales"])
def test_every_entry_point_rejects_a_field_off_the_region(other):
    # a cone on N=64, K=8 with a field on N=128 or on K=20
    grid, scales = (SpatialGrid(1, 128), SCALES) if other == "grid" else \
        (GRID, ScaleGrid(0.01, 0.25, 20))
    shape = (scales.K,) + grid.shape
    ones = np.ones(shape, dtype=complex)
    cone = cone_region(GRID, SCALES, 0.3, 1.0, 0.2)
    empty = cone_region(GRID, SCALES, 0.3, 1.0, SCALES.t_min / 2)
    match = r"grid.*N=128.*N=64" if other == "grid" else r"scales.*K=20.*K=8"
    for q in (2.0, 1.0, "inf"):
        f = random_field(ell(q, 3), 5, grid=grid, scales=scales)
        g = random_field(dual(ell(q, 3)), 6, grid=grid, scales=scales)
        calls = [
            lambda r: gauss_norm(f, r, trials=50),
            lambda r: gauss_norm(f, r, trials=50, force_mc=True),
            lambda r: paired_multiplier_defect(f, r, 0.5 * ones, trials=50),
            lambda r: paired_multiplier_defect(f, r, 0.5 * ones, trials=50, force_mc=True),
            lambda r: unimodular_invariance_defect(f, r, ones, trials=50),
            lambda r: duality_defect(f, g, r, trials=50),
        ]
        for call in calls:
            for r in (cone, empty):
                with pytest.raises(ValueError, match=match):
                    call(r)
