import numpy as np
import pytest

from tentspace.calderon import complementary, gauss_bump, mexican_hat, resolve
from tentspace.field import SampledFunction, ScaleGrid, SpatialGrid
from tentspace.paraproduct import TAIL_TOL, lp_norm, pair_paraproduct, paraproduct
from tentspace.space import RandomSource, complex_gaussian_array, ell, pair

GRID = SpatialGrid(1, 64)
SCALES = ScaleGrid(0.02, 0.3, 8)
PSI = mexican_hat(1)
PHI = complementary(PSI)


def bandlimited(grid, space, seed, band=6):
    gen = RandomSource(seed).generator()
    coeff = np.zeros(grid.shape + (space.dim,), dtype=complex)
    idx = np.r_[1: band + 1, grid.N - band: grid.N]
    coeff[idx] = complex_gaussian_array(gen, (idx.size, space.dim))
    return SampledFunction(grid, space, np.fft.ifft(coeff, axis=0))


def test_paraproduct_constant_symbol_vanishes():
    f = SampledFunction.constant(GRID, ell(1, 2), [2.0, -1.0j])
    u = bandlimited(GRID, ell(2, 1), seed=1)
    res = paraproduct(f, u, PSI, PHI, SCALES)
    assert lp_norm(res.field, 2) < 1e-10


def test_paraproduct_constant_u_vanishes_with_complementary_phi():
    f = bandlimited(GRID, ell(1, 2), seed=2)
    u = SampledFunction.constant(GRID, ell(2, 1), [5.0])
    res = paraproduct(f, u, PSI, PHI, SCALES)
    assert lp_norm(res.field, 2) < 1e-10


def test_paraproduct_rejects_nonzero_integral_psi():
    f = bandlimited(GRID, ell(2, 1), seed=3)
    u = bandlimited(GRID, ell(2, 1), seed=4)
    with pytest.raises(ValueError):
        paraproduct(f, u, gauss_bump(1), PHI, SCALES)


def brute_paraproduct_at(f, u, psi, phi, scales, x_idx):
    """Oracle: direct periodized quadrature, all convolutions as sums."""
    grid = f.grid
    y = grid.coords()
    dy = grid.cell_volume
    x = y[x_idx]

    def kernel(fn, t, pts):
        acc = np.zeros_like(pts)
        for m in (-2, -1, 0, 1, 2):
            acc = acc + fn((pts + m * grid.L) / t) / t
        return acc

    total = 0.0 + 0.0j
    for t in scales.nodes():
        conv_f = np.array([
            (f.values[:, 0] * kernel(psi.spatial, t, z - y)).sum() * dy for z in y
        ])
        conv_u = np.array([
            (u.values[:, 0] * kernel(phi.spatial, t, z - y)).sum() * dy for z in y
        ])
        outer = (conv_f * conv_u * kernel(psi.spatial, t, x - y)).sum() * dy
        total += scales.dlog * outer
    return total


def test_paraproduct_matches_triple_sum_oracle():
    # spatial oracle needs closed spatial forms: psi = mexican hat, phi = bump
    grid = SpatialGrid(1, 64)
    scales = ScaleGrid(0.12, 0.3, 8)
    f = bandlimited(grid, ell(2, 1), seed=5, band=4)
    u = bandlimited(grid, ell(2, 1), seed=6, band=4)
    phi = gauss_bump(1)
    res = paraproduct(f, u, PSI, phi, scales)
    gen = np.random.default_rng(7)
    for _ in range(5):
        i = int(gen.integers(0, grid.N))
        oracle = brute_paraproduct_at(f, u, PSI, phi, scales, i)
        got = res.field.values[i, 0]
        assert got == pytest.approx(oracle, rel=1e-6, abs=1e-12)


def test_pairing_matches_field_pairing():
    space = ell(1, 2)
    f = bandlimited(GRID, space, seed=8)
    u = bandlimited(GRID, ell(2, 1), seed=9)
    g = bandlimited(GRID, ell("inf", 2), seed=10)
    got = pair_paraproduct(f, u, g, PSI, PHI, SCALES)
    res = paraproduct(f, u, PSI, PHI, SCALES)
    want = complex((pair(res.field.values, g.values)).sum() * GRID.cell_volume)
    assert got == pytest.approx(want, rel=1e-12)


def test_pairing_bilinear_in_f_and_g():
    space = ell(2, 2)
    f1 = bandlimited(GRID, space, seed=11)
    f2 = bandlimited(GRID, space, seed=12)
    u = bandlimited(GRID, ell(2, 1), seed=13)
    g = bandlimited(GRID, space, seed=14)
    both = SampledFunction(GRID, space, f1.values + f2.values)
    lhs = pair_paraproduct(both, u, g, PSI, PHI, SCALES)
    rhs = pair_paraproduct(f1, u, g, PSI, PHI, SCALES) + pair_paraproduct(
        f2, u, g, PSI, PHI, SCALES
    )
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_slice_adjoint_identity():
    # <psi_t * h, g> = <h, psi~_t * g> for each scale slice
    h = bandlimited(GRID, ell(2, 1), seed=15)
    g = bandlimited(GRID, ell(2, 1), seed=16)
    refl = PSI.reflected()
    for t in SCALES.nodes():
        mult = PSI.fourier_grid(GRID, t)
        mult_r = refl.fourier_grid(GRID, t)
        conv_h = np.fft.ifft(np.fft.fft(h.values[:, 0]) * mult)
        conv_g = np.fft.ifft(np.fft.fft(g.values[:, 0]) * mult_r)
        lhs = (conv_h * g.values[:, 0]).sum() * GRID.cell_volume
        rhs = (h.values[:, 0] * conv_g).sum() * GRID.cell_volume
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_pairing_translation_invariance():
    space = ell(1, 2)
    f = bandlimited(GRID, space, seed=17)
    u = bandlimited(GRID, ell(2, 1), seed=18)
    g = bandlimited(GRID, ell("inf", 2), seed=19)
    base = pair_paraproduct(f, u, g, PSI, PHI, SCALES)
    shift = 23
    moved = pair_paraproduct(
        f.shifted(shift), u.shifted(shift), g.shifted(shift), PSI, PHI, SCALES
    )
    assert moved == pytest.approx(base, rel=1e-10)


def test_pairing_stable_under_scale_doubling():
    space = ell(2, 2)
    f = bandlimited(GRID, space, seed=20)
    u = bandlimited(GRID, ell(2, 1), seed=21)
    g = bandlimited(GRID, space, seed=22)
    coarse = pair_paraproduct(f, u, g, PSI, PHI, SCALES)
    fine = pair_paraproduct(f, u, g, PSI, PHI, SCALES.refined())
    assert abs(fine - coarse) < 0.01 * max(abs(coarse), 1e-12)


def test_scale_diagnostics_and_truncation_flag():
    f = bandlimited(GRID, ell(2, 1), seed=23)
    u = bandlimited(GRID, ell(2, 1), seed=24)
    res = paraproduct(f, u, PSI, PHI, SCALES)
    assert res.scale_norms.shape == (SCALES.K,)
    wide = ScaleGrid(0.001, 0.45, 24)
    res_wide = paraproduct(f, u, PSI, PHI, wide)
    assert not res_wide.truncated  # band-limited data decays inside the band


def test_scale_tails_split_by_end():
    f = bandlimited(GRID, ell(2, 2), seed=26, band=12)
    u = bandlimited(GRID, ell(2, 1), seed=27)
    res = paraproduct(f, u, PSI, PHI, SCALES)
    peak = res.scale_norms.max()
    assert res.tail_fine == res.scale_norms[0] / peak  # t_min end
    assert res.tail_coarse == res.scale_norms[-1] / peak  # t_max end
    assert res.truncated == (max(res.scale_norms[0], res.scale_norms[-1])
                             > TAIL_TOL * peak)
    # a longer band toward coarse scales empties the coarse end only
    longer = ScaleGrid(SCALES.t_min, 2.0, 2 * SCALES.K)
    res_long = paraproduct(f, u, PSI, PHI, longer)
    assert res_long.tail_coarse < 1e-6 < res.tail_coarse
    assert res_long.tail_fine == pytest.approx(res.tail_fine, rel=0.05)
    zero = paraproduct(SampledFunction.constant(GRID, ell(2, 2), [0.0, 0.0]), u,
                       PSI, PHI, SCALES)
    assert (zero.tail_fine, zero.tail_coarse, zero.truncated) == (0.0, 0.0, False)


def _slices_by_scale(f, u, psi, phi, scales):
    """The former per-scale loop: two multipliers and four FFTs per scale."""
    grid = f.grid
    axes = tuple(range(grid.n))
    fhat = np.fft.fftn(f.values, axes=axes)
    uhat = np.fft.fftn(u.values[..., 0], axes=axes)
    out = []
    for t in scales.nodes():
        mp = psi.fourier_grid(grid, float(t))
        mf = phi.fourier_grid(grid, float(t))
        a = np.fft.ifftn(fhat * mp[..., None], axes=axes)
        b = np.fft.ifftn(uhat * mf, axes=axes)
        prod = a * b[..., None]
        out.append(np.fft.ifftn(np.fft.fftn(prod, axes=axes) * mp[..., None], axes=axes))
    return out


def _rel(got, want):
    return float(np.abs(np.asarray(got) - np.asarray(want)).max()
                 / np.abs(np.asarray(want)).max())


@pytest.mark.parametrize("n, N, K", [(1, 64, 8), (1, 128, 12), (2, 16, 6), (2, 32, 8)])
def test_batched_scales_match_per_scale_loops(n, N, K):
    grid = SpatialGrid(n, N)
    scales = ScaleGrid(2.0 * grid.spacing, 0.25, K)
    psi = mexican_hat(n)
    phi = complementary(psi)
    space = ell(1, 2)
    gen = RandomSource(30 + n).generator()
    f = SampledFunction(grid, space, complex_gaussian_array(gen, grid.shape + (2,)))
    u = SampledFunction(grid, ell(2, 1), complex_gaussian_array(gen, grid.shape + (1,)))
    g = SampledFunction(grid, ell("inf", 2),
                        complex_gaussian_array(gen, grid.shape + (2,)))

    axes = tuple(range(n))
    fhat = np.fft.fftn(f.values, axes=axes)
    want = [np.fft.ifftn(fhat * psi.fourier_grid(grid, float(t))[..., None], axes=axes)
            for t in scales.nodes()]
    assert _rel(resolve(f, psi, scales).values, want) < 1e-13

    slices = _slices_by_scale(f, u, psi, phi, scales)
    acc = np.zeros_like(slices[0])
    norms = np.zeros(K)
    total = 0.0 + 0.0j
    for k, sl in enumerate(slices):
        acc += scales.dlog * sl
        norms[k] = scales.dlog * np.sqrt((np.abs(sl) ** 2).sum() * grid.cell_volume)
        total += scales.dlog * complex(pair(sl, g.values).sum() * grid.cell_volume)
    res = paraproduct(f, u, psi, phi, scales)
    assert _rel(res.field.values, acc) < 1e-13
    assert _rel(res.scale_norms, norms) < 1e-13
    got = pair_paraproduct(f, u, g, psi, phi, scales)
    assert abs(got - total) < 1e-13 * abs(total)


def test_fourier_grid_accepts_a_scale_array():
    for n, N in [(1, 32), (2, 8)]:
        grid = SpatialGrid(n, N)
        t = ScaleGrid(0.01, 0.3, 5).nodes()
        for fn in (mexican_hat(n), complementary(mexican_hat(n))):
            stacked = fn.fourier_grid(grid, t)
            assert stacked.shape == (5,) + grid.shape
            for k in range(5):
                assert np.array_equal(stacked[k], fn.fourier_grid(grid, t[k]))
    with pytest.raises(ValueError):
        PSI.fourier_grid(GRID, np.ones((2, 2)))


def test_lp_norm_basics():
    z = SampledFunction.constant(GRID, ell(2, 2), [0.0, 0.0])
    assert lp_norm(z, 2) == 0.0
    c = 1.5 - 2.0j
    f = SampledFunction.constant(GRID, ell(1, 1), [c])
    for p in (1.0, 2.0, 3.0):
        assert lp_norm(f, p) == pytest.approx(abs(c) * GRID.L ** (1 / p), rel=1e-12)
    assert lp_norm(f, None) == pytest.approx(abs(c))
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)


def test_lp_hoelder():
    gen = RandomSource(25).generator()
    for p in (1.5, 2.0, 3.0):
        pp = p / (p - 1)
        v = SampledFunction(GRID, ell(2, 3), complex_gaussian_array(gen, (GRID.N, 3)))
        w = SampledFunction(GRID, ell(2, 3), complex_gaussian_array(gen, (GRID.N, 3)))
        lhs = abs((pair(v.values, w.values)).sum() * GRID.cell_volume)
        assert lhs <= lp_norm(v, p) * lp_norm(w, pp) * (1 + 1e-12)
