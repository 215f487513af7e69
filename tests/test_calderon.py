import math

import numpy as np
import pytest

from tentspace.calderon import (
    TestFunction,
    _annulus_bump,
    _sqnorm,
    bandpass_meyer,
    complementary,
    dgauss_1,
    gauss_bump,
    make_test_function,
    mexican_hat,
    nondegeneracy_margin,
    reproducing_residual,
    resolve,
)
from tentspace.field import SampledFunction, ScaleGrid, SpatialGrid
from tentspace.space import RandomSource, complex_gaussian_array, ell


def bandlimited(grid, space, seed, band=None):
    """Random band-limited function, reproducible from the seed."""
    gen = RandomSource(seed).generator()
    band = band or grid.N // 8
    coeff = np.zeros(grid.shape + (space.dim,), dtype=complex)
    if grid.n == 1:
        idx = np.r_[1: band + 1, grid.N - band: grid.N]
        coeff[idx] = complex_gaussian_array(gen, (idx.size, space.dim))
    else:
        for i in range(-band, band + 1):
            for j in range(-band, band + 1):
                if i == 0 and j == 0:
                    continue
                coeff[i % grid.N, j % grid.N] = complex_gaussian_array(gen, space.dim)
    vals = np.fft.ifftn(coeff, axes=tuple(range(grid.n)))
    return SampledFunction(grid, space, vals)


def test_resolve_annihilates_constants():
    grid = SpatialGrid(1, 128)
    scales = ScaleGrid(0.01, 0.25, 8)
    c = 3.7 - 1.2j
    f = SampledFunction.constant(grid, ell(2, 2), [c, 2 * c])
    F = resolve(f, mexican_hat(1), scales)
    assert np.abs(F.values).max() < 1e-10 * abs(c)


def test_resolve_translation_covariance():
    grid = SpatialGrid(1, 64)
    scales = ScaleGrid(0.02, 0.2, 6)
    f = bandlimited(grid, ell(2, 2), seed=1)
    F = resolve(f, mexican_hat(1), scales)
    Fs = resolve(f.shifted(13), mexican_hat(1), scales)
    want = np.roll(F.values, 13, axis=1)
    assert np.allclose(Fs.values, want, atol=1e-12)


def brute_resolve_at(f, psi, t, x_idx):
    """Oracle: periodized direct quadrature sum_z f(z) psi_t(x - z) dy^n."""
    grid = f.grid
    n = grid.n
    y = grid.coords()
    x = y[x_idx] if n == 1 else y[x_idx[0], x_idx[1]]
    total = np.zeros(f.space.dim, dtype=complex)
    shifts = range(-2, 3)
    if n == 1:
        for m in shifts:
            arg = (x - y + m * grid.L) / t
            w = psi.spatial(arg) / t
            total += (f.values * w[:, None]).sum(axis=0) * grid.cell_volume
    else:
        for mx in shifts:
            for my in shifts:
                arg = (x[None, None, :] - y + np.array([mx, my]) * grid.L) / t
                w = psi.spatial(arg) / t ** 2
                total += (f.values * w[..., None]).sum(axis=(0, 1)) * grid.cell_volume
    return total


@pytest.mark.parametrize("n,N", [(1, 128), (2, 32)])
def test_resolve_matches_direct_quadrature(n, N):
    grid = SpatialGrid(n, N)
    scales = ScaleGrid(0.05, 0.2, 5)
    space = ell(2, 2)
    f = bandlimited(grid, space, seed=2, band=N // 8)
    psi = mexican_hat(n)
    F = resolve(f, psi, scales)
    gen = np.random.default_rng(3)
    for _ in range(10 if n == 1 else 4):
        k = int(gen.integers(0, scales.K))
        if n == 1:
            xi = int(gen.integers(0, N))
            got = F.values[k, xi]
        else:
            xi = (int(gen.integers(0, N)), int(gen.integers(0, N)))
            got = F.values[k, xi[0], xi[1]]
        want = brute_resolve_at(f, psi, scales.nodes()[k], xi)
        assert np.allclose(got, want, rtol=1e-6, atol=1e-9)


def test_resolve_linear_in_f():
    grid = SpatialGrid(1, 64)
    scales = ScaleGrid(0.02, 0.2, 4)
    space = ell(1, 3)
    f1 = bandlimited(grid, space, seed=4)
    f2 = bandlimited(grid, space, seed=5)
    psi = mexican_hat(1)
    both = SampledFunction(grid, space, 2.0 * f1.values - 1j * f2.values)
    F = resolve(both, psi, scales)
    want = 2.0 * resolve(f1, psi, scales).values - 1j * resolve(f2, psi, scales).values
    assert np.allclose(F.values, want, atol=1e-12)


def test_resolve_dilation_covariance():
    # f_lam(x) = f(2x): resolve(f_lam)(x, t) = resolve(f)(2x, 2t) at shared nodes
    grid = SpatialGrid(1, 128)
    f = bandlimited(grid, ell(2, 1), seed=6, band=8)
    scales = ScaleGrid(0.02, 0.08, 5)
    doubled = ScaleGrid(0.04, 0.16, 5)
    f_lam = SampledFunction(grid, f.space, f.values[(2 * np.arange(128)) % 128])
    psi = mexican_hat(1)
    F_lam = resolve(f_lam, psi, scales)
    F = resolve(f, psi, doubled)
    got = F_lam.values[:, np.arange(128)]
    want = F.values[:, (2 * np.arange(128)) % 128]
    assert np.allclose(got, want, atol=1e-10)


def test_nondegeneracy_margins():
    scales = ScaleGrid(1e-2, 1e2, 64)
    assert nondegeneracy_margin(mexican_hat(1), 2, scales) > 0.1
    assert nondegeneracy_margin(dgauss_1(2), 32, scales) < 1e-12
    bp = bandpass_meyer(1, a=1.0, b=16.0)
    assert nondegeneracy_margin(bp, 2, ScaleGrid(0.5, 32.0, 256)) == pytest.approx(1.0, abs=1e-12)


def test_mexican_hat_margin_closed_form():
    # |psi_hat(t)| = t^2 exp(-t^2/2) maximized over the nodes
    scales = ScaleGrid(1e-2, 1e2, 64)
    t = scales.nodes()
    oracle = float((t ** 2 * np.exp(-t ** 2 / 2)).max())
    assert nondegeneracy_margin(mexican_hat(1), 2, scales) == pytest.approx(oracle, rel=1e-12)


def test_complementary_rejects_degenerate():
    with pytest.raises(ValueError):
        complementary(dgauss_1(2))


def test_complementary_vanishes_at_origin_and_low_band():
    phi = complementary(mexican_hat(1))
    a = mexican_hat(1).band[0]
    assert phi.fourier(np.array([0.0]))[0] == 0.0
    assert np.all(phi.fourier(np.linspace(-a / 2, a / 2, 9)) == 0.0)
    assert phi.integral == 0.0


def per_point_phi_hat(psi, xi, quad_points=512, edge=0.25):
    """Independent reference: the normalizer D quadrature run at every point.

    A direct transcription of the per-point formula, with the quadrature
    summed over the node axis in both dimensions.
    """
    a, b = psi.band
    n = psi.n
    chi = _annulus_bump(a, b, edge)
    dlog = math.log(b / a) / quad_points
    s_nodes = np.exp(math.log(a) + (np.arange(quad_points) + 0.5) * dlog)
    chi_s = chi(s_nodes)
    xi = np.asarray(xi, dtype=float)
    r = np.sqrt(_sqnorm(xi, n))
    cut = chi(r)
    out = np.zeros(r.shape, dtype=complex)
    active = cut > 0.0
    if n == 1:
        units = -np.sign(xi[active])
        pts = units[..., None] * s_nodes
    else:
        units = -xi[active] / r[active][..., None]
        pts = units[..., None, :] * s_nodes[:, None]
    D = (np.abs(np.asarray(psi.fourier(pts))) ** 2 * chi_s).sum(axis=-1) * dlog
    out[active] = cut[active] * np.conj(psi.fourier(-xi[active])) / D
    return out


def skewed_hat(n):
    """Mexican hat weighted by direction, so D differs from ray to ray."""
    hat = mexican_hat(n)

    def four(xi):
        xi = np.asarray(xi, dtype=float)
        r = np.sqrt(_sqnorm(xi, n))
        first = xi if n == 1 else xi[..., 0]
        cos = np.divide(first, r, out=np.zeros_like(r), where=r > 0)
        return hat.fourier(xi) * (2.0 + cos)

    return TestFunction("skewed_hat", n, four, band=hat.band)


@pytest.mark.parametrize("make", [mexican_hat, skewed_hat])
def test_complementary_matches_per_point_normalizer_1d(make):
    # the benchmark lattice: n=1, N=512, every scale of the default grid
    grid = SpatialGrid(1, 512)
    psi = make(1)
    phi = complementary(psi)
    for t in ScaleGrid(2.0 * grid.spacing, 0.25, 32).nodes():
        ref = per_point_phi_hat(psi, t * grid.xi())
        assert np.array_equal(phi.fourier_grid(grid, t), ref)


@pytest.mark.parametrize("make", [mexican_hat, bandpass_meyer, skewed_hat])
def test_complementary_matches_per_point_normalizer_2d(make):
    grid = SpatialGrid(2, 32)
    psi = make(2)
    phi = complementary(psi)
    active = 0
    for t in ScaleGrid(2.0 * grid.spacing, 0.25, 8).nodes():
        ref = per_point_phi_hat(psi, t * grid.xi())
        active += int(np.count_nonzero(ref))
        # -0.0 and 0.0 coordinates share one direction in the new path
        np.testing.assert_allclose(phi.fourier_grid(grid, t), ref, rtol=1e-14, atol=0)
    assert active > 0


def test_fourier_grid_keeps_its_last_result():
    base = mexican_hat(1)
    calls = []

    def counted(xi):
        calls.append(1)
        return base.fourier(xi)

    psi = TestFunction("counted", 1, counted)
    grid, wide = SpatialGrid(1, 64), SpatialGrid(1, 128)
    t = ScaleGrid(2.0 * grid.spacing, 0.25, 8).nodes()

    def uncached(g, s):
        return np.asarray(base.fourier(np.asarray(s)[..., None] * g.xi()), dtype=complex)

    first = psi.fourier_grid(grid, t)
    assert np.array_equal(first, uncached(grid, t))
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 0.0
    assert psi.fourier_grid(grid, t.copy()) is first and len(calls) == 1
    # new scales (also the same bytes in another shape), a new grid, and a
    # reassigned transform each evaluate afresh
    for g, s in ((grid, t[:4]), (grid, t[0]), (grid, t[:1]), (wide, t)):
        assert np.array_equal(psi.fourier_grid(g, s), uncached(g, s))
    assert len(calls) == 5
    psi.fourier = lambda xi: 2.0 * base.fourier(xi)
    assert np.array_equal(psi.fourier_grid(wide, t), 2.0 * uncached(wide, t))


def test_complementary_builds_in_2d():
    # 7 rays, off the lattice axes, at two radii inside both annuli
    ang = 2.0 * math.pi * np.arange(7) / 7 + 0.1
    rays = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    freqs = np.concatenate([rays, 3.0 * rays])
    for psi, tol in ((mexican_hat(2), 1e-8), (bandpass_meyer(2), 1e-4)):
        phi = complementary(psi)
        assert phi.n == 2 and phi.integral == 0.0
        assert reproducing_residual(psi, phi, freqs, 1e-3, 1e3, 256) < tol


def test_reproducing_residual_mexican_hat():
    phi = complementary(mexican_hat(1))
    # frequencies for which [1e-3, 1e3] covers the annulus in t|xi|
    freqs = np.geomspace(0.05, 80.0, 16)
    freqs[::2] *= -1.0
    res = reproducing_residual(mexican_hat(1), phi, freqs, 1e-3, 1e3, 256)
    assert res < 1e-3


def test_reproducing_residual_zero_phi_is_one():
    zero = TestFunction("zero", 1, lambda xi: np.zeros_like(np.asarray(xi, dtype=float)))
    res = reproducing_residual(mexican_hat(1), zero, np.array([1.0, 5.0]))
    assert res == pytest.approx(1.0)


def test_reproducing_residual_refines():
    phi = complementary(mexican_hat(1))
    freqs = np.geomspace(0.1, 50.0, 8)
    res = [
        reproducing_residual(mexican_hat(1), phi, freqs, 1e-3, 1e3, q)
        for q in (64, 128, 256)
    ]
    assert res[1] <= res[0] * 1.05 + 1e-12
    assert res[2] <= res[1] * 1.05 + 1e-12


def test_complementary_stable_under_quadrature_doubling():
    a, b = mexican_hat(1).band
    phi1 = complementary(mexican_hat(1), quad_points=512)
    phi2 = complementary(mexican_hat(1), quad_points=1024)
    xi = np.geomspace(a * 0.9, b * 1.1, 200)
    xi = np.concatenate([xi, -xi])
    diff = np.abs(phi1.fourier(xi) - phi2.fourier(xi)).max()
    assert diff < 1e-6


def test_gauss_bump_integral_and_registry():
    gb = gauss_bump(1)
    assert gb.integral == 1.0
    assert gb.fourier(np.array([0.0]))[0] == pytest.approx(1.0)
    assert make_test_function("mexican_hat", 2).n == 2
    with pytest.raises(KeyError):
        make_test_function("nope")


def test_custom_from_samples_matches_closed_form():
    from tentspace.calderon import custom_from_samples
    from tentspace.field import SampledFunction
    from tentspace.space import ell

    def build(N, L):
        grid = SpatialGrid(1, N, L)
        x = grid.coords()
        x_wrapped = np.where(x > grid.L / 2, x - grid.L, x)
        vals = mexican_hat(1).spatial(x_wrapped)[:, None].astype(complex)
        return custom_from_samples(SampledFunction(grid, ell(2, 1), vals))

    psi = mexican_hat(1)
    xi = np.geomspace(0.5, 10, 30)
    xi = np.concatenate([xi, -xi])
    coarse = build(1024, 16.0)
    fine = build(4096, 64.0)
    err_coarse = np.abs(coarse.fourier(xi) - psi.fourier(xi)).max()
    err_fine = np.abs(fine.fourier(xi) - psi.fourier(xi)).max()
    # log-linear tabulation: error set by the lattice density, shrinking
    # as the table refines
    assert err_coarse < 0.05
    assert err_fine < err_coarse / 2
    assert abs(coarse.integral) < 1e-10
    assert coarse.fourier(np.array([0.0]))[0] == coarse.integral
    assert coarse.band is not None


def test_custom_from_samples_rejects_2d_and_vector():
    from tentspace.calderon import custom_from_samples
    from tentspace.field import SampledFunction
    from tentspace.space import ell

    g2 = SpatialGrid(2, 8)
    f2 = SampledFunction(g2, ell(2, 1), np.zeros((8, 8, 1), dtype=complex))
    with pytest.raises(ValueError):
        custom_from_samples(f2)
    g1 = SpatialGrid(1, 8)
    fv = SampledFunction(g1, ell(2, 2), np.zeros((8, 2), dtype=complex))
    with pytest.raises(ValueError):
        custom_from_samples(fv)
