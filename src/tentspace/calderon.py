"""Test functions, FFT resolution, and complementary-function construction.

A test function is represented by its continuous Fourier transform (closed
form where available), sampled on the grid's frequency lattice at each
dilation.  The resolution of a sampled function f is the field
F(x, t_k) = f * psi_{t_k}(x), computed as an exact cyclic convolution:
multiply the DFT of f by psi_hat(t_k * xi) on the lattice xi = 2*pi*m/L.

The complementary function of a non-degenerate psi realizes the
reproducing identity: integrating psi_hat(t xi) phi_hat(-t xi) dt/t over
all dilations gives 1 on every ray, which is what makes pairs (psi, phi)
usable in the paraproduct and duality experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .field import HalfSpaceField, SampledFunction, ScaleGrid, SpatialGrid

__all__ = [
    "TestFunction",
    "mexican_hat",
    "dgauss_1",
    "bandpass_meyer",
    "gauss_bump",
    "resolve",
    "nondegeneracy_margin",
    "complementary",
    "reproducing_residual",
    "make_test_function",
]


@dataclass
class TestFunction:
    """Test function with closed-form transform and optional spatial form.

    ``fourier`` maps frequency arrays to complex values: shape (...,) for
    n=1, shape (..., 2) for n=2.  ``integral`` is psi_hat(0).  ``band`` is
    the dilation range (s_lo, s_hi) carrying the transform's mass; it seeds
    the default annulus of the complementary construction.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    name: str
    n: int
    fourier: Callable[[np.ndarray], np.ndarray]
    spatial: Callable[[np.ndarray], np.ndarray] | None = None
    integral: float = 0.0
    band: tuple[float, float] | None = None
    _memo: tuple | None = dc_field(default=None, init=False, repr=False,
                                   compare=False)

    def fourier_grid(self, grid: SpatialGrid, t) -> np.ndarray:
        """psi_hat(t * xi) on the grid's frequency lattice, read-only.

        A scalar t gives the lattice shape; a 1-D array of K scales gives
        (K, *lattice), one multiplier per scale from a single call.  The
        last result is kept, keyed by (fourier, grid, t), so resolving and
        paraproducts that repeat a lattice and scales evaluate the
        transform once; reassigning ``fourier`` invalidates it.
        """
        if grid.n != self.n:
            raise ValueError(f"{self.name} is {self.n}-dimensional, grid is {grid.n}")
        t = np.asarray(t, dtype=float)
        if t.ndim > 1:
            raise ValueError("scales must be a scalar or a 1-D array")
        key = (self.fourier, grid, t.shape, t.tobytes())
        last = self._memo  # one read: threads may replace it meanwhile
        if last is not None and last[0] == key:
            return last[1]
        xi = grid.xi()
        out = np.asarray(self.fourier(t.reshape(t.shape + (1,) * xi.ndim) * xi),
                         dtype=complex)
        out.flags.writeable = False
        self._memo = (key, out)
        return out

    def reflected(self) -> "TestFunction":
        """x -> psi(-x); transform xi -> psi_hat(-xi)."""
        four = self.fourier
        spat = self.spatial
        return TestFunction(
            name=f"{self.name}~",
            n=self.n,
            fourier=lambda xi: four(-np.asarray(xi)),
            spatial=None if spat is None else (lambda x: spat(-np.asarray(x))),
            integral=self.integral,
            band=self.band,
        )


def _sqnorm(xi: np.ndarray, n: int) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    if n == 1:
        return xi * xi
    return xi[..., 0] * xi[..., 0] + xi[..., 1] * xi[..., 1]


def mexican_hat(n: int = 1) -> TestFunction:
    """Laplacian-of-Gaussian: psi_hat(xi) = |xi|^2 exp(-|xi|^2/2).

    Mean zero and radial, hence non-degenerate in any dimension.
    """
    def four(xi):
        s2 = _sqnorm(xi, n)
        return s2 * np.exp(-s2 / 2.0)

    def spat(x):
        x = np.asarray(x, dtype=float)
        r2 = _sqnorm(x, n)
        if n == 1:
            return (1.0 - r2) * np.exp(-r2 / 2.0) / math.sqrt(2.0 * math.pi)
        return (2.0 - r2) * np.exp(-r2 / 2.0) / (2.0 * math.pi)

    return TestFunction("mexican_hat", n, four, spat, integral=0.0, band=(0.1, 20.0))


def dgauss_1(n: int = 1) -> TestFunction:
    """First-coordinate derivative of a Gaussian.

    Non-degenerate for n=1; for n=2 the transform vanishes on the ray
    xi_1 = 0, making this the canonical degenerate example.
    """
    def four(xi):
        xi = np.asarray(xi, dtype=float)
        s2 = _sqnorm(xi, n)
        first = xi if n == 1 else xi[..., 0]
        return 1j * first * np.exp(-s2 / 2.0)

    def spat(x):
        x = np.asarray(x, dtype=float)
        r2 = _sqnorm(x, n)
        first = x if n == 1 else x[..., 0]
        return -first * np.exp(-r2 / 2.0) / (2.0 * math.pi) ** (n / 2.0)

    return TestFunction("dgauss_1", n, four, spat, integral=0.0, band=(0.05, 10.0))


def _smoothstep_inf(v: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for v<=0, 1 for v>=1, exp-based blend between."""
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    out[v >= 1.0] = 1.0
    mid = (v > 0.0) & (v < 1.0)
    vm = v[mid]
    fa = np.exp(-1.0 / vm)
    fb = np.exp(-1.0 / (1.0 - vm))
    out[mid] = fa / (fa + fb)
    return out


def _annulus_bump(a: float, b: float, edge: float) -> Callable[[np.ndarray], np.ndarray]:
    """Smooth radial bump supported exactly in a < |xi| < b (log scale)."""
    if not (0.0 < a < b):
        raise ValueError("need 0 < a < b for the annulus")
    if not (0.0 < edge <= 0.5):
        raise ValueError("edge fraction must lie in (0, 0.5]")
    la, lb = math.log(a), math.log(b)
    width = lb - la

    def chi(r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        pos = r > 0.0
        u = (np.log(r[pos]) - la) / width
        out[pos] = _smoothstep_inf(u / edge) * _smoothstep_inf((1.0 - u) / edge)
        return out

    return chi


def bandpass_meyer(n: int = 1, a: float = 8.0, b: float = 64.0,
                   edge: float = 0.25) -> TestFunction:
    """Radial bandpass prototype: smooth transform supported in an annulus."""
    chi = _annulus_bump(a, b, edge)

    def four(xi):
        return chi(np.sqrt(_sqnorm(xi, n))).astype(complex)

    return TestFunction(f"bandpass_meyer[{a:g},{b:g}]", n, four, None, integral=0.0,
                        band=(a, b))


def gauss_bump(n: int = 1) -> TestFunction:
    """Gaussian approximate identity with unit integral (not mean-zero)."""
    def four(xi):
        return np.exp(-_sqnorm(xi, n) / 2.0).astype(complex)

    def spat(x):
        return np.exp(-_sqnorm(x, n) / 2.0) / (2.0 * math.pi) ** (n / 2.0)

    return TestFunction("gauss_bump", n, four, spat, integral=1.0)


_FAMILIES = {
    "mexican_hat": mexican_hat,
    "dgauss_1": dgauss_1,
    "bandpass_meyer": bandpass_meyer,
    "gauss_bump": gauss_bump,
}


def make_test_function(name: str, n: int = 1, **kwargs) -> TestFunction:
    if name not in _FAMILIES:
        raise KeyError(f"unknown test function {name!r}; have {sorted(_FAMILIES)}")
    return _FAMILIES[name](n, **kwargs)


def custom_from_samples(f: SampledFunction, name: str = "custom") -> TestFunction:
    """Test function from spatial samples on a one-dimensional grid.

    The transform is tabulated on the grid's frequency lattice (discrete
    transform of the samples times the cell size) and evaluated at
    arbitrary dilations by interpolation: log-linear in |xi| on each ray,
    linear through the origin below the first lattice point, zero beyond
    the Nyquist frequency.
    """
    grid = f.grid
    if grid.n != 1:
        raise ValueError("custom test functions support n=1 only")
    if f.space.dim != 1:
        raise ValueError("custom test functions must be scalar-valued")
    samples = f.values[:, 0]
    hat = np.fft.fft(samples) * grid.cell_volume
    xi = grid.xi()
    order = np.argsort(xi)
    xi_sorted, hat_sorted = xi[order], hat[order]
    pos = xi_sorted > 0
    neg = xi_sorted < 0
    zero_val = complex(hat_sorted[xi_sorted == 0][0])
    tables = {
        +1: (np.log(xi_sorted[pos]), hat_sorted[pos]),
        -1: (np.log(-xi_sorted[neg][::-1]), hat_sorted[neg][::-1]),
    }
    xi_lo = float(np.min(np.abs(xi_sorted[pos])))
    xi_hi = float(np.max(np.abs(xi_sorted)))

    def interp_ray(sign: int, r: np.ndarray) -> np.ndarray:
        logr, vals = tables[sign]
        out = np.zeros(r.shape, dtype=complex)
        inside = (r >= xi_lo) & (r <= xi_hi)
        if inside.any():
            lr = np.log(r[inside])
            out[inside] = (np.interp(lr, logr, vals.real)
                           + 1j * np.interp(lr, logr, vals.imag))
        low = (r > 0) & (r < xi_lo)
        if low.any():
            first = vals[0]
            frac = r[low] / xi_lo
            out[low] = zero_val + frac * (first - zero_val)
        return out

    def four(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=complex)
        out[x == 0] = zero_val
        for sign in (+1, -1):
            sel = (np.sign(x) == sign)
            if sel.any():
                out[sel] = interp_ray(sign, np.abs(x[sel]))
        return out

    mags = np.abs(hat_sorted)
    active = np.abs(xi_sorted)[mags > 0.01 * mags.max()]
    band = (float(active.min()), float(active.max())) if active.size else None
    return TestFunction(name, 1, four, None, integral=float(zero_val.real),
                        band=band)


def resolve(f: SampledFunction, psi: TestFunction, scales: ScaleGrid) -> HalfSpaceField:
    """Resolution F(x, t_k) = f * psi_{t_k}(x) by exact cyclic convolution."""
    grid = f.grid
    fhat = np.fft.fftn(f.values, axes=tuple(range(grid.n)))
    out = fhat * psi.fourier_grid(grid, scales.nodes())[..., None]
    axes = tuple(range(1, 1 + grid.n))
    return HalfSpaceField(grid, scales, f.space, np.fft.ifftn(out, axes=axes, out=out))


def unit_directions(n: int, count: int) -> np.ndarray:
    """count unit vectors: signs on the line, uniform angles on the circle."""
    if n == 1:
        return np.array([1.0, -1.0]) if count >= 2 else np.array([1.0])
    ang = 2.0 * math.pi * np.arange(count) / count
    return np.stack([np.cos(ang), np.sin(ang)], axis=-1)


def _ray_points(units: np.ndarray, t: np.ndarray) -> np.ndarray:
    """t * u for nodes t (axis 1) on rays u: (m,) signs or (m, 2) vectors."""
    return units[:, None] * t.reshape((-1,) + (1,) * (units.ndim - 1))


def nondegeneracy_margin(psi: TestFunction, directions: int,
                         scales: ScaleGrid) -> float:
    """min over rays of max over the scale nodes of |psi_hat(t * xi)|.

    A margin at the floating-point floor flags a degenerate psi.
    """
    if directions < 1:
        raise ValueError("need at least one direction")
    pts = _ray_points(unit_directions(psi.n, directions), scales.nodes())
    return float(np.abs(psi.fourier(pts)).max(axis=1).min())


def complementary(
    psi: TestFunction,
    a: float | None = None,
    b: float | None = None,
    edge: float = 0.25,
    quad_points: int = 512,
    margin_tol: float = 1e-8,
) -> TestFunction:
    """Complementary function phi for a non-degenerate psi.

    phi_hat(-xi) = chi(xi) conj(psi_hat(xi)) / D(xi) with a smooth annulus
    bump chi supported in a < |xi| < b and D the dilation-invariant
    normalizer, computed by log-uniform midpoint quadrature over the support
    of chi.  D depends only on the direction of xi, so each call evaluates
    it once per distinct input direction (two rays on the line) and
    scatters the values back.  chi vanishes near the origin, so phi has
    vanishing integral by construction.

    The annulus defaults to psi's own transform band: chi * psi_hat must be
    non-null on every ray, so (a, b) has to straddle the dilations where
    the transform carries mass, or the normalizer underflows.

    Raises if psi is degenerate on any probed ray or if the normalizer
    falls below tolerance where chi is active.
    """
    if a is None or b is None:
        if psi.band is None:
            raise ValueError(f"{psi.name} has no default band; pass (a, b)")
        a = psi.band[0] if a is None else a
        b = psi.band[1] if b is None else b
    chi = _annulus_bump(a, b, edge)
    probe = ScaleGrid(a, b, max(quad_points, 64))
    if nondegeneracy_margin(psi, 32, probe) < margin_tol:  # both signs when n = 1
        raise ValueError(f"{psi.name} is degenerate: no complementary function")

    dlog = math.log(b / a) / quad_points
    s_nodes = np.exp(math.log(a) + (np.arange(quad_points) + 0.5) * dlog)
    chi_s = chi(s_nodes)
    n = psi.n

    def ray_normalizer(units: np.ndarray) -> np.ndarray:
        vals = np.abs(np.asarray(psi.fourier(_ray_points(units, s_nodes)))) ** 2
        return (vals * chi_s).sum(axis=-1) * dlog

    def phi_hat(xi):
        xi = np.asarray(xi, dtype=float)
        r = np.sqrt(_sqnorm(xi, n))
        cut = chi(r)
        out = np.zeros(r.shape, dtype=complex)
        active = cut > 0.0
        if not np.any(active):
            return out
        if n == 1:
            units = -np.sign(xi[active])
        else:
            units = -xi[active] / r[active][..., None]
        rays, inverse = np.unique(units, axis=0, return_inverse=True)
        D_rays = ray_normalizer(rays)
        if np.any(D_rays < margin_tol):
            raise ValueError(
                f"normalizer below tolerance on ray {rays[np.argmin(D_rays)]}")
        # numpy 2.0.0 returns a column-shaped inverse when axis is given
        D = D_rays[inverse.reshape(-1)]
        out[active] = cut[active] * np.conj(psi.fourier(-xi[active])) / D
        return out

    return TestFunction(
        name=f"complementary({psi.name})", n=n, fourier=phi_hat, spatial=None,
        integral=0.0,
    )


def reproducing_residual(
    psi: TestFunction,
    phi: TestFunction,
    frequencies: np.ndarray,
    t_lo: float = 1e-3,
    t_hi: float = 1e3,
    quad_points: int = 256,
) -> float:
    """max over sample frequencies of |quadrature of the pairing - 1|.

    The quadrature is a log-uniform midpoint rule on [t_lo, t_hi], which
    must cover the support of t -> psi_hat(t xi) phi_hat(-t xi).
    """
    dlog = math.log(t_hi / t_lo) / quad_points
    t = np.exp(math.log(t_lo) + (np.arange(quad_points) + 0.5) * dlog)
    # one frequency per row: (m,) on the line, (m, 2) in the plane
    xi = np.reshape(frequencies, (-1,) + (psi.n,) * (psi.n - 1))
    pts = _ray_points(xi, t)
    integrand = np.asarray(psi.fourier(pts)) * np.asarray(phi.fourier(-pts))
    return float(np.abs(integrand.sum(axis=-1) * dlog - 1.0).max(initial=0.0))
