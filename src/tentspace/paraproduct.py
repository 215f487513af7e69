"""Paraproduct of a vector-valued symbol with a scalar function.

P(f, u) accumulates, over the scale grid, the slices
psi_t * [(psi_t * f) (phi_t * u)], every convolution an exact cyclic one.
All K slices are computed together as one (K, *spatial, d) array: one
call per test function gives its multipliers at every scale, and each
FFT runs over the spatial axes of the whole stack.  The same slices back
both the sampled field and the dual pairing <P(f, u), g>, so the two
agree up to summation-order roundoff.

Per-scale contribution norms are kept as diagnostics, one L^2 sum per
slice.  Their end values relative to the peak are reported separately:
``tail_fine`` at t_min and ``tail_coarse`` at t_max.  When either end
still carries more than ``tail_tol`` of the peak, the scale band is too
narrow and the result is flagged as truncated.  Raising t_max shrinks
the coarse tail; lowering t_min shrinks the fine one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calderon import TestFunction
from .field import SampledFunction, ScaleGrid
from .space import dual, norm, pair

__all__ = ["ParaproductResult", "paraproduct", "pair_paraproduct", "lp_norm"]

_MEAN_ZERO_TOL = 1e-12
TAIL_TOL = 0.05  # default end-slice share of the peak that flags truncation


@dataclass
class ParaproductResult:
    field: SampledFunction
    scale_norms: np.ndarray  # dlog-weighted L^2 size of each slice
    truncated: bool
    tail_fine: float = 0.0  # scale_norms[0] / peak: the t_min end
    tail_coarse: float = 0.0  # scale_norms[-1] / peak: the t_max end


def _check_inputs(f: SampledFunction, u: SampledFunction, psi: TestFunction):
    if abs(psi.integral) > _MEAN_ZERO_TOL:
        raise ValueError(f"{psi.name} must have vanishing integral")
    if f.grid != u.grid:
        raise ValueError("symbol and function must share a grid")
    if u.space.dim != 1:
        raise ValueError("u must be scalar-valued")


def _slices(f, u, psi, phi, scales) -> np.ndarray:
    """All K slices psi_t*[(psi_t*f)(phi_t*u)] at once, shape (K, *spatial, d)."""
    grid = f.grid
    space_axes = tuple(range(grid.n))
    axes = tuple(range(1, 1 + grid.n))  # the same axes behind the scale axis
    t = scales.nodes()
    mp = psi.fourier_grid(grid, t)[..., None]  # (K, *lattice, 1)
    uhat = np.fft.fftn(u.values[..., 0], axes=space_axes)
    b = np.fft.ifftn(uhat * phi.fourier_grid(grid, t), axes=axes)
    a = np.fft.fftn(f.values, axes=space_axes) * mp
    np.fft.ifftn(a, axes=axes, out=a)
    a *= b[..., None]
    np.fft.fftn(a, axes=axes, out=a)
    a *= mp
    return np.fft.ifftn(a, axes=axes, out=a)


def paraproduct(
    f: SampledFunction,
    u: SampledFunction,
    psi: TestFunction,
    phi: TestFunction,
    scales: ScaleGrid,
    tail_tol: float = TAIL_TOL,
) -> ParaproductResult:
    """P(f, u) on the grid, accumulated over the scale band.

    The field is the dlog-weighted sum of the stacked slices over the
    scale axis.  ``scale_norms[k]`` is dlog times the L^2 norm of slice
    k; ``tail_fine`` and ``tail_coarse`` are its first and last entries
    over its peak, and ``truncated`` says that either exceeds
    ``tail_tol``.
    """
    _check_inputs(f, u, psi)
    grid = f.grid
    sl = _slices(f, u, psi, phi, scales)
    sq = (np.abs(sl) ** 2).reshape(scales.K, -1).sum(axis=1)  # one sum per slice
    contrib = scales.dlog * np.sqrt(sq * grid.cell_volume)
    sl *= scales.dlog
    acc = sl.sum(axis=0)
    peak = contrib.max()
    tail_fine = float(contrib[0] / peak) if peak > 0 else 0.0
    tail_coarse = float(contrib[-1] / peak) if peak > 0 else 0.0
    truncated = bool(peak > 0 and max(contrib[0], contrib[-1]) > tail_tol * peak)
    return ParaproductResult(
        SampledFunction(grid, f.space, acc), contrib, truncated,
        tail_fine=tail_fine, tail_coarse=tail_coarse,
    )


def pair_paraproduct(
    f: SampledFunction,
    u: SampledFunction,
    g: SampledFunction,
    psi: TestFunction,
    phi: TestFunction,
    scales: ScaleGrid,
) -> complex:
    """<P(f, u), g> accumulated scale by scale.

    g lives in the dual target; the value equals pairing paraproduct(f, u)
    against g directly, up to summation-order roundoff.
    """
    _check_inputs(f, u, psi)
    if g.grid != f.grid:
        raise ValueError("g must share the grid")
    if dual(f.space) != g.space:
        raise ValueError(
            f"g must take values in the dual of {f.space.label()}, "
            f"got {g.space.label()}"
        )
    sl = _slices(f, u, psi, phi, scales)
    per_scale = pair(sl, g.values).reshape(scales.K, -1).sum(axis=1)
    return complex((scales.dlog * (per_scale * f.grid.cell_volume)).sum())


def lp_norm(v: SampledFunction, p) -> float:
    """L^p norm with grid-cell weights; p=None or inf gives the sup norm."""
    pointwise = norm(v.space, v.values)
    if p is None or p == math.inf:
        return float(pointwise.max())
    if p < 1:
        raise ValueError("p must be at least 1")
    return float(((pointwise ** p).sum() * v.grid.cell_volume) ** (1.0 / p))
