"""Circular sliding-window sums and maxima on the torus grid.

Window membership is always the strict predicate dist(offset) < radius,
with offset distances taken from the grid's index-exact distance table, so
that mask-based oracles and the fast paths here agree on boundary atoms.

n=1 sums use a padded cumulative sum (adding nonnegative terms to a running
prefix never decreases it, so window-inclusion monotonicity is exact in
floating point); n=2 sums use FFT convolution with disc indicator masks.
Maxima use scipy.ndimage rank filters and are exact in both dimensions.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .field import SpatialGrid

__all__ = [
    "radius_halfwidth",
    "window_count",
    "window_sum",
    "window_max",
    "per_scale_window_sum",
    "per_scale_window_max",
]


def radius_halfwidth(grid: SpatialGrid, radius) -> tuple[np.ndarray, np.ndarray]:
    """n=1 window halfwidth(s) for dist < radius, plus full-circle flags."""
    r = np.atleast_1d(np.asarray(radius, dtype=float))
    half = np.arange(1, grid.N // 2 + 1) * grid.spacing
    h = np.searchsorted(half, r, side="left")
    full = h == grid.N // 2
    h = np.where(full, grid.N // 2, h)
    return h.astype(np.int64), full


def disc_mask(grid: SpatialGrid, radius: float) -> np.ndarray:
    """n=2 boolean offset mask for dist < radius, shape (N, N)."""
    return grid.offset_distance() < radius


def window_count(grid: SpatialGrid, radius: float) -> int:
    """Number of grid points in an open ball of the given radius."""
    if grid.n == 1:
        h, full = radius_halfwidth(grid, radius)
        return grid.N if bool(full[0]) else int(2 * h[0] + 1)
    return int(disc_mask(grid, radius).sum())


def _rows_1d(arr: np.ndarray, N: int) -> tuple[np.ndarray, tuple]:
    shape = arr.shape
    return arr.reshape(-1, N), shape


def _circ_sum_rows(rows: np.ndarray, h: np.ndarray, full: np.ndarray) -> np.ndarray:
    """Windowed circular sums of each row with its own halfwidth."""
    R, N = rows.shape
    H = N // 2
    ext = np.concatenate([rows[:, N - H:], rows, rows[:, :H]], axis=1)
    cs = np.concatenate(
        [np.zeros((R, 1), dtype=rows.dtype), np.cumsum(ext, axis=1)], axis=1
    )
    x = np.arange(N)[None, :]
    hh = h[:, None]
    out = np.take_along_axis(cs, H + x + hh + 1, axis=1) - np.take_along_axis(
        cs, H + x - hh, axis=1
    )
    if np.any(full):
        out[full] = rows[full].sum(axis=1, keepdims=True)
    return out


def _circ_max_rows(rows: np.ndarray, h: np.ndarray, full: np.ndarray) -> np.ndarray:
    out = np.empty_like(rows)
    for hv in np.unique(h[~full]) if np.any(~full) else []:
        sel = (~full) & (h == hv)
        out[sel] = ndimage.maximum_filter1d(
            rows[sel], size=int(2 * hv + 1), axis=-1, mode="wrap"
        )
    if np.any(full):
        out[full] = rows[full].max(axis=1, keepdims=True)
    return out


def _fft_disc_sum(fields: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Circular correlation of each (N, N) field with a symmetric mask."""
    mhat = np.fft.fft2(mask.astype(float))
    fhat = np.fft.fft2(fields, axes=(-2, -1))
    out = np.fft.ifft2(fhat * mhat, axes=(-2, -1))
    if np.isrealobj(fields):
        return out.real
    return out


def _disc_max(fields: np.ndarray, mask: np.ndarray) -> np.ndarray:
    N = mask.shape[0]
    footprint = np.fft.fftshift(mask)
    # crop the footprint to its bounding box around the center for speed
    rows = np.nonzero(footprint.any(axis=1))[0]
    cols = np.nonzero(footprint.any(axis=0))[0]
    lo_r, hi_r = rows.min(), rows.max()
    lo_c, hi_c = cols.min(), cols.max()
    c = N // 2
    half = max(c - lo_r, hi_r - c, c - lo_c, hi_c - c)
    fp = footprint[c - half: c + half + 1, c - half: c + half + 1]
    flat = fields.reshape(-1, N, N)
    out = np.empty_like(flat)
    for i in range(flat.shape[0]):
        out[i] = ndimage.maximum_filter(flat[i], footprint=fp, mode="wrap")
    return out.reshape(fields.shape)


def window_sum(grid: SpatialGrid, arr: np.ndarray, radius: float) -> np.ndarray:
    """Sum of arr over the open ball of ``radius`` around every grid point.

    arr has shape (..., N) for n=1 or (..., N, N) for n=2.
    """
    if grid.n == 1:
        rows, shape = _rows_1d(arr, grid.N)
        h, full = radius_halfwidth(grid, radius)
        R = rows.shape[0]
        out = _circ_sum_rows(rows, np.full(R, h[0]), np.full(R, full[0]))
        return out.reshape(shape)
    return _fft_disc_sum(arr, disc_mask(grid, radius))


def window_max(grid: SpatialGrid, arr: np.ndarray, radius: float) -> np.ndarray:
    """Max of arr over the open ball of ``radius`` around every grid point."""
    if grid.n == 1:
        rows, shape = _rows_1d(arr, grid.N)
        h, full = radius_halfwidth(grid, radius)
        R = rows.shape[0]
        out = _circ_max_rows(rows, np.full(R, h[0]), np.full(R, full[0]))
        return out.reshape(shape)
    if disc_mask(grid, radius).sum() == grid.size:
        flat = arr.reshape(*arr.shape[:-2], -1).max(axis=-1)
        return np.broadcast_to(flat[..., None, None], arr.shape).copy()
    return _disc_max(arr, disc_mask(grid, radius))


def per_scale_window_sum(
    grid: SpatialGrid, arr: np.ndarray, radii: np.ndarray
) -> np.ndarray:
    """Windowed sums with one radius per scale.

    arr: (K, ..., *spatial); radii: (K,).  Scale k's slice is summed over
    the open ball of radius radii[k] around each point.
    """
    K = radii.shape[0]
    if arr.shape[0] != K:
        raise ValueError("leading axis of arr must match radii")
    if grid.n == 1:
        lead = arr.shape[:-1]
        rows = arr.reshape(-1, grid.N)
        reps = rows.shape[0] // K
        h, full = radius_halfwidth(grid, radii)
        h_rows = np.repeat(h, reps)
        full_rows = np.repeat(full, reps)
        return _circ_sum_rows(rows, h_rows, full_rows).reshape(*lead, grid.N)
    out = np.empty_like(arr)
    for k in range(K):
        out[k] = _fft_disc_sum(arr[k], disc_mask(grid, radii[k]))
    return out


def per_scale_window_max(
    grid: SpatialGrid, arr: np.ndarray, radii: np.ndarray
) -> np.ndarray:
    """Windowed maxima with one radius per scale; see per_scale_window_sum."""
    K = radii.shape[0]
    if arr.shape[0] != K:
        raise ValueError("leading axis of arr must match radii")
    if grid.n == 1:
        lead = arr.shape[:-1]
        rows = arr.reshape(-1, grid.N)
        reps = rows.shape[0] // K
        h, full = radius_halfwidth(grid, radii)
        return _circ_max_rows(
            rows, np.repeat(h, reps), np.repeat(full, reps)
        ).reshape(*lead, grid.N)
    out = np.empty_like(arr)
    for k in range(K):
        out[k] = window_max(grid, arr[k], radii[k])
    return out

