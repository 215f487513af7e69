"""Circular sliding-window sums and maxima on the torus grid.

Every window is the open ball dist(offset) < radius, with offset distances
taken from the grid's index-exact distance table, so that mask-based
oracles and the kernels here agree on boundary atoms.  ball_segments is
the one place that decides a ball's shape: it writes the ball as row
segments (row offset a, column halfwidth h), one segment in 1-D and one
per row offset in 2-D, listed centre-out (|a| ascending).

Both reductions run along the last axis only.  A segment sum is the
difference of two circular prefix sums of its row; a segment max is the
max of two overlapping reads from a doubling table of running maxima over
the same wrap-extended row (Bender and Farach-Colton, "The LCA problem
revisited", 2000), exact for max and numpy only.  A 2-D window
adds (or maxes) the segments of its rows, each rolled by its row offset,
from the centre row outward.  On nonnegative input every prefix is
nondecreasing, so a window sum is nonnegative, exactly zero away from the
input's support, and a larger radius only enlarges terms or appends new
ones: window-inclusion monotonicity is exact in floating point in both
dimensions.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .field import SpatialGrid

__all__ = [
    "ball_segments",
    "window_count",
    "window_sum",
    "window_max",
    "per_scale_window_sum",
    "per_scale_window_max",
]


@functools.lru_cache(maxsize=16)
def _row_distances(grid: SpatialGrid) -> tuple[np.ndarray, np.ndarray]:
    """Row offsets centre-out and their offset distances to columns 0..N/2."""
    half = grid.N // 2
    dist = grid.offset_distance()
    if grid.n == 1:
        a = np.zeros(1, dtype=np.int64)
        dist = dist[None]
    else:
        steps = np.arange(1, half + 1)
        a = np.concatenate([[0], np.stack([steps, -steps], axis=1).ravel()[:-1]])
        dist = dist[a % grid.N]
    dist = dist[:, : half + 1]
    a.flags.writeable = dist.flags.writeable = False
    return a, dist


def ball_segments(grid: SpatialGrid, radii) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The open balls dist(offset) < r, one per radius, as row segments.

    Returns (a, h, full).  a (S,) holds the row offsets centre-out: 0 in
    1-D; 0, 1, -1, 2, -2, ..., N/2 in 2-D.  h (K, S) holds each ball's
    column halfwidth on each row, -1 where the row misses the ball.  full
    (K, S) marks rows the ball covers whole (h == N/2), where the offsets
    -h..h would count column N/2 twice.
    """
    a, dist = _row_distances(grid)
    r = np.asarray(radii, dtype=float).reshape(-1, 1, 1)
    # a row meets the ball iff its column 0 does, so a missed row counts -1
    h = (dist < r).sum(axis=-1, dtype=np.int64) - 1
    return a, h, h == grid.N // 2


def window_count(grid: SpatialGrid, radius):
    """Number of grid points in an open ball of the given radius.

    A 1-D array of radii gives one count per radius from one call.
    """
    _, h, _ = ball_segments(grid, radius)
    counts = np.where(h >= 0, np.minimum(2 * h + 1, grid.N), 0).sum(axis=-1)
    return int(counts[0]) if np.ndim(radius) == 0 else counts


def _circ_sum_rows(rows: np.ndarray):
    """Segment sums of rows (K, R, N) from one set of circular prefix sums.

    Returns segment(ks, h, full): the rows of scales ``ks``, in that order,
    summed over the column offsets -h..h, one halfwidth per listed scale.
    """
    K, R, N = rows.shape
    H = N // 2
    shared = rows.strides[0] == 0  # a broadcast: every scale has the same rows
    src = rows[:1] if shared else rows
    ext = np.concatenate([src[..., N - H:], src, src[..., :H]], axis=-1)
    cs = np.concatenate(
        [np.zeros(src.shape[:2] + (1,), dtype=rows.dtype), np.cumsum(ext, axis=-1)],
        axis=-1,
    )
    cs = np.broadcast_to(cs, (K,) + cs.shape[1:])
    # starts[k, r, s, x] = cs[k, r, s + x]: every segment start as a view
    starts = as_strided(cs, shape=(K, R, 2 * H + 2, N),
                        strides=cs.strides + cs.strides[-1:], writeable=False)

    def segment(ks, h, full):
        out = starts[ks, :, H + h + 1] - starts[ks, :, H - h]
        if full.any():
            out[full] = rows[ks[full]].sum(axis=-1, keepdims=True)
        return out

    return segment


def _circ_max_rows(rows: np.ndarray):
    """Segment maxima of rows (K, R, N) from one doubling table of maxima.

    Level p of the table holds, at column c of the wrap-extended rows that
    _circ_sum_rows builds, the max of columns c..c + 2^p - 1.  A segment of
    width w = 2h + 1 is the max of two overlapping level-p reads with
    p = floor(log2 w), which is exact for max.  Levels are filled on first
    use, so only the widths asked for are paid for.
    """
    K, R, N = rows.shape
    H = N // 2
    shared = rows.strides[0] == 0
    src = rows[:1] if shared else rows
    width = N + 2 * H
    table = np.empty(((N - 1).bit_length(),) + src.shape[:2] + (width,),
                     dtype=rows.dtype)
    np.concatenate([src[..., N - H:], src, src[..., :H]], axis=-1, out=table[0])
    flat = table.reshape(table.shape[0], -1)
    filled = 1
    levels = np.broadcast_to(table, (table.shape[0], K) + table.shape[2:])
    # starts[p, k, r, s, x] = table[p, k, r, s + x]: every level-p read as a view
    starts = as_strided(levels, shape=levels.shape[:3] + (width - N + 1, N),
                        strides=levels.strides + levels.strides[-1:], writeable=False)

    def segment(ks, h, full):
        nonlocal filled
        out = np.empty((ks.size,) + rows.shape[1:], dtype=rows.dtype)
        part = ~full
        if part.any():
            hp = h[part]
            w = 2 * hp + 1
            p = np.frexp(w)[1] - 1  # floor(log2 w)
            for lv in range(filled, int(p.max()) + 1):
                # one flat pass per level: a column that mixes two rows lies
                # past the row's last valid level-lv column and is never read
                step = 1 << (lv - 1)
                np.maximum(flat[lv - 1, :-step], flat[lv - 1, step:],
                           out=flat[lv, :-step])
                filled = lv + 1
            kp = ks[part]
            out[part] = np.maximum(starts[p, kp, :, H - hp],
                                   starts[p, kp, :, H + hp + 1 - (1 << p)])
        if full.any():
            out[full] = rows[ks[full]].max(axis=-1, keepdims=True)
        return out

    return segment


def _per_scale(grid: SpatialGrid, arr: np.ndarray, radii, kernel, combine):
    """Scale k's slice of arr reduced over the ball of radius radii[k].

    The centre row's segments start the result; each further row's
    segments are shifted by the row offset and combined in, centre-out.
    Scales run by decreasing radius, so the balls that meet a row are a
    leading run of them.  Consecutive rows with equal halfwidths (a and -a
    always) share one segment computation.
    """
    radii = np.asarray(radii, dtype=float)
    K = radii.shape[0]
    if arr.shape[0] != K:
        raise ValueError("leading axis of arr must match radii")
    order = np.argsort(-radii, kind="stable")
    a, h, full = ball_segments(grid, radii[order])
    if (h[:, 0] < 0).any():
        raise ValueError("window radii must be positive")
    segment = kernel(arr.reshape(K, -1, grid.N))
    out = segment(order, h[:, 0], full[:, 0])
    rows = grid.N if grid.n == 2 else 1
    out = out.reshape(K, -1, rows, grid.N)  # (sorted scale, rest, row, column)
    for j in range(1, a.size):
        m = int(np.count_nonzero(h[:, j] >= 0))
        if m == 0:
            break  # rows come centre-out, so no later row meets any ball
        if j == 1 or not np.array_equal(h[:, j], h[:, j - 1]):
            part = segment(order[:m], h[:m, j], full[:m, j]).reshape(out[:m].shape)
        # out[x] gains the segments of row x + a: two slabs, no roll copy
        s = int(a[j]) % rows
        for dst, src in ((out[:m, :, : rows - s], part[:, :, s:]),
                         (out[:m, :, rows - s:], part[:, :, :s])):
            combine(dst, src, out=dst)
    result = np.empty_like(out)
    result[order] = out
    return result.reshape(arr.shape)


def window_sum(grid: SpatialGrid, arr: np.ndarray, radius: float) -> np.ndarray:
    """Sum of arr over the open ball of ``radius`` around every grid point.

    arr has shape (..., N) for n=1 or (..., N, N) for n=2.
    """
    return per_scale_window_sum(grid, arr[None], np.array([radius]))[0]


def window_max(grid: SpatialGrid, arr: np.ndarray, radius: float) -> np.ndarray:
    """Max of arr over the open ball of ``radius`` around every grid point."""
    return per_scale_window_max(grid, arr[None], np.array([radius]))[0]


def per_scale_window_sum(
    grid: SpatialGrid, arr: np.ndarray, radii: np.ndarray
) -> np.ndarray:
    """Windowed sums with one radius per scale.

    arr: (K, ..., *spatial); radii: (K,).  Scale k's slice is summed over
    the open ball of radius radii[k] around each point.
    """
    return _per_scale(grid, arr, radii, _circ_sum_rows, np.add)


def per_scale_window_max(
    grid: SpatialGrid, arr: np.ndarray, radii: np.ndarray
) -> np.ndarray:
    """Windowed maxima with one radius per scale; see per_scale_window_sum."""
    return _per_scale(grid, arr, radii, _circ_max_rows, np.maximum)
