"""Discrete geometry: periodic grids, scale grids, half-space regions.

Euclidean space is modeled as a period-L torus sampled on N^n points
(n = 1 or 2, N a power of two) so that convolutions are exact cyclic
convolutions.  The upper half-space is the product of the spatial grid with
a log-uniform scale grid (t_min, ..., t_max).  Regions carry quadrature
weights for the measure dy dt / t^(n+1): a cell at scale t_k weighs
dy^n * dlog(t) * t_k^(-n).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .space import BanachSpace

__all__ = [
    "SpatialGrid",
    "ScaleGrid",
    "SampledFunction",
    "HalfSpaceField",
    "Ball",
    "Region",
    "torus_dist",
    "cone_weights",
    "cone_region",
    "box_region",
    "dyadic_radii",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform grid on the period-L torus in dimension n (1 or 2)."""

    n: int
    N: int
    L: float = 1.0

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"spatial dimension must be 1 or 2, got {self.n}")
        if not _is_power_of_two(self.N) or self.N < 4:
            raise ValueError(f"N must be a power of two >= 4, got {self.N}")
        if self.L <= 0:
            raise ValueError("period length must be positive")

    @property
    def spacing(self) -> float:
        return self.L / self.N

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.n

    @property
    def size(self) -> int:
        return self.N ** self.n

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.n

    def coords(self) -> np.ndarray:
        """Grid point coordinates: (N,) for n=1, (N, N, 2) for n=2."""
        axis = np.arange(self.N) * self.spacing
        if self.n == 1:
            return axis
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        return np.stack([xx, yy], axis=-1)

    def xi(self) -> np.ndarray:
        """Frequency lattice 2*pi*m/L in FFT order; (N,) or (N, N, 2)."""
        m = np.fft.fftfreq(self.N) * self.N
        axis = 2.0 * math.pi * m / self.L
        if self.n == 1:
            return axis
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        return np.stack([xx, yy], axis=-1)

    def offset_distance(self) -> np.ndarray:
        """Torus distance of each index offset from zero; (N,) or (N, N).

        Built once per grid and shared: the array is read-only.
        """
        return _offset_distance(self)

    def point_distance(self, x) -> np.ndarray:
        """Torus distance from every grid point to the point x.

        When x lies within 1e-12 L of a grid point in every coordinate, the
        distances come from the index-offset table, so boundary comparisons
        match the sliding-window fast paths bit for bit.  The snap test runs
        on Python floats; round, like np.round, rounds half to even.
        """
        xs = np.atleast_1d(np.asarray(x, dtype=float)).tolist()
        h, tol = self.spacing, 1e-12 * self.L
        if all(math.isfinite(v) for v in xs):
            idx = [round(v / h) for v in xs]
            if all(abs(v - i * h) <= tol for v, i in zip(xs, idx)):
                # wrapped here: an index past int64 would overflow np.roll's cast
                shift = tuple(i % self.N for i in idx[: self.n])
                return np.roll(self.offset_distance(), shift, axis=tuple(range(self.n)))
        return torus_dist(self, self.coords(), x)


@functools.lru_cache(maxsize=16)
def _offset_distance(grid: SpatialGrid) -> np.ndarray:
    o = np.arange(grid.N)
    axis = np.minimum(o, grid.N - o) * grid.spacing
    dist = functools.reduce(np.hypot, np.ix_(*[axis] * grid.n))
    dist.flags.writeable = False
    return dist


def torus_dist(grid: SpatialGrid, x, y) -> np.ndarray:
    """Min-image Euclidean distance on the torus; broadcasts over arrays."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    diff = np.abs(x - y) % grid.L
    diff = np.minimum(diff, grid.L - diff)
    if grid.n == 1:
        return diff
    return np.sqrt(diff[..., 0] * diff[..., 0] + diff[..., 1] * diff[..., 1])


@dataclass(frozen=True)
class ScaleGrid:
    """Log-uniform scale nodes t_min = t_0 < ... < t_{K-1} = t_max."""

    t_min: float
    t_max: float
    K: int

    def __post_init__(self):
        if not (0 < self.t_min < self.t_max):
            raise ValueError("need 0 < t_min < t_max")
        if self.K < 2:
            raise ValueError("need at least two scale nodes")

    @property
    def dlog(self) -> float:
        return math.log(self.t_max / self.t_min) / (self.K - 1)

    def nodes(self) -> np.ndarray:
        """The K scale nodes, built once per scale grid and shared: read-only."""
        return _nodes(self)

    def refined(self, factor: int = 2) -> "ScaleGrid":
        return ScaleGrid(self.t_min, self.t_max, factor * (self.K - 1) + 1)


@functools.lru_cache(maxsize=16)
def _nodes(scales: ScaleGrid) -> np.ndarray:
    t = scales.t_min * np.exp(scales.dlog * np.arange(scales.K))
    t.flags.writeable = False
    return t


@dataclass
class SampledFunction:
    """X-valued function sampled on a spatial grid: values (*spatial, d)."""

    grid: SpatialGrid
    space: BanachSpace
    values: np.ndarray

    def __post_init__(self):
        want = self.grid.shape + (self.space.dim,)
        self.values = np.ascontiguousarray(self.values, dtype=complex)
        if self.values.shape != want:
            raise ValueError(f"values shape {self.values.shape} != {want}")
        if not np.isfinite(self.values).all():
            raise ValueError("values must be finite (no NaN or inf samples)")

    def shifted(self, offset) -> "SampledFunction":
        """Translate by a grid vector (exact index roll)."""
        off = (offset,) if np.isscalar(offset) else tuple(offset)
        axes = tuple(range(self.grid.n))
        return SampledFunction(self.grid, self.space, np.roll(self.values, off, axis=axes))

    @staticmethod
    def constant(grid: SpatialGrid, space: BanachSpace, vec) -> "SampledFunction":
        vals = np.broadcast_to(np.asarray(vec, dtype=complex), grid.shape + (space.dim,))
        return SampledFunction(grid, space, vals.copy())


@dataclass
class HalfSpaceField:
    """X-valued samples on grid x scales: values (K, *spatial, d)."""

    grid: SpatialGrid
    scales: ScaleGrid
    space: BanachSpace
    values: np.ndarray

    def __post_init__(self):
        want = (self.scales.K,) + self.grid.shape + (self.space.dim,)
        self.values = np.ascontiguousarray(self.values, dtype=complex)
        if self.values.shape != want:
            raise ValueError(f"values shape {self.values.shape} != {want}")
        if not np.isfinite(self.values).all():
            raise ValueError("values must be finite (no NaN or inf samples)")

    def shifted(self, offset) -> "HalfSpaceField":
        off = (offset,) if np.isscalar(offset) else tuple(offset)
        axes = tuple(range(1, 1 + self.grid.n))
        return HalfSpaceField(
            self.grid, self.scales, self.space, np.roll(self.values, off, axis=axes)
        )

    @staticmethod
    def zeros(grid, scales, space) -> "HalfSpaceField":
        shape = (scales.K,) + grid.shape + (space.dim,)
        return HalfSpaceField(grid, scales, space, np.zeros(shape, dtype=complex))


@dataclass(frozen=True)
class Ball:
    """Open torus ball; radius kept <= L/4 so it never self-overlaps."""

    center: tuple
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")

    def check(self, grid: SpatialGrid) -> None:
        if self.radius > grid.L / 4 + 1e-12:
            raise ValueError(f"radius {self.radius} exceeds L/4 = {grid.L / 4}")


def ball_at(grid: SpatialGrid, center, radius: float) -> Ball:
    c = (float(center),) if np.isscalar(center) else tuple(float(v) for v in center)
    b = Ball(c, float(radius))
    b.check(grid)
    return b


@dataclass
class Region:
    """Finite subset of the discrete half-space with quadrature weights.

    Atoms are stored flat in canonical (scale, spatial) order so that
    Monte Carlo estimates over the atoms are independent of construction
    order.  Each atom also has one canonical flat index into the
    (K, *grid.shape) half-space, ``atoms = scale_idx * grid.size +
    spatial_idx``, which is the sort key of that order; ``restrict`` and
    every per-atom gather use it.

    There are two ways to build a region, with the same result:

    - ``Region(grid, scales, spatial_idx, scale_idx, weights)`` checks its
      arrays atom by atom: one shape, weights > 0, spatial indices in
      [0, grid.size) and scale indices in [0, K).  Atoms that are not in
      canonical order are sorted; atoms that are (the key is nondecreasing)
      are kept as they are.
    - ``cone_region`` and ``box_region`` build from a (K, *grid.shape)
      membership mask and one weight per scale (``_region_from_mask``), and
      check only those: the mask's shape and K finite weights > 0.  That
      implies every per-atom check: ``np.flatnonzero`` of the mask returns
      flat indices that are in [0, K grid.size) and ascending, so their
      quotient and remainder by grid.size are in-range indices in canonical
      order, and each atom's weight is one of the K checked ones.
    """

    grid: SpatialGrid
    scales: ScaleGrid
    spatial_idx: np.ndarray  # (A,) flattened spatial index
    scale_idx: np.ndarray  # (A,)
    weights: np.ndarray  # (A,) strictly positive
    atoms: np.ndarray = dataclasses.field(init=False, repr=False)  # (A,) flat index

    def __post_init__(self):
        self.spatial_idx = np.asarray(self.spatial_idx, dtype=np.int64)
        self.scale_idx = np.asarray(self.scale_idx, dtype=np.int64)
        self.weights = np.asarray(self.weights, dtype=float)
        if not (self.spatial_idx.shape == self.scale_idx.shape == self.weights.shape):
            raise ValueError("region index/weight arrays must share a shape")
        if np.any(self.weights <= 0):
            raise ValueError("region weights must be strictly positive")
        atoms = self.spatial_idx.size
        # as unsigned, a negative index is huge: one max checks both ends
        if atoms and self.spatial_idx.view(np.uint64).max() >= self.grid.size:
            _check_index("spatial", self.spatial_idx.min(), self.spatial_idx.max(),
                         self.grid.size)
        # spatial indices lie in [0, grid.size), so this key orders like the lexsort
        key = self.scale_idx * self.grid.size + self.spatial_idx
        if not (key[1:] >= key[:-1]).all():
            order = np.lexsort((self.spatial_idx, self.scale_idx))
            self.spatial_idx = self.spatial_idx[order]
            self.scale_idx = self.scale_idx[order]
            self.weights = self.weights[order]
            key = key[order]
        if atoms:  # scale_idx is sorted now
            _check_index("scale", self.scale_idx[0], self.scale_idx[-1], self.scales.K)
        self.atoms = key

    @property
    def size(self) -> int:
        return int(self.atoms.size)

    def measure(self) -> float:
        """Total quadrature weight of the region."""
        return float(self.weights.sum())

    def restrict(self, field: HalfSpaceField) -> np.ndarray:
        """Field values on the atoms, shape (A, d): one take on the flat index.

        The field must live on the region's grid and scale grid.
        """
        if field.grid != self.grid:
            raise ValueError(f"field grid {field.grid} does not match "
                             f"region grid {self.grid}")
        if field.scales != self.scales:
            raise ValueError(f"field scales {field.scales} do not match "
                             f"region scales {self.scales}")
        return field.values.reshape(-1, field.space.dim).take(self.atoms, axis=0)


def _check_index(name: str, lo, hi, stop: int) -> None:
    """Reject a region whose smallest or largest index lies outside [0, stop)."""
    if lo < 0 or hi >= stop:
        bad = int(lo if lo < 0 else hi)
        raise ValueError(f"region {name} index {bad} is outside [0, {stop})")


def _region_from_mask(grid, scales, mask, weights_per_scale) -> Region:
    """Region of the atoms set in a (K, *grid.shape) mask, one weight per scale.

    The mask path of the Region docstring: O(K) checks, no per-atom ones.
    """
    want = (scales.K,) + grid.shape
    if mask.shape != want:
        raise ValueError(f"region mask shape {mask.shape} != {want}")
    if weights_per_scale.shape != (scales.K,) or not (
            np.isfinite(weights_per_scale) & (weights_per_scale > 0)).all():
        raise ValueError("need K finite, strictly positive per-scale weights")
    region = object.__new__(Region)
    region.grid, region.scales = grid, scales
    region.atoms = np.flatnonzero(mask)
    # divmod by hand: the ufunc takes about twice as long on int64
    region.scale_idx = region.atoms // grid.size
    region.spatial_idx = region.atoms - region.scale_idx * grid.size
    region.weights = weights_per_scale.take(region.scale_idx)
    return region


@functools.lru_cache(maxsize=16)
def cone_weights(grid: SpatialGrid, scales: ScaleGrid) -> np.ndarray:
    """Per-atom weight of dy dt / t^(n+1) at each scale: dy^n dlog t t^-n.

    Built once per (grid, scales) and shared: the array is read-only.
    """
    w = grid.cell_volume * scales.dlog * scales.nodes() ** (-grid.n)
    w.flags.writeable = False
    return w


def cone_region(grid: SpatialGrid, scales: ScaleGrid, x, alpha: float,
                h: float | None = None) -> Region:
    """Cone of base x and aperture alpha, truncated below height h.

    An atom (y_i, t_k) belongs to the cone when dist(y_i, x) < alpha * t_k
    and t_k < h.  ``h=None`` (or any h > t_max) keeps every scale node.
    Weights realize dy dt / t^(n+1).
    """
    if alpha <= 0:
        raise ValueError("aperture must be positive")
    t = scales.nodes()
    dist = grid.point_distance(x).reshape(-1)
    keep_scale = np.ones(scales.K, dtype=bool) if h is None else (t < h)
    mask = (dist[None, :] < alpha * t[:, None]) & keep_scale[:, None]
    return _region_from_mask(grid, scales, mask.reshape((scales.K,) + grid.shape),
                             cone_weights(grid, scales))


def box_region(grid: SpatialGrid, scales: ScaleGrid, ball: Ball) -> Region:
    """Carleson cylinder B x (0, r(B)) with dy dt/t weights.

    Unlike cones this region is weighted for the measure dy dt / t (no
    t^(-n) factor); it only backs the scalar C_2 cross-check.
    """
    ball.check(grid)
    t = scales.nodes()
    dist = grid.point_distance(ball.center)
    mask = (dist.reshape(-1)[None, :] < ball.radius) & (t < ball.radius)[:, None]
    w_per_scale = np.full(scales.K, grid.cell_volume * scales.dlog)
    return _region_from_mask(grid, scales, mask.reshape((scales.K,) + grid.shape), w_per_scale)


def dyadic_radii(grid: SpatialGrid, j_min: int = 2) -> np.ndarray:
    """Dyadic ball radii L*2^-j for j = j_min .. log2(N), descending in j.

    The smallest radius equals the grid spacing, whose ball holds just the
    center point; the largest is L/4 (no self-overlap).
    """
    j_max = int(round(math.log2(grid.N)))
    js = np.arange(j_min, j_max + 1)
    return grid.L * 2.0 ** (-js.astype(float))
