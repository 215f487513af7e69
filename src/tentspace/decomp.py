"""Dyadic cubes, Whitney decomposition, stopping times, good-lambda data.

Open sets are unions of grid cells: cell i is the half-open box
[i*dy, (i+1)*dy)^n and its representative point is the cell center.  The
complement of an open set is sampled at the complement cell centers, and
all cube-to-set distances are torus distances to those points.  With that
convention the maximal-cube construction terminates after at most a few
levels below the grid (a boundary cell splits into sub-cells near the
complement) and the emitted cubes provably satisfy the distance sandwich
diam(Q) < d(Q, G^c) <= 4 diam(Q) while tiling the set exactly.

Whitney takes cube-to-complement distances from two tables built once per
set: for every cell, the next and the previous complement column along
its row, with wrap.  Along one row the complement centres nearest a cube
are those two columns around its start, so a cube's distance is the
smallest, over the rows within 4 diam(Q) of it, of the row gap combined
with the nearer of the two column gaps.  whitney_check recomputes the
distances independently from a KD-tree over the periodic images.
"""

from __future__ import annotations

import csv
import functools
import math
from itertools import product
from dataclasses import dataclass, field as dc_field

import numpy as np

from ._windows import per_scale_window_sum
from .field import HalfSpaceField, ScaleGrid, SpatialGrid, cone_weights, dyadic_radii
from .functionals import FunctionalProfile, a_fun, a_fun_cuts, c_fun
from .space import RandomSource

__all__ = [
    "DyadicCube",
    "WhitneyDecomposition",
    "whitney",
    "whitney_check",
    "StoppingProfile",
    "stopping_time",
    "fubini_defect",
    "GoodLambdaTable",
    "good_lambda_table",
    "write_good_lambda_csv",
    "set_measure",
]

_MAX_EXTRA_LEVELS = 8  # recursion floor below the grid level


@dataclass(frozen=True)
class DyadicCube:
    """Half-open dyadic cube: side L*2^-level, anchored at index*side."""

    level: int
    index: tuple

    def side(self, grid: SpatialGrid) -> float:
        return grid.L * 2.0 ** (-self.level)

    def diam(self, grid: SpatialGrid) -> float:
        return math.sqrt(grid.n) * self.side(grid)

    def anchor(self, grid: SpatialGrid) -> tuple:
        s = self.side(grid)
        return tuple(i * s for i in self.index)

    def children(self) -> list:
        """The 2^n half-side cubes, in row-major order of their offsets."""
        return [
            DyadicCube(self.level + 1, tuple(2 * i + a for i, a in zip(self.index, off)))
            for off in product((0, 1), repeat=len(self.index))
        ]


@dataclass
class WhitneyDecomposition:
    grid: SpatialGrid
    cells: np.ndarray  # source open set as a boolean cell mask
    cubes: list = dc_field(default_factory=list)


def _complement_columns(cells: np.ndarray):
    """Nearest complement columns along the last axis, cyclically.

    Returns (nxt, prv, has): for every cell the first complement column at
    or after it and the last one at or before it, and whether its row holds
    a complement cell at all (nxt and prv are meaningless where it does not).
    """
    N = cells.shape[-1]
    comp = np.concatenate([~cells, ~cells], axis=-1)
    cols = np.arange(2 * N)
    nxt = np.minimum.accumulate(np.where(comp, cols, 2 * N)[..., ::-1], axis=-1)[..., ::-1]
    prv = np.maximum.accumulate(np.where(comp, cols, 0), axis=-1)
    return nxt[..., :N] % N, prv[..., N:] % N, comp.any(axis=-1)


def _gap(grid: SpatialGrid, s: float, coord: np.ndarray, start) -> np.ndarray:
    """Distance along one axis from the points at coord to [start, start + s].

    The nearest over the leading axis of coord and over each point's three
    periodic images, through the clamp formula that whitney_check applies
    to its images, so the constructor and the checker decide
    d(Q, G^c) <= 4 diam(Q) alike.
    """
    shifts = np.array([-grid.L, 0.0, grid.L]).reshape((3,) + (1,) * coord.ndim)
    images = (coord + shifts).reshape((-1,) + coord.shape[1:])
    gap = np.maximum(start - images, images - (start + s)).min(axis=0)
    return np.maximum(gap, 0.0, out=gap)


def _pooled_any(cells: np.ndarray, n: int) -> list[np.ndarray]:
    """pooled[j]: does the level-j cube contain any set cell (j <= j_max)."""
    levels = [cells]
    cur = cells
    while cur.shape[0] > 1:
        m = cur.shape[0] // 2
        cur = cur.reshape((m, 2) * n).any(axis=tuple(range(1, 2 * n, 2)))
        levels.append(cur)
    return levels[::-1]  # index by level


def whitney(grid: SpatialGrid, cells: np.ndarray) -> WhitneyDecomposition:
    """Whitney decomposition of an open union of grid cells.

    Returns the maximal dyadic cubes Q with d(Q, G^c) <= 4 diam(Q); cubes
    may descend below the grid cells near the boundary of the set.  An
    empty set yields an empty decomposition; a set with empty complement
    is rejected.
    """
    cells = np.asarray(cells, dtype=bool)
    if cells.shape != grid.shape:
        raise ValueError("cell mask must match the grid shape")
    if not cells.any():
        return WhitneyDecomposition(grid, cells, [])
    if cells.all():
        raise ValueError("open set must have nonempty complement")

    nxt, prv, has = _complement_columns(cells)
    j_max = int(round(math.log2(grid.N)))
    pooled = _pooled_any(cells, grid.n)
    lead = grid.n - 1  # row axes; the last axis is the column axis

    def intersects(level: int, idx: np.ndarray) -> np.ndarray:
        if level <= j_max:
            return pooled[level][tuple(idx.T)]
        return cells[tuple((idx >> (level - j_max)).T)]

    def cond_many(level: int, idx: np.ndarray) -> np.ndarray:
        # d(Q, G^c) <= 4 diam(Q); rows farther than 4 diam from Q cannot
        # bring d down to 4 diam, so only the nearer rows are scanned
        s = grid.L * 2.0 ** (-level)
        diam = math.sqrt(grid.n) * s
        reach = 4.0 * diam
        m = idx.shape[0]
        start = (idx * s).T.reshape((grid.n, m) + (1,) * lead)
        span = min(grid.N, int((s + 2.0 * reach) / grid.spacing) + 4)
        rows, gaps = [], []
        for i in range(lead):
            lo = np.floor((idx[:, i] * s - reach) / grid.spacing).astype(np.int64) - 1
            shape = (m,) + (1,) * i + (span,) + (1,) * (lead - 1 - i)
            rows.append(((lo[:, None] + np.arange(span)) % grid.N).reshape(shape))
            gaps.append(_gap(grid, s, (rows[-1][None] + 0.5) * grid.spacing, start[i]))
        # first column whose centre is at or after the cube's start
        c, e = idx[:, -1], level - j_max
        first = c << -e if e <= 0 else (2 * c + (1 << e) - 1) >> (e + 1)
        first = first.reshape((m,) + (1,) * lead)
        cols = np.stack([nxt[(*rows, first % grid.N)], prv[(*rows, (first - 1) % grid.N)]])
        gaps.append(_gap(grid, s, (cols + 0.5) * grid.spacing, start[-1]))
        d = np.sqrt(functools.reduce(np.add, [g * g for g in gaps]))
        d = np.where(has[tuple(rows)], d, np.inf)
        return d.reshape(m, -1).min(axis=1) <= reach

    offsets = np.array(list(product((0, 1), repeat=grid.n)), dtype=np.int64)
    branch = offsets.shape[0]
    out: list[DyadicCube] = []
    candidates = np.zeros((1, grid.n), dtype=np.int64)  # the root cube
    level = 0
    while candidates.shape[0]:
        if level > j_max + _MAX_EXTRA_LEVELS:
            raise RuntimeError("Whitney level sweep failed to terminate")
        # expand to children and evaluate the distance condition on them
        M = candidates.shape[0]
        kids = (2 * candidates[:, None, :] + offsets).reshape(M * branch, grid.n)
        keep = intersects(level + 1, kids)
        cond_child = np.ones(kids.shape[0], dtype=bool)
        if keep.any():
            cond_child[keep] = cond_many(level + 1, kids[keep])
        fails = (keep & ~cond_child).reshape(M, branch).any(axis=1)
        out.extend(DyadicCube(level, tuple(row)) for row in candidates[fails].tolist())
        survive = np.repeat(~fails, branch) & keep
        candidates = kids[survive]
        level += 1
    return WhitneyDecomposition(grid, cells, out)


@dataclass
class WhitneyReport:
    ok: bool
    disjoint: bool
    union_exact: bool
    sandwich_ok: bool
    worst: dict


def whitney_check(dec: WhitneyDecomposition) -> WhitneyReport:
    """Independent verification of the three Whitney conditions.

    Distances come from a KD-tree over the periodic images of the
    complement centres rather than the constructor's row tables, and
    coverage is checked by exact integer occupancy marks on a virtual
    refinement of the grid.  The KD-tree is scipy's, the optional
    ``tentspace[check]`` extra: without scipy this raises ImportError.
    """
    grid, cells = dec.grid, dec.cells
    j_max = int(round(math.log2(grid.N)))
    J = max([j_max] + [c.level for c in dec.cubes])
    scale = 2 ** J

    occupancy = np.zeros((scale,) * grid.n, dtype=np.uint8)
    for cube in dec.cubes:
        w = 2 ** (J - cube.level)
        occupancy[tuple(slice(i * w, (i + 1) * w) for i in cube.index)] += 1
    disjoint = bool(occupancy.max() <= 1)
    up = 2 ** (J - j_max)
    want = cells
    for axis in range(grid.n):
        want = np.repeat(want, up, axis=axis)
    union_exact = bool(np.array_equal(occupancy.astype(bool), want))

    sandwich_ok, worst = _check_sandwich(grid, cells, dec.cubes)
    ok = disjoint and union_exact and sandwich_ok
    return WhitneyReport(ok, disjoint, union_exact, sandwich_ok, worst)


def _check_sandwich(grid: SpatialGrid, cells: np.ndarray, cubes: list):
    """diam(Q) < d(Q, G^c) <= 4 diam(Q) for every cube, by a KD-tree.

    Exact box-to-point-set distances via unfolded images and clamping: the
    tree holds the 3^n periodic images of the complement centres, and the
    centre distance brackets each cube's answer within half a diameter, so
    only the images inside that radius need the clamp formula.  One query
    and one ball query cover all cubes.
    """
    try:
        from scipy.spatial import cKDTree
    except ImportError as e:
        raise ImportError("whitney_check needs scipy: pip install tentspace[check]") from e

    if not cubes:
        return True, {"ratio_low": math.inf, "ratio_high": 0.0}
    comp = (np.argwhere(~cells) + 0.5) * grid.spacing  # complement centres
    shifts = product((-grid.L, 0.0, grid.L), repeat=grid.n)
    images = np.concatenate([comp + np.array(m) for m in shifts])
    tree = cKDTree(images)
    side = np.array([c.side(grid) for c in cubes])
    anchor = np.array([c.anchor(grid) for c in cubes], dtype=float)
    diam = np.array([c.diam(grid) for c in cubes])
    center = anchor + side[:, None] / 2.0
    dc = tree.query(center)[0]
    near = tree.query_ball_point(center, dc + diam / 2.0 + 1e-12)
    counts = np.array([len(v) for v in near])
    which = np.repeat(np.arange(len(cubes)), counts)
    pts = images[np.concatenate(near)]
    lo = anchor[which]
    hi = lo + side[which, None]
    gaps = np.maximum(np.maximum(lo - pts, pts - hi), 0.0)
    sq = gaps * gaps
    dist = np.sqrt(sq.sum(axis=1))
    dmin = np.minimum.reduceat(dist, np.cumsum(counts) - counts)
    ratio = dmin / diam
    worst = {"ratio_low": float(ratio.min()), "ratio_high": float(ratio.max())}
    return bool(np.all((diam < dmin) & (dmin <= 4.0 * diam))), worst


@dataclass
class StoppingProfile:
    """Largest passing truncation height per grid point.

    ``tau`` holds scale nodes or +inf; ``cut_index`` counts the scale nodes
    strictly below tau (the cone truncation index used downstream).
    """

    grid: SpatialGrid
    scales: ScaleGrid
    rho: float
    q: float
    alpha: float
    tau: np.ndarray
    cut_index: np.ndarray


def stopping_time(
    field: HalfSpaceField,
    q: float,
    rho: float,
    alpha: float = 1.0,
    cq: FunctionalProfile | None = None,
    trials: int = 512,
    rng: RandomSource | None = None,
    force_mc: bool = False,
) -> StoppingProfile:
    """tau(x): the largest scale node at which A(F|node) <= rho * C_q(F).

    +inf where the inequality still holds at t_max.  The empty truncation
    A(F|t_min) = 0 always passes, so tau >= t_min everywhere.

    Without ``cq`` one a_fun_cuts sweep gives A at the dyadic radii and
    at the scale nodes, and C_q is built from its radius profiles; on the
    Monte Carlo path C_q and the node profiles therefore share one draw.
    A passed ``cq`` must be a C_q profile on the field's grid with this
    call's q and alpha.
    """
    if not (rho > 1.0):  # NaN fails too
        raise ValueError(f"stopping threshold rho must exceed 1, got {rho!r}")
    scales = field.scales
    nodes = scales.nodes()
    if cq is not None and (cq.kind != "Cq" or cq.grid != field.grid
                           or cq.params.get("q") != q
                           or cq.params.get("alpha") != alpha):
        raise ValueError(
            f"cq must be a C_q profile on the field's grid with q={q} and "
            f"alpha={alpha}; got {cq.kind!r} with q={cq.params.get('q')}, "
            f"alpha={cq.params.get('alpha')} on {cq.grid}")
    radii = dyadic_radii(field.grid) if cq is None else []
    profs = a_fun_cuts(field, alpha, [*radii, *nodes], trials=trials, rng=rng,
                       force_mc=force_mc)
    if cq is None:
        cq = c_fun(field, q, alpha, radii=radii, a_profiles=profs[: len(radii)])
    a_vals = np.stack([p.values for p in profs[len(radii):]])  # (K, *spatial)
    passes = a_vals <= rho * cq.values[None]
    # A(F|t_0) sums nothing, so node 0 always passes and a last pass exists
    k_star = scales.K - 1 - np.argmax(passes[::-1], axis=0)
    at_top = k_star == scales.K - 1
    tau = np.where(at_top, np.inf, nodes[np.minimum(k_star, scales.K - 1)])
    cut = np.where(at_top, scales.K, k_star)
    return StoppingProfile(field.grid, scales, rho, q, alpha, tau, cut.astype(int))


def set_measure(grid: SpatialGrid, mask: np.ndarray) -> float:
    """Grid-cell measure of a boolean set: count times dy^n."""
    return float(np.count_nonzero(mask)) * grid.cell_volume


def fubini_defect(H, tau: StoppingProfile) -> float:
    """C0 * integral over stopped cones minus the plain dy dt/t integral.

    C0 = (1 - rho^-q)^-1.  The change-of-order bound says the defect is
    nonnegative up to quadrature slack.
    """
    if isinstance(H, HalfSpaceField):
        if H.space.dim != 1:
            raise ValueError("H must be scalar")
        vals = H.values[..., 0].real
    else:
        vals = np.asarray(H, dtype=float)
    grid, scales = tau.grid, tau.scales
    if vals.shape != (scales.K,) + grid.shape:
        raise ValueError("H must be sampled on the tau profile's half-space")
    if np.any(vals < 0):
        raise ValueError("H must be nonnegative")

    per_scale = per_scale_window_sum(grid, vals, tau.alpha * scales.nodes())
    per_scale = per_scale * cone_weights(grid, scales).reshape((-1,) + (1,) * grid.n)
    prefix = np.concatenate(
        [np.zeros((1,) + grid.shape), np.cumsum(per_scale, axis=0)], axis=0
    )
    flatp = prefix.reshape(scales.K + 1, grid.size)
    inner = np.take_along_axis(flatp, tau.cut_index.reshape(1, -1), axis=0)[0]
    c0 = 1.0 / (1.0 - tau.rho ** (-tau.q))
    lhs = c0 * float(inner.sum()) * grid.cell_volume
    rhs = float(vals.sum()) * grid.cell_volume * scales.dlog
    return lhs - rhs


@dataclass
class GoodLambdaTable:
    rows: list  # dicts: gamma, lam, m_lhs, m_cq, m_beta, fitted_C
    fitted: dict  # gamma -> minimal C over the lambda list
    alpha: float
    beta: float
    q: float
    wrap_warning: bool

    def satisfied(self) -> bool:
        """Inequality m_lhs <= m_cq + C gamma^q m_beta with the fitted C."""
        for r in self.rows:
            c = self.fitted[r["gamma"]]
            if not math.isfinite(c):
                return False
            bound = r["m_cq"] + c * r["gamma"] ** self.q * r["m_beta"]
            if r["m_lhs"] > bound + 1e-12:
                return False
        return True


def write_good_lambda_csv(path, rows) -> None:
    """One CSV line per good-lambda row, from one table or several."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["gamma", "lambda", "m_lhs", "m_cq", "m_beta", "fitted_C"])
        for r in rows:
            w.writerow([r["gamma"], r["lam"], r["m_lhs"], r["m_cq"],
                        r["m_beta"], r["fitted_C"]])


def good_lambda_table(
    field: HalfSpaceField,
    alpha: float,
    q: float,
    gammas,
    lambdas,
    beta: float | None = None,
    trials: int = 512,
    rng: RandomSource | None = None,
    force_mc: bool = False,
) -> GoodLambdaTable:
    """Super-level measures of A at two apertures against C_q.

    For each gamma the fitted C is the smallest constant making
    |{A > 2 lam}| <= |{C_q > gamma lam}| + C gamma^q |{A_beta > lam}|
    hold across the whole lambda list.
    """
    grid = field.grid
    beta = alpha + 10.0 if beta is None else beta
    wrap = beta * field.scales.t_max > grid.L / 2
    # one sweep at alpha gives A and C_q, so they share their draws
    radii = dyadic_radii(grid)
    cuts = a_fun_cuts(field, alpha, [*radii, None], trials=trials, rng=rng,
                      force_mc=force_mc)
    a_narrow = cuts[-1]
    a_wide = a_fun(field, beta, trials=trials, rng=rng, force_mc=force_mc)
    cq = c_fun(field, q, alpha, radii=radii, a_profiles=cuts[:-1])

    rows = []
    fitted = {}
    for gamma in gammas:
        if not 0.0 < gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        need = 0.0
        entries = []
        for lam in lambdas:
            if lam <= 0:
                raise ValueError("lambda must be positive")
            m_lhs = set_measure(grid, a_narrow.values > 2.0 * lam)
            m_cq = set_measure(grid, cq.values > gamma * lam)
            m_beta = set_measure(grid, a_wide.values > lam)
            entries.append((lam, m_lhs, m_cq, m_beta))
            excess = m_lhs - m_cq
            if excess > 0:
                if m_beta == 0:
                    need = math.inf
                else:
                    need = max(need, excess / (gamma ** q * m_beta))
        fitted[gamma] = need
        for lam, m_lhs, m_cq, m_beta in entries:
            rows.append(
                {"gamma": gamma, "lam": lam, "m_lhs": m_lhs, "m_cq": m_cq,
                 "m_beta": m_beta, "fitted_C": need}
            )
    return GoodLambdaTable(rows, fitted, alpha, beta, q, wrap)
