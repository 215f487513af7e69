"""Conical square function, Carleson functionals, maximal functions, BMO.

Everything here is a sweep over all grid points at once.  The key identity
is that restricting a field to the cone of base x and summing is a
circular windowed sum in x, one window per scale (radius alpha * t_k), so
a full profile costs K sliding windows instead of N region constructions.

Below height h the randomized cone sum is S ~ CN(0, C_h(x)), where
C_h(x) = sum_{t_k < h} w_k sum_{|y - x| < alpha t_k} F_k(y) F_k(y)^H comes
from the same windowed sums of the entries F_i conj(F_j).  Where
gaussnorm has a closed form for E ||S||^2 the sweep is exact: l^2 and
d = 1 need only the trace of C, l^1_d its upper triangle.  Monte Carlo
sweeps (other targets, or ``force_mc``) draw d Gaussians per height band
per trial from C's PSD roots, shared by every base point, so a shifted
field sees the same draws and heights ride on common randoms.

Ball suprema (Carleson functional, maximal function, BMO) run over the
dyadic radius family L*2^-j with grid-point centers: a ball of the family
contains x exactly when its center lies in the same-radius window around
x, so the sup over balls containing x is a windowed max of windowed means.

The BMO norm needs the mean of ||f(y) - f_B|| over each ball, which no
windowed sum of f gives.  Windowed sums of f and of ||f||_2^2 do give an
upper bound for every ball at once (Jensen: the mean is at most c_X times
the root of the mean squared l^2 deviation), and the sup is usually
reached where that bound is large.  So the kernel computes the exact
oscillation only for balls whose bound can still beat the best found so
far, gathering their points along the row segments that
_windows.ball_segments gives (one in 1-D, one per row offset in 2-D; the
same segments every window sum and max uses) from one wrap-padded real
array.  The result is the exact sup.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from ._windows import (
    ball_segments,
    per_scale_window_max,
    per_scale_window_sum,
    window_count,
    window_max,
    window_sum,
)
from .field import (
    HalfSpaceField,
    SampledFunction,
    ScaleGrid,
    SpatialGrid,
    dyadic_radii,
)
from .gaussnorm import _closed_form_moment, _estimate_from_moments, _triu
from .space import (
    RandomSource,
    _norm_from_squares,
    _squared_norm2,
    complex_gaussian_array,
    norm,
)

__all__ = [
    "FunctionalProfile",
    "a_fun",
    "a_fun_cuts",
    "c_fun",
    "n_fun",
    "bmo_norm",
    "maximal_fn",
    "c2_box_profile",
]

SWEEP_TRIALS = 512  # default Monte Carlo trials for whole-grid sweeps
_COORD_NAMES = {1: ("x",), 2: ("x1", "x2")}  # CSV column names per dimension


@dataclass
class FunctionalProfile:
    """Nonnegative profile of a functional over the spatial grid."""

    kind: str
    grid: SpatialGrid
    values: np.ndarray
    params: dict = dc_field(default_factory=dict)
    stderr: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError("profile shape must match the grid")
        if not np.all(self.values >= -1e-12):
            raise ValueError("profiles are nonnegative and free of NaN")

    def max(self) -> float:
        return float(self.values.max())

    def lp_norm(self, p) -> float:
        """L^p norm with dy^n cell weights; p=None means the sup norm."""
        if p is None or p == math.inf:
            return self.max()
        return float(
            ((self.values ** p).sum() * self.grid.cell_volume) ** (1.0 / p)
        )

    def to_sampled(self) -> SampledFunction:
        from .space import ell

        return SampledFunction(self.grid, ell(2, 1), self.values[..., None].astype(complex))

    def to_csv(self, path) -> None:
        """One row per grid point in row-major order: coordinates, value, stderr."""
        grid = self.grid
        coords = grid.coords().reshape(grid.size, grid.n)
        values = self.values.reshape(-1)
        stderr = None if self.stderr is None else self.stderr.reshape(-1)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([*_COORD_NAMES[grid.n], "value", "stderr"])
            for i in range(grid.size):
                err = 0.0 if stderr is None else float(stderr[i])
                w.writerow([*coords[i], values[i], err])


def _scale_weights(grid: SpatialGrid, scales: ScaleGrid) -> np.ndarray:
    """Per-atom dmu weight at each scale: dy^n * dlog t * t^-n."""
    t = scales.nodes()
    return grid.cell_volume * scales.dlog * t ** (-grid.n)


def _cut_indices(scales: ScaleGrid, heights) -> np.ndarray:
    """Number of scale nodes strictly below each truncation height.

    None (like inf) keeps every node.
    """
    h = np.array([math.inf if v is None else v for v in heights], dtype=float)
    return np.searchsorted(scales.nodes(), h, side="left")


def _effective_height(scales: ScaleGrid, h) -> float:
    return scales.t_max if h is None or h == math.inf else float(h)


def _cone_sums(field: HalfSpaceField, alpha: float, entries: np.ndarray,
               cut_indices: np.ndarray) -> np.ndarray:
    """sum_{t_k < h} w_k sum_{|y - x| < alpha t_k} entries_k(y) at each cut.

    entries: (K, ..., *spatial).
    """
    grid, scales = field.grid, field.scales
    w = _scale_weights(grid, scales)
    rows = w.reshape((-1,) + (1,) * (entries.ndim - 1)) * entries
    per_scale = per_scale_window_sum(grid, rows, alpha * scales.nodes())
    prefix = np.concatenate(
        [np.zeros((1,) + per_scale.shape[1:], dtype=per_scale.dtype),
         np.cumsum(per_scale, axis=0)], axis=0
    )
    return prefix[np.asarray(cut_indices, dtype=int)]


def _cone_covariance(field: HalfSpaceField, alpha: float,
                     cut_indices: np.ndarray) -> np.ndarray:
    """Upper triangle of C_h(x) at each cut: (cuts, *spatial, d(d+1)/2).

    Entries on the last axis in _triu(d) order.
    """
    i, j = _triu(field.space.dim)
    entries = np.moveaxis(field.values[..., i] * field.values[..., j].conj(), -1, 1)
    return np.moveaxis(_cone_sums(field, alpha, entries, cut_indices), 1, -1)


_SWEEP_BLOCK_ELEMS = 1 << 20  # complex entries of S per block of points


def _a_sampled(field: HalfSpaceField, alpha: float, cut_indices: np.ndarray,
               trials: int, rng: RandomSource | None) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo A profiles (values, stderr) at each truncation index.

    The increment of C_h(x) between consecutive distinct cuts (bands) is
    replaced by its Hermitian PSD root, eigenvalues below 1e-12 of the
    largest set to 0: a continuous function of C, so a shifted field gets
    shifted roots.  S = sum over bands of root_b(x) z_b, with one
    (trials, bands, d) draw z shared by every point, so how the points are
    blocked changes no output.
    """
    grid, d = field.grid, field.space.dim
    bands, inv = np.unique(cut_indices, return_inverse=True)
    i, j = _triu(d)
    cov = np.zeros((bands.size, grid.size, d, d), dtype=complex)
    cov[..., i, j] = _cone_covariance(field, alpha, bands).reshape(
        bands.size, grid.size, i.size)
    lam, vec = np.linalg.eigh(np.diff(cov, axis=0, prepend=0.0), UPLO="U")
    lam = np.where(lam > 1e-12 * lam[..., -1:], lam, 0.0)
    roots = (vec * np.sqrt(lam)[..., None, :]) @ vec.conj().swapaxes(-1, -2)
    z = complex_gaussian_array(rng if rng is not None else RandomSource(0),
                               (trials, bands.size, d))
    values = np.empty((bands.size, grid.size))
    stderr = np.empty_like(values)
    step = max(1, _SWEEP_BLOCK_ELEMS // (trials * d))
    for lo in range(0, grid.size, step):
        pts = slice(lo, lo + step)
        s = np.zeros((min(step, grid.size - lo), trials, d), dtype=complex)
        for b in range(bands.size):
            for k in range(d):
                s += roots[b, pts, None, :, k] * z[None, :, b, k, None]
            values[b, pts], stderr[b, pts] = _estimate_from_moments(
                norm(field.space, s) ** 2)
    shape = (bands.size,) + grid.shape
    return values.reshape(shape)[inv], stderr.reshape(shape)[inv]


def a_fun_cuts(
    field: HalfSpaceField,
    alpha: float,
    heights,
    trials: int = SWEEP_TRIALS,
    rng: RandomSource | None = None,
    force_mc: bool = False,
) -> list[FunctionalProfile]:
    """Truncated conical square functions at several heights in one sweep.

    The sweep is exact (stderr None) for l^2 and l^1 targets and at
    d = 1: each point's E ||S||^2 comes in closed form from its cone
    covariance (the trace, or for l^1 the full upper triangle).  Other
    targets, and every target under ``force_mc``, take the Monte Carlo
    path, which needs at least two trials for its stderr.  Sharing one
    sweep keeps the truncations perfectly coupled: there each height's sum
    adds the next band's draws to the sum below it, so every height sees
    the same Gaussian draws and height monotonicity and stopping-time
    logic behave like the exact path.
    """
    if alpha <= 0:
        raise ValueError("aperture must be positive")
    heights = list(heights)
    cuts = _cut_indices(field.scales, heights)
    # held until the profiles are built: with it alive the trace path
    # allocates as the l^2 sweep always has, and repeated sweeps do not
    # trim and re-fault the heap (about 3x the minor faults per op otherwise)
    sq = _squared_norm2(field.values)
    moment = None if force_mc else _closed_form_moment(
        field.space,
        lambda: _cone_sums(field, alpha, sq, cuts),
        lambda: _cone_covariance(field, alpha, cuts))
    if moment is not None:
        vals = np.sqrt(moment)
        errs = [None] * len(heights)
    else:
        if trials < 2:
            raise ValueError("Monte Carlo path needs at least two trials")
        vals, errs = _a_sampled(field, alpha, cuts, trials, rng)
    return [
        FunctionalProfile("A", field.grid, v,
                          {"alpha": alpha, "h": _effective_height(field.scales, h),
                           "t_max": field.scales.t_max}, stderr=e)
        for v, e, h in zip(vals, errs, heights)
    ]


def a_fun(
    field: HalfSpaceField,
    alpha: float = 1.0,
    h=None,
    trials: int = SWEEP_TRIALS,
    rng: RandomSource | None = None,
    force_mc: bool = False,
) -> FunctionalProfile:
    """Conical square function A(F|h) at every grid point.

    ``h=None`` keeps all scales (the report records the effective height
    t_max); a finite h keeps scale nodes strictly below it.
    """
    return a_fun_cuts(field, alpha, [h], trials=trials, rng=rng, force_mc=force_mc)[0]


def c_fun(
    field: HalfSpaceField,
    q: float,
    alpha: float = 1.0,
    trials: int = SWEEP_TRIALS,
    rng: RandomSource | None = None,
    force_mc: bool = False,
    radii: np.ndarray | None = None,
    a_profiles: list | None = None,
) -> FunctionalProfile:
    """Carleson functional C_q: sup over balls containing x of q-means.

    For each dyadic radius r the truncated profile A(F|r) is averaged in
    q-th power over every ball of radius r, and the sup over balls
    containing x is the windowed max of those means.  All radii go
    through one per_scale_window_sum of the stacked A(F|r)^q and one
    per_scale_window_max of the means.  Monte Carlo stderr is propagated
    to each point by the delta method, through the q-mean by the bound
    window_sum(|term|) / count, and through the sup conservatively (max
    of the window's stderr); it rides in the same two window calls, and
    each point takes the stderr of the first radius attaining its sup.
    The bound holds under any correlation across x: every point shares
    the band draws, so the errors of a ball's points are fully correlated
    and a root-sum-of-squares would understate the error.

    ``a_profiles`` lets a caller reuse truncated A sweeps at exactly the
    radii instead of recomputing them.  An empty radius list is rejected.
    """
    if q <= 0:
        raise ValueError("q must be positive")
    grid = field.grid
    if radii is None:
        radii = dyadic_radii(grid)
    if len(radii) == 0:
        raise ValueError("c_fun needs at least one radius")
    if a_profiles is not None:
        if len(a_profiles) != len(radii):
            raise ValueError("a_profiles must match the radius list")
        profiles = a_profiles
    else:
        profiles = a_fun_cuts(field, alpha, list(radii), trials=trials,
                              rng=rng, force_mc=force_mc)
    a = np.stack([p.values for p in profiles])  # (R, *spatial)
    terms = [a ** q]
    mc = profiles[0].stderr is not None
    if mc:
        s = np.stack([p.stderr for p in profiles])
        pos = a > 0  # a ** (q - 1) is infinite at a = 0 when q < 1
        term = np.zeros_like(a)
        term[pos] = q * a[pos] ** (q - 1.0) * s[pos]
        terms.append(np.abs(term))
    counts = window_count(grid, radii).reshape((-1, 1) + (1,) * grid.n)
    means = per_scale_window_sum(grid, np.stack(terms, axis=1), radii) / counts
    cands = per_scale_window_max(grid, means, radii)  # (R, 1 or 2, *spatial)
    best = cands[:, 0].max(axis=0)
    values = best ** (1.0 / q)
    stderr = None
    if mc:
        first = np.argmax(cands[:, 0], axis=0)[None]
        best_err = np.take_along_axis(cands[:, 1], first, axis=0)[0]
        stderr = np.where(values > 0, best_err / q * best ** (1.0 / q - 1.0), 0.0)
    return FunctionalProfile(
        "Cq",
        grid,
        values,
        {"q": q, "alpha": alpha, "t_max": field.scales.t_max,
         "radii": [float(r) for r in radii]},
        stderr=stderr,
    )


def n_fun(field: HalfSpaceField, alpha: float = 1.0) -> FunctionalProfile:
    """Non-tangential maximal function: sup of ||F(y, t)||_X over cones.

    The target norm is taken pointwise, so the profile is exact for every
    l^q_d target (for a scalar field it is the sup of the moduli).
    """
    if alpha <= 0:
        raise ValueError("aperture must be positive")
    grid, scales = field.grid, field.scales
    mods = norm(field.space, field.values)
    radii = alpha * scales.nodes()
    per_scale = per_scale_window_max(grid, mods, radii)
    return FunctionalProfile(
        "N", grid, per_scale.max(axis=0),
        {"alpha": alpha, "t_max": scales.t_max},
    )


def _scalar_values(g) -> tuple[SpatialGrid, np.ndarray]:
    if isinstance(g, SampledFunction):
        if g.space.dim != 1:
            raise ValueError("expected a scalar sampled function")
        return g.grid, np.abs(g.values[..., 0])
    raise TypeError("expected a SampledFunction")


def maximal_fn(g: SampledFunction) -> FunctionalProfile:
    """Hardy-Littlewood maximal function over the dyadic ball family."""
    grid, mods = _scalar_values(g)
    best = np.zeros(grid.shape)
    for r in dyadic_radii(grid):
        count = window_count(grid, r)
        means = window_sum(grid, mods, r) / count
        best = np.maximum(best, window_max(grid, means, r))
    return FunctionalProfile("M", grid, best, {"radii": "dyadic"})


_BMO_BLOCK_ELEMS = 1 << 16  # reals per gathered block of balls
_BMO_SLACK = 1e-10  # bound slack under the root, relative to mean ||f||_2^2


@functools.lru_cache(maxsize=16)
def _bmo_balls(grid: SpatialGrid):
    """The dyadic balls as offsets into the wrap-padded, flattened grid.

    Returns (counts, src, base, offsets): the ball sizes per radius; src,
    the grid point behind every padded position; base, every centre's
    padded position; and per radius the offsets of the ball's points from
    its centre, row segment by row segment (centre-out), columns ascending.
    """
    rows, halfwidths, _ = ball_segments(grid, dyadic_radii(grid))
    pad_r = int(np.abs(rows)[(halfwidths >= 0).any(axis=0)].max())
    pad_c = int(halfwidths.max())  # radii < L/2: no ball covers a full row
    lead = [pad_r] * (grid.n - 1) + [pad_c]
    shape = tuple(grid.N + 2 * p for p in lead)
    src = np.ravel_multi_index(
        np.ix_(*[np.arange(-p, grid.N + p) % grid.N for p in lead]), grid.shape).ravel()
    base = np.ravel_multi_index(
        np.ix_(*[np.arange(grid.N) + p for p in lead]), shape).ravel()
    offsets = tuple(np.concatenate([a * shape[-1] + np.arange(-h, h + 1)
                                    for a, h in zip(rows, hw) if h >= 0])
                    for hw in halfwidths)
    counts = np.array([o.size for o in offsets])
    for arr in (counts, src, base) + offsets:
        arr.flags.writeable = False
    return counts, src, base, offsets


def _bmo_bounds(f: SampledFunction):
    """Ball means and the Jensen bound on each ball's mean oscillation.

    f is centred first.  Returns (chans, mus, bounds): chans (2d + 1, size)
    holds the real parts, imaginary parts and squared l^2 norm of the
    centred f; mus (K, 2d, size) its ball means, parts stacked the same
    way; bounds (K, size) the bound of bmo_norm, per dyadic radius and
    centre.
    """
    grid, space, d = f.grid, f.space, f.space.dim
    radii = dyadic_radii(grid)
    counts = _bmo_balls(grid)[0]
    vecs = np.moveaxis(f.values, -1, 0).reshape(d, -1)
    vecs = vecs - vecs.mean(axis=1, keepdims=True)
    chans = np.empty((2 * d + 1, grid.size))
    chans[:d], chans[d:-1] = vecs.real, vecs.imag
    np.square(chans[:-1]).sum(axis=0, out=chans[-1])
    stack = np.broadcast_to(chans.reshape((-1,) + grid.shape),
                            (radii.size, 2 * d + 1) + grid.shape)
    means = per_scale_window_sum(grid, stack, radii).reshape(radii.size, 2 * d + 1, -1)
    means /= counts[:, None, None]
    mus = means[:, :-1]
    spread = means[:, -1] - np.square(mus).sum(axis=1)  # mean_B ||f - f_B||_2^2
    c_x = d ** max(0.0, (0.0 if space.q is None else 1.0 / space.q) - 0.5)
    slack = _BMO_SLACK * float(chans[-1].mean())
    return chans, mus, c_x * np.sqrt(np.maximum(spread, 0.0) + slack)


def bmo_norm(f: SampledFunction) -> float:
    """Mean-oscillation norm: sup over dyadic balls of mean ||f - f_B||_X.

    Bound and prune.  Oscillations ignore constants, so f is first centred
    (f minus its grid mean).  The windowed means of f and of ||f||_2^2 then
    give, for every ball B of every dyadic radius, the ball mean f_B and
    Jensen's bound

        mean_B ||f - f_B||_X <= c_X sqrt(mean_B ||f||_2^2 - ||f_B||_2^2),

    with c_X = d^max(0, 1/q - 1/2) the largest ratio of the l^q to the l^2
    norm on C^d.  _BMO_SLACK * mean ||f||_2^2 is added under the root, so
    that prefix-sum cancellation cannot push a bound below its ball's
    oscillation; centring keeps a constant offset of f out of that slack,
    where it would stop all pruning.  The running best starts at the exact
    oscillation of the ball with the largest bound.  Radii then go by
    descending largest bound, and the centres of a radius by descending
    bound; a ball's oscillation is computed only while ~(bound <= best),
    so a NaN or infinite bound is always evaluated, never pruned.  Every
    pruned ball has an oscillation of at most best, so the sup is exact.

    The balls to evaluate are gathered from one wrap-padded array of the
    real and imaginary parts of f, a block of about _BMO_BLOCK_ELEMS reals
    at a time, into one buffer allocated per call.  Each ball's offsets
    come in a fixed order (its row segments centre-out, columns
    ascending), and each centre sums its offsets in that order, so the
    norm is translation invariant to roundoff, and a constant gives
    exactly 0.
    """
    grid, space, d = f.grid, f.space, f.space.dim
    counts, src, base, offsets = _bmo_balls(grid)
    chans, mus, bounds = _bmo_bounds(f)
    padded = np.take(chans[:-1], src, axis=1)  # (2d, padded size), C order
    buf = np.empty(max(_BMO_BLOCK_ELEMS, 2 * d * int(counts.max())))
    idx = np.empty(buf.size // (2 * d), dtype=np.intp)

    def oscillation(k, centres):
        s, m = centres.size, int(counts[k])
        ix = np.add(base[centres, None], offsets[k], out=idx[: s * m].reshape(s, m))
        # indices are in range; mode="raise" would gather into a temporary first
        g = np.take(padded, ix, axis=1, out=buf[: 2 * d * s * m].reshape(2 * d, s, m),
                    mode="clip")
        np.subtract(g, mus[k][:, centres, None], out=g)
        np.square(g, out=g)
        sq = np.add(g[:d], g[d:], out=g[:d])
        return float(_norm_from_squares(space, sq).sum(axis=-1).max()) / m

    k, x = np.unravel_index(np.argmax(bounds), bounds.shape)
    best = oscillation(k, np.array([x]))
    for k in np.argsort(-bounds.max(axis=1), kind="stable"):
        bound = bounds[k]
        todo = np.flatnonzero(~(bound <= best))
        todo = todo[np.argsort(-bound[todo], kind="stable")]
        step = buf.size // (2 * d * int(counts[k]))  # buf holds at least one ball
        for i in range(0, todo.size, step):
            centres = todo[i: i + step]
            centres = centres[~(bound[centres] <= best)]
            if centres.size:
                best = max(best, oscillation(k, centres))
    return best


def c2_box_profile(field: HalfSpaceField) -> FunctionalProfile:
    """Classical Carleson box functional for scalar fields.

    sup over dyadic balls containing x of (1/|B|) * the dy dt/t integral
    of |F|^2 over the cylinder B x (0, r(B)); the quadratic cross-check
    partner of c_fun(F, 2).
    """
    if field.space.dim != 1:
        raise ValueError("c2_box_profile expects a scalar field")
    grid, scales = field.grid, field.scales
    sq = np.abs(field.values[..., 0]) ** 2
    t = scales.nodes()
    best = np.zeros(grid.shape)
    radii = dyadic_radii(grid)
    for r, m in zip(radii, _cut_indices(scales, radii)):
        if m == 0:
            continue
        count = window_count(grid, r)
        inner = sq[:m].sum(axis=0) * scales.dlog
        means = window_sum(grid, inner, r) / count
        best = np.maximum(best, window_max(grid, means, r))
    return FunctionalProfile("C2box", grid, np.sqrt(best),
                             {"t_max": scales.t_max})
