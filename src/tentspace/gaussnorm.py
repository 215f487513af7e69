"""Gauss norms of fields restricted to regions.

The randomized sum S = sum_i g_i sqrt(w_i) F_i over the A atoms is a
circular complex Gaussian vector in C^d whose law depends only on its
covariance C = M^H M, where M = sqrt(w) * F is the A x d weighted atom
matrix.  So the Gauss norm sqrt(E ||S||^2) is a function of C alone, and
one helper, _closed_form_moment, gives E ||S||^2 exactly wherever a
closed form exists:

- l^2, and every target at d = 1: the trace of C, the weighted L^2 sum
  over the atoms.
- l^1_d: the diagonal of C plus, for each pair of components, the product
  moment of two correlated Rayleigh moduli, a 2F1 of their squared
  correlation (Miller 1964), evaluated in numpy by the arithmetic-geometric
  mean of the complete elliptic integrals (Abramowitz & Stegun 17.6).

Exact results carry stderr 0.  Other targets (l^q with q != 1, 2 and
l^inf at d >= 2), and every target under ``force_mc``, are estimated by
Monte Carlo: M is factored once, M^H M = R^H R with R upper triangular and
its diagonal real and nonnegative, and each trial draws min(A, d) complex
standard Gaussians z and forms S = z R.  The estimate is sqrt(E ||S||^2)
with a delta-method standard error, the reduction the sweeps also use.

The factor is computed from the atoms in the region's canonical order, so
estimates are reproducible.  Paired comparisons of F and v*F take both
norms from the closed form where it exists; on Monte Carlo they factor the
stacked matrix [M | (v - 1) * M] and share one draw between F and v*F, so
defects of exact identities carry only the Monte Carlo noise of the
difference, not of the two terms.

Regions factor M by QR, never forming M^H M, so v == 1 defects are exactly
0.  Cone sweeps (functionals) have no per-point M, only M^H M from window
sums: they take the same closed forms from it, and otherwise draw from its
Hermitian PSD root.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .field import HalfSpaceField, Region
from .space import (
    RandomSource,
    _fold,
    _squared_norm2,
    complex_gaussian_array,
    dual,
    norm,
    pair,
)

__all__ = [
    "GaussEstimate",
    "gauss_norm",
    "paired_multiplier_defect",
    "unimodular_invariance_defect",
    "duality_defect",
    "DualityDetail",
]

@dataclass(frozen=True)
class GaussEstimate:
    value: float
    stderr: float
    trials: int
    exact: bool

    def __post_init__(self):
        if not (self.value >= 0 and self.stderr >= 0):  # NaN fails too
            raise ValueError("estimate and stderr must be nonnegative")
        if self.exact and self.stderr != 0.0:
            raise ValueError("exact estimates carry zero stderr")


@functools.cache
def _triu(d: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(d), built once per d and read-only."""
    pair = np.triu_indices(d)
    for a in pair:
        a.flags.writeable = False
    return pair


def _hyp2f1_agm(x: np.ndarray) -> np.ndarray:
    """2F1(-1/2, -1/2; 1; x) elementwise for x in [0, 1].

    It is (2/pi)(2E(x) - (1 - x)K(x)) in the complete elliptic integrals of
    parameter x.  The AGM a_n, b_n of (1, sqrt(1 - x)) with c_{n+1} =
    (a_n - b_n)/2 gives K = pi/(2a) and E = K(1 - s), s = sum_n 2^(n-1) c_n^2
    (Abramowitz & Stegun 17.6), so 2F1 = (1 + x - 2s)/a.  Seven steps match
    scipy's hyp2f1 to 6e-14 relative up to 1 - 2^-53.  At x = 1 the AGM does
    not converge, and the value there is 4/pi.
    """
    a, b, s, w = 1.0, np.sqrt(1.0 - x), 0.5 * x, 0.5
    for _ in range(7):
        c = 0.5 * (a - b)
        a, b, w = a - c, np.sqrt(a * b), 2.0 * w
        s = s + w * c * c
    return np.where(x < 1.0, (1.0 + x - 2.0 * s) / a, 4.0 / math.pi)


def _closed_form_moment(space, trace, covariance):
    """E ||S||_X^2 for S ~ CN(0, C) in closed form, or None where none exists.

    Each argument is called only by the branch that needs it: ``trace()``
    gives tr C, ``covariance()`` C's upper triangle, entries on the last
    axis in _triu(d) order; any leading axes broadcast.

    - l^2, and every target at d = 1: tr C.
    - l^1_d: sum_j C_jj + sum_{i != j} (pi/4) sqrt(C_ii C_jj)
      2F1(-1/2, -1/2; 1; |C_ij|^2 / (C_ii C_jj)), the product moment of two
      correlated Rayleigh moduli (K. S. Miller, Multidimensional Gaussian
      Distributions, 1964), the 2F1 by the AGM (_hyp2f1_agm).  The squared
      correlation is clipped to [0, 1], and a pair with a zero variance adds
      no cross term.
    """
    if space.is_hilbert or space.dim == 1:
        return trace()
    if space.q != 1.0:
        return None
    upper = covariance()
    i, j = _triu(space.dim)
    off = i < j
    var = np.maximum(upper[..., ~off].real, 0.0)
    prod = var[..., i[off]] * var[..., j[off]]
    live = prod > 0.0
    rho2 = np.clip(np.abs(upper[..., off]) ** 2 / np.where(live, prod, 1.0), 0.0, 1.0)
    cross = np.where(live, np.sqrt(prod) * _hyp2f1_agm(rho2), 0.0)
    return _fold(var) + (math.pi / 2.0) * _fold(cross)


def _region_moment(space, values, weights):
    """E ||S||^2 over atoms ``values`` (A, d) weighted by ``weights`` (A,).

    _closed_form_moment on the atoms' covariance, or None where it has none.
    """

    def trace():
        return (weights * _squared_norm2(values)).sum()

    def covariance():
        m = np.sqrt(weights)[:, None] * values
        return (m.T @ m.conj())[_triu(space.dim)]

    return _closed_form_moment(space, trace, covariance)


def _covariance_factor(m: np.ndarray) -> np.ndarray:
    """Upper-triangular R with R^H R = m^H m and a real nonnegative diagonal.

    Fixing the diagonal phase makes R unique for full-rank m, so c*m
    factors to |c|*R and scaled fields see the same draws.
    """
    r = np.linalg.qr(m, mode="r")
    return np.exp(-1j * np.angle(np.diagonal(r)))[:, None] * r


def _second_moments(space, values, weights, trials, rng, multiplier=None):
    """Per-trial squared norms of the Gaussian sum, drawn from its covariance.

    ``values`` (A, d) are the atoms and ``weights`` (A,) their weights.
    With ``multiplier`` v (one scalar per atom) the stacked matrix
    [M | (v - 1) * M] is factored, so one draw T gives S = T[:, :d] and
    S_v = S + T[:, d:] with their joint law; v == 1 makes S_v == S exactly.
    """
    weighted = np.sqrt(weights)[:, None] * values
    if multiplier is not None:
        weighted = np.concatenate([weighted, (multiplier - 1.0)[:, None] * weighted], axis=1)
    factor = _covariance_factor(weighted)
    z = complex_gaussian_array(rng if rng is not None else RandomSource(0),
                               (trials, factor.shape[0]))
    t = z @ factor
    s = t[:, :space.dim]
    m = norm(space, s) ** 2
    if multiplier is None:
        return m
    return m, norm(space, s + t[:, space.dim:]) ** 2


def _estimate_from_moments(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(E m) and its delta-method stderr along the last (trial) axis.

    A row's result does not depend on the other rows reduced with it.  The
    variance reuses the mean, in the order m.var(ddof=1) takes, so the bits
    are the same.
    """
    trials = m.shape[-1]
    mean = m.mean(axis=-1)
    value = np.sqrt(mean)
    safe = np.where(mean > 0.0, value, np.inf)  # mean 0: every trial and var 0
    dev = m - mean[..., None]
    dev *= dev
    var = dev.sum(axis=-1) / (trials - 1)
    return value, np.sqrt(var / trials) / (2.0 * safe)


def gauss_norm(
    field: HalfSpaceField,
    region: Region,
    trials: int = 2000,
    rng: RandomSource | None = None,
    force_mc: bool = False,
) -> GaussEstimate:
    """Gauss norm of the field restricted to the region.

    Exact (stderr 0, ``trials`` 0) for l^2 and l^1 targets and at d = 1,
    unless ``force_mc`` is set; otherwise a Monte Carlo estimate with
    ``trials`` draws.  Each draw is min(A, d) complex Gaussians times the
    region's covariance factor, not one Gaussian per atom.
    """
    values = region.restrict(field)
    if region.size == 0:
        return GaussEstimate(0.0, 0.0, 0, True)
    moment = None if force_mc else _region_moment(field.space, values, region.weights)
    if moment is not None:
        return GaussEstimate(math.sqrt(float(moment)), 0.0, 0, True)
    if trials < 2:
        raise ValueError("Monte Carlo path needs at least two trials")
    m = _second_moments(field.space, values, region.weights, trials, rng)
    value, stderr = _estimate_from_moments(m)
    return GaussEstimate(float(value), float(stderr), trials, False)


def paired_multiplier_defect(
    field: HalfSpaceField,
    region: Region,
    multiplier: np.ndarray,
    trials: int = 2000,
    rng: RandomSource | None = None,
    force_mc: bool = False,
) -> tuple[float, float]:
    """(gauss_norm(v*F) - gauss_norm(F), stderr) for a scalar ``multiplier`` v.

    v is a field over (K, *spatial).  Wherever gauss_norm is exact (l^2,
    l^1_d, and every target at d = 1) both norms come from the closed form
    and the stderr is 0.  Otherwise, and under ``force_mc``, both come from
    one draw of the joint covariance factor of F and v*F (min(A, 2d)
    complex Gaussians per trial), so the stderr is that of the difference.
    """
    values, g_atoms = _paired_atoms(field, region, np.asarray(multiplier), "multiplier")
    return _paired_defect(field.space, region, values, g_atoms, trials, rng, force_mc)


def _paired_atoms(field, region, v, name):
    """The region's atoms of F, (A, d), and of the scalar field v, (A,)."""
    expect = (field.scales.K,) + field.grid.shape
    if v.shape != expect:
        raise ValueError(f"{name} shape {v.shape} != {expect}")
    return region.restrict(field), v.reshape(-1).take(region.atoms)


def _paired_defect(space, region, values, g_atoms, trials, rng, force_mc):
    """paired_multiplier_defect on the gathered atoms and per-atom multipliers."""
    if region.size == 0:
        return 0.0, 0.0
    weights = region.weights
    base = None if force_mc else _region_moment(space, values, weights)
    if base is not None:
        scaled = _region_moment(space, values, weights * np.abs(g_atoms) ** 2)
        return math.sqrt(float(scaled)) - math.sqrt(float(base)), 0.0
    if trials < 2:
        raise ValueError("Monte Carlo path needs at least two trials")
    m, mb = _second_moments(space, values, weights, trials, rng, multiplier=g_atoms)
    (est, est_b), _ = _estimate_from_moments(np.stack([m, mb]))
    if est == 0.0 and est_b == 0.0:
        return 0.0, 0.0
    denom = 2.0 * max(est, est_b)
    stderr = math.sqrt(float((mb - m).var(ddof=1)) / trials) / denom
    return float(est_b - est), stderr


def unimodular_invariance_defect(
    field: HalfSpaceField,
    region: Region,
    phases: np.ndarray,
    trials: int = 2000,
    rng: RandomSource | None = None,
    force_mc: bool = False,
    details: bool = False,
):
    """|gauss_norm(v*F) - gauss_norm(F)| for a unimodular scalar field v."""
    values, g_atoms = _paired_atoms(field, region, np.asarray(phases, dtype=complex),
                                    "phase field")
    if region.size and np.abs(np.abs(g_atoms) - 1.0).max() > 1e-12:
        raise ValueError("phase field is not unimodular on the region")
    defect, stderr = _paired_defect(field.space, region, values, g_atoms,
                                    trials, rng, force_mc)
    return (abs(defect), stderr) if details else abs(defect)


@dataclass(frozen=True)
class DualityDetail:
    defect: float
    integral: float
    norm_f: GaussEstimate
    norm_g: GaussEstimate

    @property
    def stderr(self) -> float:
        a = self.norm_f.stderr * self.norm_g.value
        b = self.norm_g.stderr * self.norm_f.value
        return math.sqrt(a * a + b * b)


def duality_defect(
    field: HalfSpaceField,
    dual_field: HalfSpaceField,
    region: Region,
    trials: int = 2000,
    rng: RandomSource | None = None,
    force_mc: bool = False,
    details: bool = False,
):
    """integral_R |<F, G>| dmu  minus  gauss_norm(F) * gauss_norm(G).

    The Gauss-norm duality says this is never essentially positive: the
    defect must stay below a few combined standard errors.
    """
    if dual(field.space) != dual_field.space:
        raise ValueError(
            f"spaces are not dual: {field.space.label()} vs {dual_field.space.label()}"
        )
    if field.grid != dual_field.grid or field.scales != dual_field.scales:
        raise ValueError("fields must share grid and scales")
    fv = region.restrict(field)
    gv = region.restrict(dual_field)
    integral = float((region.weights * np.abs(pair(fv, gv))).sum())
    base = rng if rng is not None else RandomSource(0)
    nf = gauss_norm(field, region, trials, base.derive(101), force_mc=force_mc)
    ng = gauss_norm(dual_field, region, trials, base.derive(102), force_mc=force_mc)
    det = DualityDetail(integral - nf.value * ng.value, integral, nf, ng)
    return det if details else det.defect
