"""Gauss norms over non-Hilbert targets: Monte Carlo with error bars.

For an l^2 target the Gauss norm of a field over a region is a weighted
L^2 sum, computed exactly.  For l^1 it is exact too, a closed form in the
region's d x d covariance.  For other l^q targets it is the second moment
of a random Gaussian sum, estimated with common random numbers so that
paired comparisons (unimodular invariance, duality) see only the noise of
the difference.
"""

import numpy as np

from tentspace import (
    HalfSpaceField,
    RandomSource,
    ScaleGrid,
    SpatialGrid,
    cone_region,
    duality_defect,
    ell,
    gauss_norm,
    norm,
    unimodular_invariance_defect,
)
from tentspace.space import complex_gaussian_array

grid = SpatialGrid(1, 128)
scales = ScaleGrid(0.01, 0.25, 16)
region = cone_region(grid, scales, x=0.5, alpha=1.0)
print(f"cone region: {region.size} atoms, measure {region.measure():.3f}")

# exact vs forced Monte Carlo on a Hilbert target
gen = RandomSource(7).generator()
F2 = HalfSpaceField(grid, scales, ell(2, 3),
                    complex_gaussian_array(gen, (16, 128, 3)))
exact = gauss_norm(F2, region)
mc = gauss_norm(F2, region, trials=2000, rng=RandomSource(8), force_mc=True)
print(f"\nl^2_3 target: exact {exact.value:.4f}, "
      f"MC {mc.value:.4f} +- {mc.stderr:.4f} ({mc.trials} trials)")

# rank-one fields factor exactly: gauss_norm(h (x) xi) = ||h||_L2 ||xi||
space = ell(1, 3)
h = complex_gaussian_array(gen, (16, 128))
xi = complex_gaussian_array(gen, 3)
rank_one = HalfSpaceField(grid, scales, space, h[..., None] * xi)
est = gauss_norm(rank_one, region)
mc = gauss_norm(rank_one, region, trials=4000, rng=RandomSource(9), force_mc=True)
flat = h.reshape(16, -1)
h_l2 = np.sqrt((region.weights * np.abs(flat[region.scale_idx, region.spatial_idx]) ** 2).sum())
print(f"\nrank-one identity in l^1_3: closed form {est.value:.4f}, "
      f"MC {mc.value:.4f} +- {mc.stderr:.4f}, oracle {h_l2 * float(norm(space, xi)):.4f}")

# multiplying by unimodular phases never changes the norm
F1 = HalfSpaceField(grid, scales, ell(1, 3),
                    complex_gaussian_array(gen, (16, 128, 3)))
phases = np.exp(2j * np.pi * np.random.default_rng(0).uniform(size=(16, 128)))
defect, stderr = unimodular_invariance_defect(
    F1, region, phases, trials=2000, rng=RandomSource(10), details=True)
print(f"\nunimodular invariance: |difference| = {defect:.2e} "
      f"(paired stderr {stderr:.2e})")

# duality: the pointwise pairing integral never beats the product of norms
G = HalfSpaceField(grid, scales, ell("inf", 3),
                   complex_gaussian_array(gen, (16, 128, 3)))
det = duality_defect(F1, G, region, trials=2000, rng=RandomSource(11), details=True)
print(f"\nduality defect = {det.defect:.4f} "
      f"(must stay below ~3 x {det.stderr:.4f})")
