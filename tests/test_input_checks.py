"""Parameter checks that a NaN fails, as any other invalid value does."""

import math

import numpy as np
import pytest

from tentspace.decomp import stopping_time
from tentspace.field import HalfSpaceField, Region, ScaleGrid, SpatialGrid
from tentspace.gaussnorm import GaussEstimate
from tentspace.space import RandomSource, complex_gaussian_array, ell

GRID = SpatialGrid(1, 8)
SCALES = ScaleGrid(0.01, 0.25, 3)
NAN, INF = math.nan, math.inf


def _region(weights):
    return Region(GRID, SCALES, np.array([0, 1]), np.array([0, 0]), np.array(weights))


def _stopping_time(rho):
    vals = complex_gaussian_array(RandomSource(3), (SCALES.K,) + GRID.shape + (1,))
    return stopping_time(HalfSpaceField(GRID, SCALES, ell(2, 1), vals), q=1.0, rho=rho)


@pytest.mark.parametrize("build, match", [
    (lambda: _region([NAN, 1.0]), "weights"),
    (lambda: _region([1.0, INF]), "weights"),
    (lambda: GaussEstimate(NAN, 0.0, 0, True), "nonnegative"),
    (lambda: GaussEstimate(1.0, NAN, 16, False), "nonnegative"),
    (lambda: _stopping_time(NAN), "rho"),
], ids=["region_nan_weight", "region_inf_weight", "estimate_nan_value",
        "estimate_nan_stderr", "stopping_time_nan_rho"])
def test_nan_and_inf_fail_the_check(build, match):
    with pytest.raises(ValueError, match=match):
        build()
